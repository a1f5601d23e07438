//! Horizon workload driving: client submissions through the pipeline's
//! admission control, query batches, and cadence-driven ingestion on the
//! node that hosts the pipeline (the observer, when the run attaches one).

use crate::events::Event;
use crate::node::Node;
use crate::simulation::Simulation;
use stellar_horizon::{Horizon, HorizonError, HorizonPipeline};
use stellar_ledger::tx::TransactionEnvelope;
use stellar_telemetry::{Json, Registry};

impl Node {
    /// The front door a client submission passes on this node: with a
    /// pipeline attached, admission control sheds before the transaction
    /// costs signature checks or flooding. Returns whether it was
    /// admitted.
    pub(crate) fn admit(&mut self, tx: &TransactionEnvelope, now: u64) -> bool {
        let (Some(p), Some(v)) = (self.horizon.as_mut(), self.state.validator()) else {
            return true;
        };
        let verdict = p.admission.admit(tx.tx.source, now, v.herder.queue.len());
        self.horizon_load.inc(match verdict {
            Ok(()) => "horizon.submitted",
            Err(HorizonError::RateLimited { .. }) => "horizon.shed",
            Err(_) => "horizon.rejected",
        });
        verdict.is_ok()
    }

    /// One client query batch: an account summary, an indexed history
    /// walk, and fee stats — the three staple reads — timed together in
    /// wall-clock nanoseconds.
    fn query(&mut self, n_accounts: u64) {
        let (Some(p), Some(v)) = (self.horizon.as_ref(), self.state.validator()) else {
            return;
        };
        // Deterministic client choice without touching the sim RNG
        // streams: walk the account space with a large odd stride.
        let q = self.horizon_load.counter("horizon.queries");
        let id = crate::loadgen::user_account(q.wrapping_mul(2654435761) % n_accounts.max(1));
        let head = v.herder.header.ledger_seq;
        let started = std::time::Instant::now();
        let _ = Horizon::account(&v.herder, id);
        let _ = p.indexer.account_history(id, None, 32);
        let _ = p.indexer.account_effects(id, None, 32);
        let _ = Horizon::fee_stats(&v.herder);
        let ns = started.elapsed().as_nanos() as u64;
        self.horizon_load.observe("horizon.query_ns", ns);
        self.horizon_load
            .observe("horizon.lag_at_query", p.indexer.lag(head));
        self.horizon_load.inc("horizon.queries");
    }

    /// Drains the herder's close-event feed into the pipeline.
    pub(crate) fn ingest(&mut self) {
        if let (Some(p), Some(v)) = (self.horizon.as_mut(), self.state.validator_mut()) {
            p.on_close(&mut v.herder);
        }
    }

    /// The report's Horizon section: the merged pipeline registry
    /// (`ingest.*`, `stream.*`, `admission.*`) plus the load accounting
    /// (`horizon.*`), or `enabled: false`.
    pub(crate) fn horizon_json(&self) -> Json {
        let (Some(p), Some(v)) = (&self.horizon, self.state.validator()) else {
            return Json::obj().set("enabled", false);
        };
        let head = v.herder.header.ledger_seq;
        let mut reg = p.registry();
        reg.merge(&self.horizon_load);
        Json::obj()
            .set("enabled", true)
            .set("ingested_seq", p.indexer.ingested_seq())
            .set("ingest_lag", p.indexer.lag(head))
            .set("subscribers", p.hub.len() as u64)
            .set("tracked_sources", p.admission.tracked_sources() as u64)
            .set("registry", reg.snapshot())
    }
}

impl Simulation {
    /// The observer's horizon pipeline, when one is attached.
    pub fn horizon(&self) -> Option<&HorizonPipeline> {
        self.node(self.observer).horizon.as_ref()
    }

    /// The observer's Horizon load metrics (`horizon.*`).
    pub fn horizon_metrics(&self) -> &Registry {
        &self.node(self.observer).horizon_load
    }

    /// Schedules the first query batch and ingestion drain (at the 1 s
    /// start of load).
    pub(crate) fn schedule_horizon(&mut self) {
        if self.cfg.horizon.is_none() {
            return;
        }
        if self.cfg.horizon_ingest_interval_ms > 0 {
            let at = 1000 + self.cfg.horizon_ingest_interval_ms;
            self.queue.push(at, Event::HorizonIngest);
        }
        if self.cfg.horizon_query_rate > 0.0 {
            self.queue.push(1000, Event::HorizonQuery);
        }
    }

    pub(crate) fn handle_horizon_query(&mut self) {
        let n_accounts = self.cfg.n_accounts;
        self.node_mut(self.observer).query(n_accounts);
        let dt = ((1000.0 / self.cfg.horizon_query_rate).max(1.0)) as u64;
        if self.now + dt < self.load_horizon_ms() {
            self.queue.push(self.now + dt, Event::HorizonQuery);
        }
    }

    /// One cadence-driven ingestion drain (only scheduled when
    /// `horizon_ingest_interval_ms > 0`).
    pub(crate) fn handle_horizon_ingest(&mut self) {
        self.node_mut(self.observer).ingest();
        let dt = self.cfg.horizon_ingest_interval_ms;
        if self.now + dt < self.load_horizon_ms() + dt {
            self.queue.push(self.now + dt, Event::HorizonIngest);
        }
    }
}

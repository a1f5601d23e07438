//! Shared fixtures for benchmarks and experiment binaries.
//!
//! Every table and figure in the paper's §7 has a regeneration target in
//! this crate (see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for
//! recorded outputs):
//!
//! | Paper artifact | Binary | Criterion bench |
//! |----------------|--------|-----------------|
//! | §7.2 public-network stats + message counts (E1, E2) | `exp_public_network` | — |
//! | Fig. 8 timeout percentiles (E3) | `exp_fig8_timeouts` | — |
//! | Fig. 9 latency vs. accounts (E4) | `exp_fig9_accounts` | `fig9_accounts` |
//! | Fig. 10 latency vs. load (E5) | `exp_fig10_load` | `fig10_load` |
//! | Fig. 11 latency vs. validators (E6) | `exp_fig11_validators` | `fig11_validators` |
//! | §7.3 baseline (E7) + close rate (E8) | `exp_baseline` | — |
//! | §7.4 validator cost (E9) | `exp_validator_cost` | — |
//! | §6.2 quorum checks (E10, E11) | `exp_quorum_check` | `quorum_intersection` |
//! | §3/§5.4 crash-restart recovery vs. ledger gap (E16) | `exp_recovery` | — |
//! | §6.2 at 500 orgs + cascade survival frontier (E21) | `exp_cascade` | — |
//! | micro: where the time goes (§7.2 "bottlenecks") | — | `sha256`, `scp_round`, `ledger_apply`, `bucket_merge`, `orderbook` |

#![forbid(unsafe_code)]

use stellar_ledger::amount::BASE_FEE;
use stellar_ledger::asset::Asset;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar_ledger::txset::TransactionSet;
use stellar_sim::loadgen::{genesis_store, user_account, user_keys};
use stellar_telemetry::Json;

/// A genesis store with `n` synthetic accounts (re-exported fixture).
pub fn store_with_accounts(n: u64) -> LedgerStore {
    genesis_store(n, 1000)
}

/// Builds a transaction set of `n_tx` single-payment transactions over a
/// store of `n_accounts` accounts (distinct senders, sequence 1 each).
pub fn payment_tx_set(_store: &LedgerStore, n_accounts: u64, n_tx: u64) -> TransactionSet {
    let txs: Vec<TransactionEnvelope> = (0..n_tx)
        .map(|i| {
            let src = i % n_accounts;
            let dst = (i + 1) % n_accounts;
            let keys = user_keys(src);
            let seq = 1 + i / n_accounts;
            let tx = Transaction {
                source: user_account(src),
                seq_num: seq,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: user_account(dst),
                        asset: Asset::Native,
                        amount: 1 + i as i64,
                    },
                }],
            };
            TransactionEnvelope::sign(tx, &[&keys])
        })
        .collect();
    let prev = stellar_ledger::header::LedgerHeader::genesis(stellar_crypto::Hash256::ZERO);
    TransactionSet::assemble(prev.hash(), txs, u32::MAX)
}

/// Prints a row-aligned table: header then rows of equal-width columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Writes `doc` as `BENCH_<name>.json` next to the text output (schema
/// `stellar-bench/v2`, see EXPERIMENTS.md). The target directory comes
/// from `BENCH_OUT_DIR` (default: the current directory). Returns the
/// written path; rendering is validated by re-parsing before the write
/// so a malformed document fails loudly instead of landing on disk. Every
/// document is stamped with the SHA-256 compression its timings ran on.
pub fn write_bench_json(name: &str, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let doc = doc
        .clone()
        .set("sha256_kernel", stellar_crypto::sha256::kernel());
    let rendered = doc.render_pretty();
    Json::parse(&rendered).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("BENCH_{name}.json does not round-trip: {e:?}"),
        )
    })?;
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    std::fs::write(&path, rendered + "\n")?;
    println!("wrote {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_ledger::apply::close_ledger;
    use stellar_ledger::header::{LedgerHeader, LedgerParams};
    use stellar_ledger::tx::TxResult;

    #[test]
    fn fixture_tx_sets_apply_cleanly() {
        let mut store = store_with_accounts(100);
        let set = payment_tx_set(&store, 100, 50);
        assert_eq!(set.txs.len(), 50);
        let prev = LedgerHeader::genesis(stellar_crypto::Hash256::ZERO);
        let res = close_ledger(
            &mut store,
            &prev,
            &set,
            100,
            LedgerParams::default(),
            &mut stellar_ledger::sigcache::SigVerifyCache::disabled(),
        );
        assert!(res.results.iter().all(TxResult::is_success));
    }

    #[test]
    fn multi_round_sequences() {
        // More txs than accounts wraps sequences correctly.
        let store = store_with_accounts(10);
        let set = payment_tx_set(&store, 10, 25);
        assert_eq!(set.txs.len(), 25);
    }
}

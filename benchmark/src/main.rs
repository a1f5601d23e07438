//! The repo benchmark: five workloads over the close pipeline and the
//! consensus network, end-to-end metrics with tracing off and per-layer
//! metrics from a traced twin run, every output checked in the same
//! command. See `README.md` beside this package and `BENCHMARK.json` at
//! the repository root.
//!
//! ```sh
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out runs.jsonl]
//! benchmark --smoke
//! benchmark compare <a.jsonl> <b.jsonl>
//! ```

#![forbid(unsafe_code)]

mod close;
mod compare;
mod gen;
mod net;
mod probes;
mod spans;
mod spec;
mod stats;

use spec::Spec;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::process::ExitCode;
use stellar_telemetry::Json;

/// Where traced runs leave their span files.
const OUT_DIR: &str = ".bench_out";

/// Fewest set-ups per run; `setup_s` is the median of them all.
const SETUP_REPEATS: usize = 3;

/// Sets up with `build` at least `repeats` times, and — because a cheap
/// set-up is relatively the noisiest — on until a second has gone into
/// set-ups (25 at most). Each is dropped before the next is built, so
/// peak memory is one set-up's. Returns the median seconds and the last
/// one built.
pub fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut built = None;
    loop {
        drop(built.take());
        let t = std::time::Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
        let enough = repeats <= 1 || times.iter().sum::<f64>() >= 1.0 || times.len() >= 25;
        if times.len() >= repeats && enough {
            return (stats::median(&times), built.expect("just built"));
        }
    }
}

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured work the ledger counts are sized for.
    pub seconds: f64,
    /// Also run the traced twin and report per-layer metrics.
    pub traced: bool,
    /// Fewest set-ups to take the `setup_s` median over.
    pub setup_repeats: usize,
    /// Divides ledger and account counts (1 for a real run; the smoke
    /// test runs every workload at 1/20 size).
    pub shrink: u64,
}

/// What one run produced: metric values, check results, provenance.
pub struct Outcome {
    /// False once any output check failed.
    pub correct: bool,
    /// What failed.
    pub problems: Vec<String>,
    /// Operations attempted (transactions submitted).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Where the numbers came from.
    pub fingerprint: BTreeMap<String, Json>,
    /// Span file content of a traced run.
    pub trace: Option<Json>,
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, usize>,
    raw: BTreeMap<String, Vec<f64>>,
    spec: Spec,
}

impl Outcome {
    /// An empty outcome carrying the run's fingerprint.
    pub fn new(args: &RunArgs) -> Outcome {
        let mut out = Outcome {
            correct: true,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            fingerprint: BTreeMap::new(),
            trace: None,
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
            raw: BTreeMap::new(),
            spec: Spec::load(),
        };
        out.note("workload", args.workload.as_str());
        out.note("seed", args.seed);
        out.note("seconds", args.seconds);
        out.note("trace", u64::from(args.traced));
        out.note(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        out.note(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        out.note("git_commit", git_commit());
        out
    }

    /// Records a metric value. The name must be declared in
    /// `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        if self.spec.find(name).is_none() {
            self.fail(&format!("metric {name} is not declared in BENCHMARK.json"));
        }
        self.values.insert(name.to_string(), value);
    }

    /// The recorded value of `name` (0 when never set).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records one fingerprint field.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.fingerprint.insert(key.to_string(), value.into());
    }

    /// Records how many raw samples a family of percentiles rests on.
    pub fn note_samples(&mut self, family: &str, n: usize) {
        self.samples.insert(family.to_string(), n);
    }

    /// Keeps a family's raw samples for the result document.
    pub fn keep_samples(&mut self, family: &str, samples: &[f64]) {
        self.note_samples(family, samples.len());
        self.raw.insert(family.to_string(), samples.to_vec());
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: &str) {
        self.correct = false;
        if !self.problems.iter().any(|p| p == why) {
            self.problems.push(why.to_string());
        }
    }

    /// The names recorded so far.
    fn names(&self) -> BTreeSet<String> {
        self.values.keys().cloned().collect()
    }

    /// `{name: {value, unit}}` for the metrics this trace mode reports.
    /// Per-layer metrics a workload never touches read 0; an end-to-end
    /// metric left unset is a failed check.
    fn metrics_json(&mut self, traced: bool) -> Json {
        let mut metrics = Json::obj();
        for m in self.spec.metrics(traced).to_vec() {
            if !traced && !self.values.contains_key(&m.name) {
                self.fail(&format!("end-to-end metric {} was not measured", m.name));
            }
            metrics = metrics.set(
                &m.name,
                Json::obj()
                    .set("value", self.value(&m.name))
                    .set("unit", m.unit.as_str()),
            );
        }
        metrics
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn result_line(&mut self, traced: bool) -> Json {
        if self.failed > 0 {
            self.fail("transactions failed; every workload intends none to");
        }
        let metrics = self.metrics_json(traced);
        Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics)
    }

    /// The full result document: the result line plus fingerprint, sample
    /// counts and any failed checks.
    fn document(&mut self, traced: bool) -> Json {
        let samples = self.samples.iter().fold(Json::obj(), |acc, (k, n)| {
            acc.set(
                k,
                Json::obj()
                    .set("n", *n)
                    .set("highest_supported_percentile", stats::highest_supported(*n)),
            )
        });
        self.result_line(traced)
            .set("fingerprint", Json::Obj(self.fingerprint.clone()))
            .set("samples", samples)
            .set(
                "raw",
                self.raw.iter().fold(Json::obj(), |acc, (k, v)| {
                    acc.set(k, Json::Arr(v.iter().map(|x| (*x).into()).collect()))
                }),
            )
            .set(
                "problems",
                Json::Arr(self.problems.iter().map(|p| p.as_str().into()).collect()),
            )
    }
}

/// The checked-out commit, read from `.git` without starting a process;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map_or("unknown".into(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload (and, traced, its twin and the direct probes).
fn run_workload(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new(args);
    if let Some(shape) = close::CloseShape::named(&args.workload) {
        close::run(&shape, args, &mut out);
    } else if let Some(shape) = net::NetShape::named(&args.workload) {
        net::run(&shape, args, &mut out);
    } else {
        out.fail(&format!("unknown workload {}", args.workload));
    }
    // One workload per process, so the high-water mark is this run's.
    out.set("peak_rss_mb", peak_rss_mb());
    if args.traced {
        probes::run(&mut out);
    }
    out
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n\
         \x20      benchmark --smoke\n\
         \x20      benchmark compare <a.jsonl> <b.jsonl>"
    );
    ExitCode::from(2)
}

/// Every workload at 1/20 size, both trace modes: the emitted metric and
/// workload names must be exactly `BENCHMARK.json`'s, and every check
/// must pass.
fn smoke() -> ExitCode {
    let spec = Spec::load();
    let mut layer_names = BTreeSet::new();
    let mut ok = true;
    for workload in &spec.workloads {
        let args = RunArgs {
            workload: workload.clone(),
            seed: 1,
            seconds: spec.run_seconds as f64,
            traced: true,
            setup_repeats: 1,
            shrink: 20,
        };
        let t = std::time::Instant::now();
        let mut out = run_workload(&args);
        // Both result lines, so an unmeasured end-to-end metric shows.
        let _ = out.result_line(false);
        let _ = out.result_line(true);
        let declared: BTreeSet<String> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.clone())
            .collect();
        let undeclared: Vec<String> = out.names().difference(&declared).cloned().collect();
        let e2e_missing: Vec<&str> = spec
            .end_to_end
            .iter()
            .filter(|m| !out.names().contains(&m.name))
            .map(|m| m.name.as_str())
            .collect();
        layer_names.extend(out.names());
        let pass = out.correct && undeclared.is_empty() && e2e_missing.is_empty();
        ok &= pass;
        eprintln!(
            "smoke {workload}: {} in {:.1} s ({} tx, {} failed){}",
            if pass { "ok" } else { "FAILED" },
            t.elapsed().as_secs_f64(),
            out.attempted,
            out.failed,
            out.problems
                .iter()
                .fold(String::new(), |acc, p| acc + "\n  " + p),
        );
    }
    for m in &spec.per_layer {
        if !layer_names.contains(&m.name) {
            eprintln!("smoke: no workload reports {}", m.name);
            ok = false;
        }
    }
    if ok {
        println!("smoke ok: metric and workload names match BENCHMARK.json");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => return compare::run(&argv[1], &argv[2]),
        Some("--smoke") if argv.len() == 1 => return smoke(),
        _ => {}
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => opts.insert(&k[2..], v.as_str()),
            _ => return usage(),
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload"),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && *s <= 600.0),
        opts.get("trace").and_then(|s| match *s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !Spec::load().workloads.iter().any(|w| w == workload) {
        eprintln!("unknown workload {workload}");
        return usage();
    }
    let args = RunArgs {
        workload: workload.to_string(),
        seed,
        seconds,
        traced: trace,
        setup_repeats: SETUP_REPEATS,
        shrink: 1,
    };
    let mut out = run_workload(&args);
    let doc = out.document(args.traced);
    if let Some(trace) = out.trace.take() {
        let path = format!("{OUT_DIR}/trace-{}.json", args.workload);
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace.render()));
        if let Err(e) = written {
            out.fail(&format!("cannot write {path}: {e}"));
        }
    }
    if let Some(path) = opts.get("out") {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", doc.render()));
        if let Err(e) = appended {
            out.fail(&format!("cannot append to {path}: {e}"));
        }
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    eprintln!(
        "fingerprint: {}",
        doc.get("fingerprint").map_or(String::new(), Json::render)
    );
    // The result line goes last on stdout, after any late failure.
    println!("{}", out.result_line(args.traced).render());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

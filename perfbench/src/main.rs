//! The checker's benchmark.
//!
//! ```text
//! jaaru-perfbench --workload <fig14-d1|fig14-d3|serve-ci> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), then
//! runs whole passes over it until `--seconds` have gone by. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer split
//! and the tracing overhead. The last line of standard output is one
//! JSON object with the result. See README.md.

mod fig14;
mod layers;
mod serve_ci;
mod util;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fig14::{Depth, Fig14};
use serve_ci::ServeCi;
use util::{median, pct_s, HostSpeed};

/// Each burst of set-ups lasts at least this long and repeats at least
/// `SETUP_MIN_REPS` times; `setup_s` is the median repetition.
const SETUP_WINDOW: Duration = Duration::from_millis(100);
const SETUP_MIN_REPS: usize = 3;

/// End-to-end metrics (name, unit, which way is better), in output
/// order; `BENCHMARK.json` lists the same.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p90_ms", "ms", "lower"),
    ("verdict_ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics (name, unit, which way is better), in output
/// order; `BENCHMARK.json` lists the same. A workload reports 0 for a layer
/// it does not reach from outside (the `serve.*` layer on `fig14-*`,
/// the checker layers on `serve-ci`).
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.self_s", "s", "lower"),
    ("workloads.runs_pre", "count", "lower"),
    ("workloads.runs_post", "count", "lower"),
    ("tso.store_s", "s", "lower"),
    ("tso.store_calls", "count", "lower"),
    ("tso.store_bytes", "bytes", "lower"),
    ("tso.flush_s", "s", "lower"),
    ("tso.flush_calls", "count", "lower"),
    ("tso.fence_s", "s", "lower"),
    ("tso.fence_calls", "count", "lower"),
    ("tso.rmw_s", "s", "lower"),
    ("tso.rmw_calls", "count", "lower"),
    ("tso.load_pre_s", "s", "lower"),
    ("tso.load_pre_calls", "count", "lower"),
    ("rf.load_s", "s", "lower"),
    ("rf.load_calls", "count", "lower"),
    ("rf.load_bytes", "bytes", "lower"),
    ("rf.choice_points", "count", "lower"),
    ("rf.max_set", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.scenarios", "count", "lower"),
    ("core.executions", "count", "lower"),
    ("core.executions_replayed", "count", "lower"),
    ("core.executions_restored", "count", "lower"),
    ("core.failure_points", "count", "lower"),
    ("snapshot.hits", "count", "higher"),
    ("snapshot.misses", "count", "lower"),
    ("snapshot.evictions", "count", "lower"),
    ("snapshot.peak_bytes", "bytes", "lower"),
    ("snapshot.hit_ratio", "ratio", "higher"),
    ("prune.rounds", "count", "lower"),
    ("prune.points_skipped", "count", "higher"),
    ("prune.final_round_executions", "count", "lower"),
    ("report.render_s", "s", "lower"),
    ("report.render_bytes", "bytes", "lower"),
    ("verdict.wrong", "count", "lower"),
    ("verdict.undecided", "count", "lower"),
    ("trace.check_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("host.raw_wall_s", "s", "lower"),
    ("host.ref_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("serve.fresh_ms_p50", "ms", "lower"),
    ("serve.related_ms_p50", "ms", "lower"),
    ("serve.cached_ms_p50", "ms", "lower"),
    ("serve.check_ms_p50", "ms", "lower"),
    ("serve.bug_ms_p50", "ms", "lower"),
    ("serve.lint_ms_p50", "ms", "lower"),
    ("serve.result_hit_ratio", "ratio", "higher"),
    ("serve.snapshot_hit_ratio", "ratio", "higher"),
    ("serve.snapshot_evictions", "count", "lower"),
    ("serve.reply_bytes", "bytes", "lower"),
    ("serve.share_fresh", "ratio", "lower"),
    ("serve.share_related", "ratio", "higher"),
    ("serve.share_duplicate", "ratio", "higher"),
];

/// One per-layer reading of a traced pass.
pub type Layer = (&'static str, f64);

/// What one pass over a workload measured and found.
#[derive(Default)]
pub struct Pass {
    /// The pass's time: the sum of `jobs`.
    pub wall: Duration,
    /// The same, not corrected for host speed.
    pub raw_wall: Duration,
    /// Latency of each input (fig14) or job (serve-ci), corrected for
    /// host speed (see `util::HostSpeed`).
    pub jobs: Vec<Duration>,
    /// Host-speed samples taken during the pass.
    pub refs: Vec<Duration>,
    /// Host-speed samples that ended while another thread ran.
    pub disturbed: u64,
    pub attempted: u64,
    /// Answers that contradict the known answer.
    pub wrong: u64,
    /// Inputs left without an answer: truncated, failed, rejected.
    pub undecided: u64,
    /// Failed answers that are not a known seed defect, and known
    /// defects no longer reported.
    pub unexpected: u64,
    /// Hash over every outcome; equal for every pass of a run.
    pub fingerprint: u64,
    /// Spans that do not nest inside their parent.
    pub span_errors: u64,
    pub layers: Vec<Layer>,
    pub notes: Vec<String>,
}

enum Bench {
    Fig14(Fig14),
    Serve(ServeCi),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
        match workload {
            "fig14-d1" => Fig14::setup(Depth::One).map(Bench::Fig14),
            "fig14-d3" => Fig14::setup(Depth::Three).map(Bench::Fig14),
            "serve-ci" => Ok(Bench::Serve(ServeCi::setup(seed))),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn pass(&self, traced: bool) -> Result<Pass, String> {
        match self {
            Bench::Fig14(f) => Ok(f.pass(traced)),
            // The serve layer's spans are the per-job timers every pass
            // keeps, so a traced pass is an ordinary one.
            Bench::Serve(s) => s.pass(),
        }
    }

    fn describe(&self) -> String {
        match self {
            Bench::Fig14(f) => format!("{} programs", f.len()),
            Bench::Serve(s) => {
                let (fresh, related, duplicate) = s.shares();
                format!(
                    "{} jobs: fresh {fresh:.3}, related {related:.3}, duplicate {duplicate:.3}",
                    s.len()
                )
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("jaaru-perfbench: {e}");
            eprintln!(
                "usage: jaaru-perfbench --workload <fig14-d1|fig14-d3|serve-ci> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}

/// The set-up times of a run, and host-speed samples of theirs that
/// ended beside a running thread.
#[derive(Default)]
struct Setups {
    times: Vec<f64>,
    disturbed: u64,
}

/// Sets the workload up repeatedly, adding each set-up time to `setups`,
/// and returns the last one built. Bursts run before every pass and after
/// the last, so `setup_s` samples the host over the whole run, as
/// `wall_s` does. A set-up takes well under a millisecond, far less than
/// a host-speed sample, so the host is sampled around the whole burst
/// and every set-up in it is scaled by that burst's factor.
fn setup_burst(args: &Args, setups: &mut Setups) -> Result<Bench, String> {
    let mut host = HostSpeed::new();
    let burst_start = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let built = Bench::setup(&args.workload, args.seed)?;
        times.push(start.elapsed());
        if times.len() >= SETUP_MIN_REPS && burst_start.elapsed() >= SETUP_WINDOW {
            let scale = host.scale();
            setups.disturbed += host.disturbed;
            setups
                .times
                .extend(times.iter().map(|t| t.as_secs_f64() * scale));
            return Ok(built);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut setups = Setups::default();
    let bench = setup_burst(&args, &mut setups)?;
    println!("inputs: {}", bench.describe());

    // Whole passes until the time is up; a traced run alternates
    // untraced and traced passes and needs at least one of each.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    // Peak memory of set-up plus one untraced pass: later passes would
    // add allocator growth that depends on how many of them fit.
    let mut peak_rss = None;
    loop {
        if !plain.is_empty() {
            setup_burst(&args, &mut setups)?;
        }
        let trace_next = args.trace && traced.len() < plain.len();
        let pass = bench.pass(trace_next)?;
        println!(
            "pass {}{}: {:.4} s ({:.4} s raw, host sample {:.3} ms), {} answered, {} wrong, \
             {} undecided, fingerprint {:016x}",
            plain.len() + traced.len() + 1,
            if trace_next { " (traced)" } else { "" },
            pass.wall.as_secs_f64(),
            pass.raw_wall.as_secs_f64(),
            pct_s(&pass.refs, 50.0) * 1e3,
            pass.attempted,
            pass.wrong,
            pass.undecided,
            pass.fingerprint,
        );
        if plain.is_empty() {
            for note in &pass.notes {
                println!("  {note}");
            }
            peak_rss = Some(util::peak_rss_bytes()?);
        }
        if trace_next {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        if start.elapsed() >= budget && (!args.trace || !traced.is_empty()) {
            break;
        }
    }
    setup_burst(&args, &mut setups)?;

    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|p| p.attempted).sum();
    let failed: u64 = all().map(|p| p.wrong + p.undecided).sum();
    let unexpected: u64 = all().map(|p| p.unexpected).sum();
    let span_errors: u64 = all().map(|p| p.span_errors).sum();
    let fingerprint = plain[0].fingerprint;
    let stable = all().all(|p| p.fingerprint == fingerprint);
    println!(
        "fingerprint {fingerprint:016x} ({})",
        if stable {
            "every pass agrees"
        } else {
            "PASSES DISAGREE"
        }
    );
    println!(
        "failed_share {} ({failed} of {attempted} answers; {unexpected} unexpected)",
        util::ratio(failed, attempted)
    );
    if span_errors > 0 {
        println!("{span_errors} span(s) not nested in their parent");
    }
    // A thread running beside the reference loop could slow it, and so
    // make every corrected time read too fast.
    let disturbed: u64 = all().map(|p| p.disturbed).sum::<u64>() + setups.disturbed;
    if disturbed > 0 {
        println!("UNEXPECTED: {disturbed} host-speed sample(s) ended beside a running thread");
    }
    let correct = stable && unexpected == 0 && span_errors == 0 && disturbed == 0;

    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let wall = |passes: &[Pass]| per_pass(passes, &|p| p.wall.as_secs_f64());
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        // The layer split is that of the median traced pass, so its
        // parts still add up to its `check()` spans.
        let mut by_wall: Vec<&Pass> = traced.iter().collect();
        by_wall.sort_by_key(|p| p.wall);
        let mid = by_wall[(by_wall.len() - 1) / 2];
        let (traced_wall, plain_wall) = (mid.wall.as_secs_f64(), wall(&plain));
        let refs: Vec<Duration> = all().flat_map(|p| p.refs.iter().copied()).collect();
        for &(name, unit, _) in PER_LAYER {
            let value = match name {
                "verdict.wrong" => mid.wrong as f64,
                "verdict.undecided" => mid.undecided as f64,
                "trace.untraced_wall_s" => plain_wall,
                "trace.overhead_s" => traced_wall - plain_wall,
                "trace.overhead_ratio" => (traced_wall - plain_wall) / plain_wall,
                "host.raw_wall_s" => per_pass(&plain, &|p| p.raw_wall.as_secs_f64()),
                "host.ref_ms" => pct_s(&refs, 50.0) * 1e3,
                _ => mid.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let jobs: Vec<Duration> = plain.iter().flat_map(|p| p.jobs.iter().copied()).collect();
        let rss_mb = peak_rss.expect("the first pass is untraced") as f64 / 1e6;
        for &(name, unit, _) in END_TO_END {
            let value = match name {
                "setup_s" => median(&setups.times),
                "wall_s" => wall(&plain),
                "job_p50_ms" => pct_s(&jobs, 50.0) * 1e3,
                "job_p90_ms" => pct_s(&jobs, 90.0) * 1e3,
                "verdict_ok_share" => 1.0 - util::ratio(failed, attempted),
                "peak_rss_mb" => rss_mb,
                _ => unreachable!("every end-to-end metric is measured"),
            };
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru_serve::json::{parse, Value};

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program runs and prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| match spec.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        for workload in list("workloads") {
            let name = field(&workload, "name");
            assert!(Bench::setup(&name, 1).is_ok(), "{name}");
        }
    }
}

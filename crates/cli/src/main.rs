//! An artifact-style command-line runner, mirroring the paper's
//! `recipe-bugs.sh` / `pmdk-bugs.sh` / `recipe-perf.sh` scripts: run any
//! benchmark (fixed or with a seeded bug) by name and print the full
//! report — or run the whole checker as a long-lived service.
//!
//! ```text
//! jaaru_cli [options] list
//! jaaru_cli [options] check <benchmark> [keys]          # fixed configuration
//! jaaru_cli [options] bug (recipe|pmdk) <row#> [keys]   # one bug-table row
//! jaaru_cli [options] lint <benchmark> [keys]           # lint a fixed benchmark
//! jaaru_cli [options] lint (recipe|pmdk) <row#> [keys]  # lint one bug row
//! jaaru_cli [options] repair <benchmark> [keys]         # repair a fixed benchmark
//! jaaru_cli [options] repair (recipe|pmdk) <row#> [keys] # repair one bug row
//! jaaru_cli [options] perf [keys]                       # Figure 14 run
//! jaaru_cli [options] fuzz [fuzz options]               # differential fuzzing
//! jaaru_cli [options] litmus [corpus|sweep] [opts]      # Px86 conformance harness
//! jaaru_cli [options] serve [serve options]             # checking as a service
//! ```
//!
//! `--jobs N` explores on N worker threads (0 = all cores; default 1).
//! `--format json` prints the machine-readable report instead of text;
//! `--format json-canonical` prints the run-invariant view (identical
//! bytes across worker counts and snapshot settings — what the serve daemon
//! replies with); `--format sarif` prints the run's diagnostics as a
//! SARIF 2.1.0 document for CI ingestion.
//! `--no-snapshot` disables crash-point snapshots (replay every prefix).
//! A global option the subcommand never reads is a usage error: `list`
//! takes none, `perf` and `serve` no `--format`, and `fuzz` and `litmus`
//! neither `--no-snapshot` nor `--format sarif`.
//! e.g. `cargo run --release -p jaaru-cli --bin jaaru_cli -- bug recipe 10`
//!
//! The `serve` subcommand accepts newline-delimited JSON job specs on a
//! Unix domain socket (`--socket PATH`) or from a file (`--batch FILE`,
//! for CI), sharing one result cache across all jobs; see the
//! `jaaru-serve` crate docs for the protocol.
//!
//! Exit status: 0 when the run is clean, 1 when bugs or error-severity
//! diagnostics were found, 2 on usage errors (batch mode adds 3 for
//! failed/cancelled/deadline jobs).

use std::path::PathBuf;
use std::sync::Arc;

use jaaru::{CheckReport, ModelChecker, Program, RepairOutcome};
use jaaru_bench::registry::{
    find_fixed, fixed_cases, lockfree_bug_cases, pmdk_bug_cases, recipe_bug_cases,
    recipe_fixed_cases,
};
use jaaru_fuzz::{harvest, minimize_divergence, repair_seeded, run_campaign, Oracle, RepairStats};
use jaaru_litmus::corpus::run_corpus_report;
use jaaru_litmus::sweep::{run_sweep, SweepBound};
use jaaru_serve::{
    daemon, one_shot_config, run_program, ArtifactFormat, Daemon, JobKind, JobResult, ServeOptions,
};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    /// The timed, machine-readable report.
    Json,
    /// What the serve daemon replies for the same job: `json-canonical`
    /// or `sarif`.
    Artifact(ArtifactFormat),
}

/// Runs a `check`, `bug`, `lint` or `repair` job on `program`, prints
/// its result and returns the process exit code: 1 when the run found
/// bugs or error-severity diagnostics, or a repair did not verify.
fn run(
    kind: JobKind,
    name: &str,
    program: &(dyn Program + Sync),
    jobs: usize,
    format: Format,
    snapshots: bool,
) -> i32 {
    let mut config = one_shot_config(kind, jobs);
    config.snapshots(snapshots);
    let (clean, result) = run_program(kind, &config, program, &Arc::default());
    match (format, &result) {
        (Format::Artifact(artifact), _) => print!("{}", result.render(artifact)),
        (Format::Json, JobResult::Check(report)) => print!("{}", report.to_json()),
        (Format::Json, JobResult::Repair(outcome)) => print!("{}", outcome.to_json()),
        (Format::Text, JobResult::Check(report)) => print_report(name, report),
        (Format::Text, JobResult::Repair(outcome)) => print_repair(name, outcome),
        (_, JobResult::Json(_)) => unreachable!("registry jobs report a check or a repair"),
    }
    i32::from(!clean)
}

/// The text view of a check, bug or lint report.
fn print_report(name: &str, report: &CheckReport) {
    println!("== {name} ==");
    println!("{report}");
    for race in &report.races {
        println!("{race}");
    }
    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.has_errors() {
        println!(
            "VERDICT: {} robustness diagnostic(s); fixes suggested above",
            report.diagnostics.iter().filter(|d| d.is_error()).count()
        );
    } else if report.is_clean() {
        println!("VERDICT: crash consistent under exhaustive exploration");
    } else {
        println!(
            "VERDICT: {} bug(s) found; traces above reproduce them",
            report.bugs.len()
        );
    }
}

/// The text view of `repair`: diagnose → fix → verify → minimize.
fn print_repair(name: &str, outcome: &RepairOutcome) {
    println!("== repair {name} ==");
    println!("baseline: {}", outcome.baseline.summary());
    println!(
        "{} distinct finding(s); {} round(s), {} re-check(s)",
        outcome.diagnosed.len(),
        outcome.rounds,
        outcome.rechecks
    );
    for (i, e) in outcome.edits.iter().enumerate() {
        println!("edit {}: {e}", i + 1);
    }
    if outcome.verified {
        if let Some(r) = &outcome.repaired {
            println!("re-check: {}", r.summary());
        }
        println!(
            "VERDICT: verified minimal repair ({} edit(s)); re-check clean",
            outcome.edits.len()
        );
    } else {
        println!(
            "VERDICT: no verified repair after {} round(s); \
             {} candidate edit(s) above",
            outcome.rounds,
            outcome.edits.len()
        );
    }
}

/// The optional `keys` argument at `args[pos]`, the last argument a
/// subcommand reads: `default` when absent, a usage error when it is
/// not a number or more arguments follow it.
fn keys_arg(args: &[String], pos: usize, default: usize) -> usize {
    if args.len() > pos + 1 {
        usage()
    }
    args.get(pos)
        .map_or(default, |a| a.parse().unwrap_or_else(|_| usage()))
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  jaaru_cli [options] list\n  \
         jaaru_cli [options] check <benchmark> [keys]\n  \
         jaaru_cli [options] bug (recipe|pmdk|lockfree) <row#> [keys]\n  \
         jaaru_cli [options] lint <benchmark> [keys]\n  \
         jaaru_cli [options] lint (recipe|pmdk|lockfree) <row#> [keys]\n  \
         jaaru_cli [options] repair <benchmark> [keys]\n  \
         jaaru_cli [options] repair (recipe|pmdk|lockfree) <row#> [keys]\n  \
         jaaru_cli [options] perf [keys]\n  \
         jaaru_cli [options] fuzz [fuzz options]\n  \
         jaaru_cli [options] litmus [corpus|sweep] [litmus options]\n  \
         jaaru_cli [options] serve [serve options]\n\
         options:\n  \
         --jobs N (-j)          worker threads (0 = all cores; default 1)\n  \
         --format text|json|json-canonical|sarif (-f) output format\n                         \
         (json-canonical: run-invariant bytes; sarif: lint diagnostics as SARIF 2.1.0)\n  \
         --no-snapshot          replay every prefix instead of restoring snapshots\n\
         fuzz options:\n  \
         --seeds N              programs to generate (default 200)\n  \
         --seed-start S         first seed (default 0)\n  \
         --ops-max M            max body operations per program (default 14)\n  \
         --differential         also compare config axes and the eager baseline\n  \
         --minimize             shrink any divergence to a minimal reproducer\n  \
         --corpus DIR           read/write reproducers under DIR\n  \
         --harvest              minimize seeded-fault programs into the corpus\n  \
         --repair               auto-repair every seeded-fault program; exit\n                         \
         nonzero if any fault class is unrepairable\n\
         litmus options:\n  \
         corpus | sweep         run only the named corpus / only the sweep (default both)\n  \
         --max-threads N        sweep bound: max threads (default 2)\n  \
         --max-ops N            sweep bound: max ops per thread (default 4)\n  \
         --max-total N          sweep bound: max total ops (default 4)\n\
         serve options:\n  \
         --socket PATH          listen on a Unix domain socket at PATH\n  \
         --batch FILE           run request lines from FILE and exit (CI mode)\n  \
         --queue-cap N          bounded job-queue capacity (default 64)\n  \
         --result-cap BYTES     cross-job result-cache budget (default 16 MiB)\n\
         serve inherits --jobs (per-job default)"
    );
    std::process::exit(2);
}

/// Fuzz-subcommand options drained from the remaining arguments.
struct FuzzOpts {
    seeds: u64,
    seed_start: u64,
    ops_max: usize,
    differential: bool,
    minimize: bool,
    corpus: Option<PathBuf>,
    harvest: bool,
    repair: bool,
}

fn parse_fuzz_opts(args: &[String]) -> FuzzOpts {
    let mut opts = FuzzOpts {
        seeds: 200,
        seed_start: 0,
        ops_max: 14,
        differential: false,
        minimize: false,
        corpus: None,
        harvest: false,
        repair: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.seeds = n,
                None => usage(),
            },
            "--seed-start" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.seed_start = n,
                None => usage(),
            },
            "--ops-max" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.ops_max = n,
                None => usage(),
            },
            "--differential" => opts.differential = true,
            "--minimize" => opts.minimize = true,
            "--corpus" => match it.next() {
                Some(dir) => opts.corpus = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--harvest" => opts.harvest = true,
            "--repair" => opts.repair = true,
            _ => usage(),
        }
    }
    if opts.harvest && opts.corpus.is_none() {
        eprintln!("--harvest requires --corpus DIR");
        std::process::exit(2);
    }
    opts
}

/// The `fuzz` subcommand: run a campaign, optionally minimize
/// divergences and harvest seeded-fault reproducers into the corpus.
fn fuzz(opts: FuzzOpts, jobs: usize, format: Format) -> i32 {
    let oracle = Oracle {
        jobs,
        differential: opts.differential,
        ..Oracle::default()
    };
    let mut harvested = Vec::new();
    let mut faulted = Vec::new();
    let mut report = run_campaign(
        &oracle,
        opts.seed_start,
        opts.seeds,
        opts.ops_max,
        None,
        |program, outcome| {
            if opts.harvest && outcome.buggy && outcome.divergences.is_empty() {
                if let Some(repro) = harvest(program) {
                    harvested.push(repro);
                }
            }
            if opts.repair && program.fault.is_some() {
                faulted.push(program.clone());
            }
        },
    );

    // Auto-repair every seeded-fault program: each class's planted
    // construct must come back as a verified minimal edit set, or the
    // campaign fails.
    if opts.repair {
        let mut stats = RepairStats::default();
        for program in &faulted {
            let outcome = repair_seeded(program, jobs);
            stats.record(program.fault_class, &outcome);
        }
        report.repair = Some(stats);
    }

    // Shrink each diverging seed to a minimal reproducer; persist them
    // when a corpus directory was given.
    let mut minimized = Vec::new();
    if opts.minimize {
        let mut seeds: Vec<u64> = report.divergences.iter().map(|d| d.seed).collect();
        seeds.dedup();
        for seed in seeds {
            let program = jaaru_fuzz::generate(seed, opts.ops_max, jaaru_fuzz::FaultMode::Auto);
            if let Some(repro) = minimize_divergence(&oracle, &program, program.expect_buggy()) {
                minimized.push(repro);
            }
        }
    }
    if let Some(dir) = &opts.corpus {
        for repro in harvested.iter().chain(&minimized) {
            if let Err(e) = repro.write_to(dir) {
                eprintln!("cannot write {}: {e}", dir.display());
                return 2;
            }
        }
    }

    match format {
        Format::Json | Format::Artifact(ArtifactFormat::JsonCanonical) => {
            print!("{}", report.to_json())
        }
        Format::Text | Format::Artifact(ArtifactFormat::Sarif) => {
            println!("== fuzz ==");
            let mut rows = vec![
                vec!["seeds".to_string(), report.seeds.to_string()],
                vec!["buggy".to_string(), report.buggy.to_string()],
                vec!["clean".to_string(), report.clean.to_string()],
                vec!["scenarios".to_string(), report.scenarios.to_string()],
                vec!["executions".to_string(), report.executions.to_string()],
                vec!["yat states".to_string(), report.yat_states.to_string()],
                vec!["yat skipped".to_string(), report.yat_skipped.to_string()],
                vec![
                    "fingerprint".to_string(),
                    format!("{:016x}", report.fingerprint),
                ],
                vec![
                    "divergences".to_string(),
                    report.divergences.len().to_string(),
                ],
            ];
            if let Some(stats) = &report.repair {
                rows.push(vec![
                    "repaired".to_string(),
                    format!("{}/{}", stats.repaired(), stats.attempted()),
                ]);
            }
            print!(
                "{}",
                jaaru_bench::table::render(&["metric", "value"], &rows)
            );
            for d in &report.divergences {
                println!("DIVERGENCE: {d}");
            }
            for repro in &minimized {
                println!(
                    "minimized {}: {} op(s), axis {}",
                    repro.name,
                    repro.program.ops.len(),
                    repro.axis
                );
            }
            if opts.harvest {
                println!("harvested {} reproducer(s)", harvested.len());
            }
            if let Some(stats) = &report.repair {
                for row in &stats.classes {
                    if row.attempted > 0 {
                        println!(
                            "repair {}: {}/{} verified",
                            row.class, row.repaired, row.attempted
                        );
                    }
                }
                for class in stats.unrepairable() {
                    println!("UNREPAIRABLE: seeded {class} fault(s) survived repair");
                }
            }
            if report.is_clean() {
                println!("VERDICT: all oracles agree on every seed");
            } else {
                println!(
                    "VERDICT: {} divergence(s); reproducers above",
                    report.divergences.len()
                );
            }
        }
    }
    let repair_ok = report
        .repair
        .as_ref()
        .is_none_or(|s| s.unrepairable().is_empty());
    i32::from(!report.is_clean() || !repair_ok)
}

/// Litmus-subcommand options drained from the remaining arguments.
struct LitmusOpts {
    corpus: bool,
    sweep: bool,
    bound: SweepBound,
}

fn parse_litmus_opts(args: &[String]) -> LitmusOpts {
    let mut opts = LitmusOpts {
        corpus: true,
        sweep: true,
        bound: SweepBound::default(),
    };
    let mut it = args.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // An optional leading mode restricts the run to one half.
            "corpus" if first => opts.sweep = false,
            "sweep" if first => opts.corpus = false,
            "--max-threads" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.bound.max_threads = n,
                None => usage(),
            },
            "--max-ops" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.bound.max_ops_per_thread = n,
                None => usage(),
            },
            "--max-total" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.bound.max_total_ops = n,
                None => usage(),
            },
            _ => usage(),
        }
        first = false;
    }
    opts
}

/// The `litmus` subcommand: the Px86 conformance harness. Runs the
/// named corpus (paper litmus tests with pinned verdicts under both
/// the operational machine and the axiomatic reference checker) and/or
/// the exhaustive conformance sweep. Output is deterministic —
/// byte-identical across runs and `--jobs` settings. Exit 1 on any
/// corpus failure or unexplained divergence.
fn litmus(opts: LitmusOpts, jobs: usize, format: Format) -> i32 {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    };
    let corpus = opts.corpus.then(run_corpus_report);
    let sweep = opts.sweep.then(|| run_sweep(&opts.bound, jobs, None));
    match format {
        Format::Json | Format::Artifact(ArtifactFormat::JsonCanonical) => match (&corpus, &sweep) {
            (Some(c), Some(s)) => {
                // Both halves in one object, each renderer's bytes kept
                // verbatim (indented one level).
                let indent = |s: &str| s.trim_end().replace('\n', "\n  ");
                print!(
                    "{{\n  \"corpus\": {},\n  \"sweep\": {}\n}}\n",
                    indent(&c.to_json()),
                    indent(&s.to_json())
                );
            }
            (Some(c), None) => print!("{}", c.to_json()),
            (None, Some(s)) => print!("{}", s.to_json()),
            (None, None) => unreachable!("one mode always selected"),
        },
        Format::Text | Format::Artifact(ArtifactFormat::Sarif) => {
            if let Some(c) = &corpus {
                println!("== litmus corpus ==");
                print!("{}", c.to_text());
            }
            if let Some(s) = &sweep {
                println!("== litmus sweep ==");
                print!("{}", s.to_text());
            }
            let clean = corpus.as_ref().is_none_or(|c| c.is_clean())
                && sweep.as_ref().is_none_or(|s| s.is_clean());
            if clean {
                println!("VERDICT: operational and axiomatic checkers agree");
            } else {
                println!("VERDICT: conformance failures above");
            }
        }
    }
    let clean =
        corpus.as_ref().is_none_or(|c| c.is_clean()) && sweep.as_ref().is_none_or(|s| s.is_clean());
    i32::from(!clean)
}

/// The `serve` subcommand: stand the daemon up on a socket, or run a
/// batch file of request lines for CI.
fn serve(args: &[String], jobs: usize, snapshots: bool) -> i32 {
    let mut socket: Option<PathBuf> = None;
    let mut batch: Option<PathBuf> = None;
    let mut opts = ServeOptions {
        default_jobs: jobs,
        ..ServeOptions::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(path) => socket = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--batch" => match it.next() {
                Some(path) => batch = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--queue-cap" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.queue_cap = n,
                None => usage(),
            },
            "--result-cap" => match it.next().and_then(|a| a.parse().ok()) {
                Some(n) => opts.result_cap = n,
                None => usage(),
            },
            _ => usage(),
        }
    }
    if !snapshots {
        eprintln!("serve requires snapshots (drop --no-snapshot)");
        return 2;
    }
    let d = Arc::new(Daemon::new(opts));
    match (socket, batch) {
        (None, Some(file)) => {
            let input = match std::fs::read_to_string(&file) {
                Ok(input) => input,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", file.display());
                    return 2;
                }
            };
            match daemon::run_batch(&d, &input, &mut std::io::stdout()) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("batch run failed: {e}");
                    3
                }
            }
        }
        (Some(path), None) => {
            // A stale socket file from a previous run would make bind fail.
            let _ = std::fs::remove_file(&path);
            let listener = match std::os::unix::net::UnixListener::bind(&path) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("cannot bind {}: {e}", path.display());
                    return 2;
                }
            };
            eprintln!("jaaru-serve listening on {}", path.display());
            let result = daemon::serve(d, listener);
            let _ = std::fs::remove_file(&path);
            match result {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("serve loop failed: {e}");
                    3
                }
            }
        }
        _ => {
            eprintln!("serve requires exactly one of --socket PATH or --batch FILE");
            2
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = 1usize;
    let jobs_at = args.iter().position(|a| a == "--jobs" || a == "-j");
    if let Some(pos) = jobs_at {
        let Some(n) = args.get(pos + 1).and_then(|a| a.parse().ok()) else {
            usage()
        };
        jobs = n;
        args.drain(pos..=pos + 1);
    }
    let mut format = Format::Text;
    let format_at = args.iter().position(|a| a == "--format" || a == "-f");
    if let Some(pos) = format_at {
        format = match args.get(pos + 1).map(String::as_str) {
            Some("text") => Format::Text,
            Some("json") => Format::Json,
            Some("json-canonical") => Format::Artifact(ArtifactFormat::JsonCanonical),
            Some("sarif") => Format::Artifact(ArtifactFormat::Sarif),
            _ => usage(),
        };
        args.drain(pos..=pos + 1);
    }
    let mut snapshots = true;
    if let Some(pos) = args.iter().position(|a| a == "--no-snapshot") {
        snapshots = false;
        args.remove(pos);
    }
    // A global option the subcommand never reads is a usage error, not a
    // silent no-op.
    let ignored = match args.first().map(String::as_str) {
        Some("list") => jobs_at.is_some() || format_at.is_some() || !snapshots,
        Some("fuzz" | "litmus") => !snapshots || format == Format::Artifact(ArtifactFormat::Sarif),
        Some("perf" | "serve") => format_at.is_some(),
        _ => false,
    };
    if ignored {
        usage()
    }
    let code = match args.first().map(String::as_str) {
        Some("list") if args.len() == 1 => {
            println!("fixed benchmarks (check / lint):");
            for (name, _) in fixed_cases(4) {
                println!("  {name}");
            }
            println!("recipe bug rows (bug recipe N / lint recipe N):");
            for case in recipe_bug_cases(4) {
                println!("  {:2}  {:<11} {}", case.id, case.benchmark, case.cause);
            }
            println!("pmdk bug rows (bug pmdk N / lint pmdk N):");
            for case in pmdk_bug_cases(4) {
                println!("  {:2}  {:<15} {}", case.id, case.benchmark, case.cause);
            }
            println!("lockfree bug rows (bug lockfree N / lint lockfree N):");
            for case in lockfree_bug_cases() {
                println!("  {:2}  {:<15} {}", case.id, case.benchmark, case.cause);
            }
            0
        }
        Some(cmd @ ("check" | "bug" | "lint" | "repair")) => {
            let kind = match cmd {
                "check" => JobKind::Check,
                "bug" => JobKind::Bug,
                "lint" => JobKind::Lint,
                _ => JobKind::Repair,
            };
            let target = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            match target {
                // `bug|lint|repair <suite> <row#>`: one bug-table row.
                suite @ ("recipe" | "pmdk" | "lockfree") if kind != JobKind::Check => {
                    let id: usize = args
                        .get(2)
                        .and_then(|a| a.parse().ok())
                        .unwrap_or_else(|| usage());
                    let keys = keys_arg(&args, 3, 5);
                    let cases = match suite {
                        "recipe" => recipe_bug_cases(keys),
                        "pmdk" => pmdk_bug_cases(keys),
                        _ => lockfree_bug_cases(),
                    };
                    match cases.into_iter().find(|c| c.id == id) {
                        Some(case) => {
                            if format == Format::Text {
                                println!(
                                    "cause: {}\npaper symptom: {}",
                                    case.cause, case.paper_symptom
                                );
                            }
                            let name = format!("{suite} row {id}: {}", case.benchmark);
                            run(kind, &name, &*case.program, jobs, format, snapshots)
                        }
                        None => {
                            eprintln!("no row {id} in {suite}; try `jaaru_cli list`");
                            2
                        }
                    }
                }
                // `check|lint|repair <benchmark>`: a fixed configuration
                // by name.
                name if kind != JobKind::Bug => match find_fixed(name, keys_arg(&args, 2, 6)) {
                    Some((name, program)) => run(kind, name, &*program, jobs, format, snapshots),
                    None => {
                        eprintln!("unknown benchmark {name:?}; try `jaaru_cli list`");
                        2
                    }
                },
                _ => usage(),
            }
        }
        Some("fuzz") => fuzz(parse_fuzz_opts(&args[1..]), jobs, format),
        Some("litmus") => litmus(parse_litmus_opts(&args[1..]), jobs, format),
        Some("serve") => serve(&args[1..], jobs, snapshots),
        Some("perf") => {
            let mut config = one_shot_config(JobKind::Check, jobs);
            config.snapshots(snapshots);
            for (name, program) in recipe_fixed_cases(keys_arg(&args, 1, 8)) {
                let report = ModelChecker::new(config.clone()).check(&*program);
                println!("{name:<11} {}", report.summary());
            }
            0
        }
        _ => usage(),
    };
    std::process::exit(code);
}

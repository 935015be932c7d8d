//! Conformance-sweep throughput bench: how fast the paired
//! operational/axiomatic check chews through the canonical program
//! space. Emits `BENCH_litmus.json` so later DPOR work (ROADMAP
//! item 3) has a conformance-cost baseline to compare against.
//!
//! Run with `cargo bench -p jaaru-litmus`.

use std::time::Instant;

use jaaru_litmus::sweep::{run_sweep, SweepBound};

fn main() {
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm-up / correctness guard on a small bound.
    let warm = run_sweep(
        &SweepBound {
            max_threads: 2,
            max_ops_per_thread: 2,
            max_total_ops: 2,
        },
        jobs,
        None,
    );
    assert!(
        warm.is_clean(),
        "warm-up sweep diverged:\n{}",
        warm.to_text()
    );

    // The measured run: the default CI bound.
    let bound = SweepBound::default();
    let start = Instant::now();
    let report = run_sweep(&bound, jobs, None);
    let wall = start.elapsed();
    assert!(
        report.is_clean(),
        "default-bound sweep diverged:\n{}",
        report.to_text()
    );

    let programs_per_sec = report.programs as f64 / wall.as_secs_f64();
    println!(
        "litmus sweep: {} programs in {:.2}s ({:.0} programs/s, {} jobs, fingerprint {:016x})",
        report.programs,
        wall.as_secs_f64(),
        programs_per_sec,
        jobs,
        report.fingerprint
    );

    let json = format!(
        "{{\n  \"bench\": \"litmus_sweep\",\n  \"max_threads\": {},\n  \
         \"max_ops_per_thread\": {},\n  \"max_total_ops\": {},\n  \
         \"programs\": {},\n  \"skipped_symmetric\": {},\n  \
         \"jobs\": {},\n  \"wall_seconds\": {:.3},\n  \
         \"programs_per_sec\": {:.1},\n  \"clean\": {},\n  \
         \"fingerprint\": \"{:016x}\"\n}}\n",
        bound.max_threads,
        bound.max_ops_per_thread,
        bound.max_total_ops,
        report.programs,
        report.skipped_symmetric,
        jobs,
        wall.as_secs_f64(),
        programs_per_sec,
        report.is_clean(),
        report.fingerprint
    );
    std::fs::write("BENCH_litmus.json", &json).expect("write BENCH_litmus.json");
    println!("wrote BENCH_litmus.json");
}

//! # Jaaru: an efficient model checker for persistent-memory programs
//!
//! A Rust reproduction of *Jaaru: Efficiently Model Checking Persistent
//! Memory Programs* (Gorjiara, Xu, Demsky; ASPLOS 2021). Jaaru
//! exhaustively explores the crash states of a persistent-memory (PM)
//! program: it simulates the x86-TSO persistency semantics (store
//! buffers, flush buffers, `clflush`/`clflushopt`/`clwb`, `sfence`/
//! `mfence`), injects power failures immediately before every
//! cache-flush operation, and runs the program's recovery against every
//! *equivalence class* of post-failure memory states.
//!
//! The key idea is **constraint refinement**: instead of eagerly
//! enumerating the exponentially many post-failure states (the Yat
//! approach), Jaaru tracks, per cache line, the *interval* in which the
//! line's most recent writeback may have occurred, lazily enumerates only
//! the stores that post-failure loads actually read, and narrows the
//! interval with every committed read. Combined with the common *commit
//! store* idiom this reduces model checking from exponential to quadratic
//! in the execution length.
//!
//! ## Writing a program under test
//!
//! Guest programs are written against the [`PmEnv`] trait (this
//! reproduction's stand-in for the original's LLVM instrumentation pass)
//! and must be deterministic. Recovery is expressed the way real PM
//! programs express it: the program re-runs from the top and inspects its
//! persistent state.
//!
//! ```
//! use jaaru::{check, PmEnv};
//!
//! // A crash-consistent "commit store" pattern (paper, Figure 4).
//! let program = |env: &dyn PmEnv| {
//!     let commit = env.root();
//!     let data = commit + 64; // separate cache line
//!     if env.load_u64(commit) != 0 {
//!         // Recovery: the commit store guarantees data is persistent.
//!         env.pm_assert(env.load_u64(data) == 42, "committed data lost");
//!         return;
//!     }
//!     env.store_u64(data, 42);
//!     env.persist(data, 8); // clflush + sfence
//!     env.store_u64(commit, 1);
//!     env.persist(commit, 8);
//! };
//!
//! let report = check(&program);
//! assert!(report.is_clean());
//! println!("{}", report.summary());
//! ```
//!
//! Remove the first `persist` and the checker reports the lost-data
//! assertion together with the racy load and every store it could have
//! read from — the paper's missing-flush debugging aid.
//!
//! ## Crate layout
//!
//! * [`PmEnv`] — the instrumented guest interface ([`NativeEnv`] is the
//!   uninstrumented baseline).
//! * [`ModelChecker`], [`Config`], [`check`] — exploration driver.
//! * [`CheckReport`], [`BugReport`], [`RaceReport`] — results.
//! * [`litmus`] — exhaustive interleaving exploration for TSO semantics
//!   validation (Table 1 probes).
//! * The Px86sim simulation itself lives in the `jaaru-tso` crate; the
//!   PM substrate (pools, addresses) in `jaaru-pmem`.

mod checker_env;
mod config;
mod decision;
mod env;
mod explorer;
mod lint;
pub mod litmus;
mod native;
mod parallel;
mod program;
mod repair;
mod report;
mod signal;
mod snapshot;

pub use config::{Config, Lints};
pub use decision::ForeignTrace;
pub use env::PmEnv;
pub use explorer::{check, ModelChecker};
pub use native::NativeEnv;
pub use program::{Named, Program};
pub use repair::{synthesize_repair, RepairDriver, RepairOutcome, RepairedProgram};
pub use report::{
    BugKind, BugReport, CheckReport, CheckStats, ParallelStats, RaceReport, SliceSummary,
    StoreSite, WorkerStats,
};
pub use signal::with_quiet_panics;

// The unified diagnostic framework (lint findings + perf warnings),
// its SARIF 2.1.0 rendering, and the shared JSON string escaper.
pub use jaaru_analysis::{
    json_string, minimize_edits, to_sarif, to_sarif_with_verified, Diagnostic, DiagnosticKind,
    DiagnosticSet, FixEdit, Severity,
};

// Crash-point checkpoint counters, surfaced through `CheckReport::snapshots`.
pub use jaaru_snapshot::SnapshotStats;

// Re-exports for downstream crates (baselines, workloads, benches).
pub use jaaru_pmem::{CacheLineId, PmAddr, PmError, PmPool, CACHE_LINE_SIZE, NULL_PAGE_SIZE};
pub use jaaru_tso::EvictionPolicy;

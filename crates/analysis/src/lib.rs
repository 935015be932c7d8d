//! # jaaru-analysis: the persistency lint engine
//!
//! A constraint-based analysis layer over the Jaaru model checker's
//! recorded operation traces, in the spirit of *Automated Insertion of
//! Flushes and Fences for Persistency* (Guo, Luo, Demsky): instead of
//! only reporting crash *symptoms*, the checker can pinpoint the exact
//! store missing a flush or fence and propose the fix site.
//!
//! The engine is layered on one shared substrate:
//!
//! 1. **The persist-order constraint graph** ([`PersistGraph`]): one
//!    replay of the Figure 7/8 buffer rules lifts a recorded
//!    [`OpTrace`](jaaru_tso::OpTrace) into per-store, per-line persist
//!    facts (the flush that covered each line, and the flush, fence or
//!    eager cross-thread drain at which it persisted) and vector-clock
//!    happens-before reachability, built on the first query. Every
//!    pass below queries the graph instead of re-walking the trace.
//! 2. **Commit-store inference + robustness checking**
//!    ([`analyze_trace`], [`robustness_candidates`]): identifies the
//!    flushed-and-fenced guard-store idiom (commit stores) and emits a
//!    [`Candidate`] for every store that can reach a commit store
//!    unpersisted — classified as `MissingFlush`, `MissingFence` or
//!    `FlushNotFenced`, each with a concrete fix suggestion. A
//!    candidate keeps the sites its suggestion names ([`Cause`]) and
//!    renders the text only when it becomes a [`Diagnostic`].
//! 3. **Cross-thread and torn-store passes** ([`cross_thread_races`],
//!    [`torn_candidates`]): stores whose flush/fence chain spans
//!    threads without a synchronizing edge, and straddling stores
//!    whose line halves persist independently across a crash point.
//! 4. **The flush-redundancy performance passes**
//!    ([`flush_redundancy`], [`dead_flushes`]): same-line re-flushes
//!    with no intervening store, fences over empty buffers, flushes
//!    before any store, and flushes of lines no recovery execution
//!    reads (the footprint comes from the exploration itself).
//! 5. **Bug localization** ([`localize`]): when exploration finds a
//!    bug, candidates are confirmed against the failing scenario's
//!    read-from evidence — the racy loads and the stores they could
//!    have read. A confirmed candidate is the root cause of the
//!    observed symptom; confirmed candidates fold by `(kind, site)`,
//!    so a diagnostic is built once per finding.
//! 6. **The diagnostic framework** ([`Diagnostic`], [`DiagnosticSet`])
//!    and its renderings: the unified finding type (kind, severity,
//!    site, rendered message, typed edit, occurrences), the single
//!    deduplicating accumulation path used by both the sequential
//!    explorer and the parallel merge, and SARIF 2.1.0 output
//!    ([`to_sarif`]) for CI consumption.
//! 7. **Typed repair edits** ([`FixEdit`], [`minimize_edits`]): every
//!    error-class diagnostic carries a machine-applicable edit —
//!    insert flush, insert fence, delete flush — at its source site,
//!    and the delta-debugging reducer shrinks a candidate edit set to
//!    a 1-minimal repair against any verification oracle. The repair
//!    *driver* (apply edits, re-check, prove) lives in the checker
//!    core (`jaaru::repair`), which owns program execution.
//!
//! This crate is deliberately independent of the checker core: it
//! depends only on the trace and address types, so the same analysis
//! can run over traces from any producer.

mod diagnostic;
mod graph;
mod json;
mod localize;
mod perf;
mod races;
mod repair;
mod robust;
mod sarif;
mod site_key;

pub use diagnostic::{Diagnostic, DiagnosticKind, DiagnosticSet, Severity};
pub use graph::{FlushRef, LinePersist, PersistGraph, StoreNode};
pub use json::json_string;
pub use localize::{localize, RfEvidence};
pub use perf::{dead_flushes, flush_redundancy};
pub use races::{cross_thread_races, recovery_read_lines, torn_candidates};
pub use repair::{minimize_edits, FixEdit};
pub use robust::{analyze_trace, robustness_candidates, Candidate, Cause};
pub use sarif::{to_sarif, to_sarif_with_verified};
pub use site_key::{SiteHash, SiteKey};

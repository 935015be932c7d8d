//! The exhaustive conformance sweep: every small program up to a
//! bound, checked under both the operational machine and the axiomatic
//! reference checker.
//!
//! ## Program space and canonicalization
//!
//! The vocabulary is the full litmus op set — store, load, `clflush`,
//! `clflushopt`, `clwb`, locked RMW over two cache lines (`x` = 64,
//! `y` = 128), plus `sfence` and `mfence`: 14 tokens. Store and RMW
//! values are assigned automatically (1, 2, 3, … in scan order) so
//! every reads-from edge is value-unambiguous.
//!
//! Two symmetries are quotiented during generation, each sound because
//! both checkers commute with the renaming:
//!
//! - **thread order**: per-thread op sequences are generated in
//!   non-decreasing lexicographic order;
//! - **line renaming**: a program whose `x↔y`-swapped, re-sorted form
//!   is lexicographically smaller is skipped (the representative was
//!   already generated).
//!
//! ## Bound
//!
//! The default bound is ≤ 2 threads, ≤ 4 ops per thread and ≤ 4 ops in
//! total. The total cap is the tractability cut: the 14-token
//! vocabulary gives `14^k` sequences per thread shape, so exhausting
//! all 8-op two-thread programs (~10⁹ candidates) is out of reach for
//! a CI job, while everything with ≤ 4 total ops (~10⁵ programs after
//! canonicalization) completes in seconds. Deeper bounds are reachable
//! through [`SweepBound`] from the CLI.
//!
//! ## Determinism
//!
//! The report carries no wall-clock and the program list is generated
//! in a fixed order; parallel execution chunks that list contiguously
//! and merges results in chunk order, so the report — and its
//! fingerprint — is byte-identical across `--jobs` settings.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::ax::{AxOp, AxOutcome, AxProgram};
use crate::conform::{self, render_program, Verdict};

/// Size bound of one exhaustive sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepBound {
    /// Maximum thread count (default 2).
    pub max_threads: usize,
    /// Maximum ops in any single thread (default 4).
    pub max_ops_per_thread: usize,
    /// Maximum ops across all threads (default 4) — the tractability
    /// cut over the 14-token vocabulary.
    pub max_total_ops: usize,
}

impl Default for SweepBound {
    fn default() -> Self {
        SweepBound {
            max_threads: 2,
            max_ops_per_thread: 4,
            max_total_ops: 4,
        }
    }
}

/// One divergence found by a sweep, fully rendered for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergenceRecord {
    /// The minimized counterexample program.
    pub program: String,
    /// Outcomes only the operational machine produces.
    pub operational_only: Vec<String>,
    /// Outcomes only the axiomatic checker allows.
    pub axiomatic_only: Vec<String>,
    /// Documented reason when the divergence is intentional.
    pub allowlisted: Option<String>,
}

/// The result of one exhaustive sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// The bound swept.
    pub bound: SweepBound,
    /// Programs checked (after canonicalization).
    pub programs: u64,
    /// Programs skipped as line-renaming duplicates of a checked one.
    pub skipped_symmetric: u64,
    /// Distinct minimized divergences, in first-occurrence order.
    pub divergences: Vec<DivergenceRecord>,
    /// How many of those divergences are allowlisted.
    pub allowlisted: u64,
    /// Order-independent FNV fold over per-program verdicts: identical
    /// across `--jobs` settings, changes iff any verdict changes.
    pub fingerprint: u64,
}

impl SweepReport {
    /// Clean = no divergence, or every divergence allowlisted.
    pub fn is_clean(&self) -> bool {
        self.divergences.len() as u64 == self.allowlisted
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep: {} program(s) checked (≤{} threads, ≤{} ops/thread, ≤{} total), \
             {} symmetric skip(s), fingerprint {:016x}",
            self.programs,
            self.bound.max_threads,
            self.bound.max_ops_per_thread,
            self.bound.max_total_ops,
            self.skipped_symmetric,
            self.fingerprint,
        );
        if self.divergences.is_empty() {
            let _ = writeln!(out, "no divergences: operational ≡ axiomatic on this bound");
        }
        for d in &self.divergences {
            let _ = writeln!(out, "DIVERGENCE: {}", d.program);
            for o in &d.operational_only {
                let _ = writeln!(out, "  operational-only: {o}");
            }
            for o in &d.axiomatic_only {
                let _ = writeln!(out, "  axiomatic-only:   {o}");
            }
            match &d.allowlisted {
                Some(reason) => {
                    let _ = writeln!(out, "  allowlisted: {reason}");
                }
                None => {
                    let _ = writeln!(out, "  UNEXPLAINED");
                }
            }
        }
        out
    }

    /// Machine-readable report. Deliberately free of wall-clock:
    /// byte-identical across runs and `--jobs` settings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"max_threads\": {},", self.bound.max_threads);
        let _ = writeln!(
            out,
            "  \"max_ops_per_thread\": {},",
            self.bound.max_ops_per_thread
        );
        let _ = writeln!(out, "  \"max_total_ops\": {},", self.bound.max_total_ops);
        let _ = writeln!(out, "  \"programs\": {},", self.programs);
        let _ = writeln!(out, "  \"skipped_symmetric\": {},", self.skipped_symmetric);
        let _ = writeln!(out, "  \"allowlisted\": {},", self.allowlisted);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", self.fingerprint);
        let _ = writeln!(out, "  \"divergences\": [");
        for (i, d) in self.divergences.iter().enumerate() {
            let comma = if i + 1 < self.divergences.len() {
                ","
            } else {
                ""
            };
            let ops: Vec<String> = d
                .operational_only
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect();
            let axs: Vec<String> = d
                .axiomatic_only
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect();
            let allow = match &d.allowlisted {
                Some(r) => format!("\"{r}\""),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"program\": \"{}\", \"operational_only\": [{}], \
                 \"axiomatic_only\": [{}], \"allowlisted\": {}}}{comma}",
                d.program,
                ops.join(", "),
                axs.join(", "),
                allow
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// The 14-token sweep vocabulary over two lines (0 → `x`, 1 → `y`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Tok {
    St(u8),
    Ld(u8),
    Fl(u8),
    Fo(u8),
    Wb(u8),
    Rmw(u8),
    Sf,
    Mf,
}

const VOCAB: [Tok; 14] = [
    Tok::St(0),
    Tok::St(1),
    Tok::Ld(0),
    Tok::Ld(1),
    Tok::Fl(0),
    Tok::Fl(1),
    Tok::Fo(0),
    Tok::Fo(1),
    Tok::Wb(0),
    Tok::Wb(1),
    Tok::Rmw(0),
    Tok::Rmw(1),
    Tok::Sf,
    Tok::Mf,
];

fn addr(line: u8) -> u64 {
    (line as u64 + 1) * 64
}

/// Swaps the two lines of a token (`x↔y` renaming).
fn swap_line(t: Tok) -> Tok {
    match t {
        Tok::St(l) => Tok::St(1 - l),
        Tok::Ld(l) => Tok::Ld(1 - l),
        Tok::Fl(l) => Tok::Fl(1 - l),
        Tok::Fo(l) => Tok::Fo(1 - l),
        Tok::Wb(l) => Tok::Wb(1 - l),
        Tok::Rmw(l) => Tok::Rmw(1 - l),
        Tok::Sf => Tok::Sf,
        Tok::Mf => Tok::Mf,
    }
}

/// Converts canonical token threads into an [`AxProgram`], assigning
/// distinct store/RMW values 1, 2, 3, … in scan order.
fn to_ax(threads: &[Vec<Tok>]) -> AxProgram {
    let mut next_val = 0u8;
    let threads = threads
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|&t| match t {
                    Tok::St(l) => {
                        next_val += 1;
                        AxOp::Store(addr(l), next_val)
                    }
                    Tok::Ld(l) => AxOp::Load(addr(l)),
                    Tok::Fl(l) => AxOp::Clflush(addr(l)),
                    Tok::Fo(l) => AxOp::Clflushopt(addr(l)),
                    Tok::Wb(l) => AxOp::Clwb(addr(l)),
                    Tok::Rmw(l) => {
                        next_val += 1;
                        AxOp::Rmw(addr(l), next_val)
                    }
                    Tok::Sf => AxOp::Sfence,
                    Tok::Mf => AxOp::Mfence,
                })
                .collect()
        })
        .collect();
    AxProgram { threads }
}

/// Generates the canonical program list for `bound`, in a fixed order,
/// plus the count of line-symmetric programs skipped.
fn generate(bound: &SweepBound) -> (Vec<AxProgram>, u64) {
    // All per-thread sequences up to the length cap, sorted so thread
    // multisets can be generated in non-decreasing order.
    let max_len = bound.max_ops_per_thread.min(bound.max_total_ops);
    let mut seqs: Vec<Vec<Tok>> = Vec::new();
    let mut stack = vec![Vec::new()];
    while let Some(s) = stack.pop() {
        if !s.is_empty() {
            seqs.push(s.clone());
        }
        if s.len() < max_len {
            for &t in VOCAB.iter() {
                let mut s2 = s.clone();
                s2.push(t);
                stack.push(s2);
            }
        }
    }
    seqs.sort();

    let mut programs = Vec::new();
    let mut skipped = 0u64;
    // Non-decreasing multisets of sequences, bounded by thread count
    // and total op budget.
    fn pick(
        seqs: &[Vec<Tok>],
        from: usize,
        budget: usize,
        slots: usize,
        acc: &mut Vec<Vec<Tok>>,
        programs: &mut Vec<AxProgram>,
        skipped: &mut u64,
    ) {
        if !acc.is_empty() {
            // Canonical-form filter: skip when the line-swapped,
            // re-sorted twin is strictly smaller — it was (or will be)
            // generated on its own.
            let mut swapped: Vec<Vec<Tok>> = acc
                .iter()
                .map(|t| t.iter().map(|&x| swap_line(x)).collect())
                .collect();
            swapped.sort();
            if swapped < *acc {
                *skipped += 1;
            } else {
                programs.push(to_ax(acc));
            }
        }
        if slots == 0 || budget == 0 {
            return;
        }
        for i in from..seqs.len() {
            if seqs[i].len() > budget {
                continue;
            }
            acc.push(seqs[i].clone());
            pick(
                seqs,
                i,
                budget - seqs[i].len(),
                slots - 1,
                acc,
                programs,
                skipped,
            );
            acc.pop();
        }
    }
    let mut acc = Vec::new();
    pick(
        &seqs,
        0,
        bound.max_total_ops,
        bound.max_threads,
        &mut acc,
        &mut programs,
        &mut skipped,
    );
    (programs, skipped)
}

/// Renders one outcome for reports: `regs=[[0],[1]] mem=[x=1 y=0]`.
fn render_outcome(o: &AxOutcome) -> String {
    let mut out = String::from("regs=[");
    for (i, r) in o.regs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let vals: Vec<String> = r.iter().map(|v| v.to_string()).collect();
        let _ = write!(out, "[{}]", vals.join(" "));
    }
    out.push_str("] mem=[");
    for (i, (a, v)) in o.mem.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let name = match a {
            64 => "x".to_string(),
            128 => "y".to_string(),
            _ => format!("@{a}"),
        };
        let _ = write!(out, "{name}={v}");
    }
    out.push(']');
    out
}

/// FNV-1a 64-bit, the repo's standard cheap fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the exhaustive sweep at `bound` on `jobs` worker threads.
///
/// The returned report is byte-identical for any `jobs ≥ 1`: programs
/// are generated in a fixed order, chunked contiguously, and results
/// merged in chunk order, with an order-independent XOR fingerprint.
///
/// `stop`, when given, is checked between programs: once it is raised
/// every worker ends early, and the report covers (and its `programs`
/// counts) only the programs checked.
pub fn run_sweep(bound: &SweepBound, jobs: usize, stop: Option<&AtomicBool>) -> SweepReport {
    let (programs, skipped_symmetric) = generate(bound);
    let jobs = jobs.max(1).min(programs.len().max(1));
    let chunk_size = programs.len().div_ceil(jobs);

    struct ChunkResult {
        checked: u64,
        divergences: Vec<DivergenceRecord>,
        fingerprint: u64,
    }

    let check_chunk = |chunk: &[AxProgram]| -> ChunkResult {
        let mut checked = 0;
        let mut divergences = Vec::new();
        let mut fingerprint = 0u64;
        for p in chunk {
            if stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
                break;
            }
            checked += 1;
            let rendered = render_program(p);
            let verdict = conform::check(p);
            let tag = match &verdict {
                Verdict::Match => "ok".to_string(),
                Verdict::Diverge(d) => format!("diverge:{}", render_program(&d.program)),
            };
            fingerprint ^= fnv1a(format!("{rendered}|{tag}").as_bytes());
            if let Verdict::Diverge(d) = verdict {
                divergences.push(DivergenceRecord {
                    program: render_program(&d.program),
                    operational_only: d.operational_only.iter().map(render_outcome).collect(),
                    axiomatic_only: d.axiomatic_only.iter().map(render_outcome).collect(),
                    allowlisted: d.allowlisted.map(str::to_string),
                });
            }
        }
        ChunkResult {
            checked,
            divergences,
            fingerprint,
        }
    };

    let results: Vec<ChunkResult> = if jobs <= 1 {
        vec![check_chunk(&programs)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = programs
                .chunks(chunk_size)
                .map(|chunk| scope.spawn(move || check_chunk(chunk)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    // Merge in chunk order; dedup identical minimized counterexamples
    // (many source programs can shrink to the same core).
    let mut divergences: Vec<DivergenceRecord> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut fingerprint = 0u64;
    let mut checked = 0;
    for r in results {
        checked += r.checked;
        fingerprint ^= r.fingerprint;
        for d in r.divergences {
            if seen.insert(d.program.clone()) {
                divergences.push(d);
            }
        }
    }
    let allowlisted = divergences
        .iter()
        .filter(|d| d.allowlisted.is_some())
        .count() as u64;
    SweepReport {
        bound: *bound,
        programs: checked,
        skipped_symmetric,
        divergences,
        allowlisted,
        fingerprint,
    }
}

/// The number of programs the sweep would check at `bound`, without
/// checking them (for reports and the bench).
pub fn program_count(bound: &SweepBound) -> (u64, u64) {
    let (programs, skipped) = generate(bound);
    (programs.len() as u64, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_clean_and_jobs_invariant() {
        let bound = SweepBound {
            max_threads: 2,
            max_ops_per_thread: 2,
            max_total_ops: 2,
        };
        let one = run_sweep(&bound, 1, None);
        assert!(one.is_clean(), "{}", one.to_text());
        let two = run_sweep(&bound, 2, None);
        let four = run_sweep(&bound, 4, None);
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one.to_json(), four.to_json());
    }

    /// Deep manual validation, not part of CI: one bound past the
    /// default (≈ 14× the programs). Run with
    /// `cargo test -p jaaru-litmus --release -- --ignored deep_sweep`.
    #[test]
    #[ignore = "manual deep validation; ~15 min in release"]
    fn deep_sweep_total_five_is_clean() {
        let bound = SweepBound {
            max_threads: 2,
            max_ops_per_thread: 5,
            max_total_ops: 5,
        };
        let report = run_sweep(&bound, 4, None);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn generation_is_canonical() {
        let bound = SweepBound {
            max_threads: 2,
            max_ops_per_thread: 1,
            max_total_ops: 2,
        };
        let (programs, skipped) = generate(&bound);
        // 14 singles − 6 line-swapped singles (St(1), Ld(1), Fl(1),
        // Fo(1), Wb(1), Rmw(1) canonicalize to their line-0 twin) = 8,
        // plus sorted pairs: C(14,2)+14 = 105 minus their symmetric
        // skips. Just pin the exact counts to catch generator drift.
        assert_eq!(programs.len() as u64 + skipped, 14 + 105);
        assert!(skipped > 0);
    }
}

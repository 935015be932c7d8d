//! Repair synthesis: diagnose → fix → verify.
//!
//! The lint engine attaches a typed [`FixEdit`] to every error-class
//! diagnostic (insert a flush after a store, insert a fence after a
//! flush, delete a wasted flush). This module closes the loop by
//! *applying* those edits to the recorded guest program and re-running
//! the model checker until the program is proven robust:
//!
//! 1. **Diagnose.** A baseline check collects diagnostics; their edits
//!    seed the candidate set.
//! 2. **Fix.** [`RepairedProgram`] wraps the guest in a [`PmEnv`]
//!    interposer that rewrites the operation stream in flight. An
//!    edit's site is the `&'static Location` its diagnostic named, and
//!    the interposer compares it with each operation's
//!    `Location::caller()` (`#[track_caller]`), narrowed by cache line
//!    so that interpreter-style guests (where one source line issues
//!    every store) are repaired per-line, not per-site.
//! 3. **Verify.** The fixed program is re-checked; fresh diagnostics
//!    (e.g. the inserted flush now missing a fence, or an original
//!    flush made redundant) contribute new edits for the next round,
//!    up to eight rounds. Each round can only discover edits the
//!    previous round's repair exposed, so a handful suffices.
//! 4. **Minimize.** A verified edit set is shrunk to a 1-minimal
//!    repair with [`minimize_edits`]; every probe is one more
//!    model-checking run, memoized by subset.
//!
//! A repair is reported *verified* only when its re-check finds no
//! bug, no error diagnostic, and no remaining diagnostic with an
//! applicable edit — advisory warnings without an edit (e.g. a
//! redundant fence, where deletion could unorder unseen flushes) are
//! tolerated.

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use jaaru_analysis::{json_string, minimize_edits, Diagnostic, FixEdit};
use jaaru_pmem::PmAddr;
use jaaru_tso::SourceLoc;

use crate::config::Config;
use crate::env::PmEnv;
use crate::explorer::ModelChecker;
use crate::program::Program;
use crate::report::{json_site, CheckReport};

/// The in-flight edit interposer. Forwards every [`PmEnv`] operation
/// to the wrapped environment — through `#[track_caller]`, so the
/// checker still records the *guest's* source sites — and applies
/// matching edits: a flush + fence injected after a store, a fence
/// injected after a flush, or a flush suppressed entirely. Injected
/// operations are issued from a tracked frame and therefore record at
/// the guest operation's own site, which keeps diagnostics stable
/// across repair rounds.
struct RepairEnv<'a> {
    inner: &'a dyn PmEnv,
    edits: &'a [FixEdit],
}

impl RepairEnv<'_> {
    /// The edits anchored at the guest call site `loc` whose cache-line
    /// filter admits an operation on `[addr, addr + len)`. Edits without
    /// a filter admit everything.
    fn at(&self, loc: SourceLoc, addr: PmAddr, len: usize) -> impl Iterator<Item = &FixEdit> {
        let first = addr.cache_line().index();
        let last = (addr + len.saturating_sub(1) as u64).cache_line().index();
        self.edits.iter().filter(move |e| {
            e.site() == loc
                && e.cache_line()
                    .is_none_or(|line| first <= line && line <= last)
        })
    }

    fn wants_flush_after(&self, loc: SourceLoc, addr: PmAddr, len: usize) -> bool {
        self.at(loc, addr, len)
            .any(|e| matches!(e, FixEdit::InsertFlush { .. }))
    }

    fn deletes_flush(&self, loc: SourceLoc, addr: PmAddr, len: usize) -> bool {
        self.at(loc, addr, len)
            .any(|e| matches!(e, FixEdit::DeleteFlush { .. }))
    }

    fn wants_fence_after(&self, loc: SourceLoc, addr: PmAddr, len: usize) -> bool {
        self.at(loc, addr, len)
            .any(|e| matches!(e, FixEdit::InsertFence { .. }))
    }
}

impl PmEnv for RepairEnv<'_> {
    #[track_caller]
    fn load_bytes(&self, addr: PmAddr, buf: &mut [u8]) {
        self.inner.load_bytes(addr, buf);
    }

    #[track_caller]
    fn store_bytes(&self, addr: PmAddr, bytes: &[u8]) {
        let loc = Location::caller();
        self.inner.store_bytes(addr, bytes);
        if !bytes.is_empty() && self.wants_flush_after(loc, addr, bytes.len()) {
            self.inner.clflush(addr, bytes.len());
            self.inner.sfence();
        }
    }

    #[track_caller]
    fn clflush(&self, addr: PmAddr, len: usize) {
        let loc = Location::caller();
        if self.deletes_flush(loc, addr, len) {
            return;
        }
        self.inner.clflush(addr, len);
        if self.wants_fence_after(loc, addr, len) {
            self.inner.sfence();
        }
    }

    #[track_caller]
    fn clflushopt(&self, addr: PmAddr, len: usize) {
        let loc = Location::caller();
        if self.deletes_flush(loc, addr, len) {
            return;
        }
        self.inner.clflushopt(addr, len);
        if self.wants_fence_after(loc, addr, len) {
            self.inner.sfence();
        }
    }

    #[track_caller]
    fn sfence(&self) {
        self.inner.sfence();
    }

    #[track_caller]
    fn mfence(&self) {
        self.inner.mfence();
    }

    #[track_caller]
    fn compare_exchange_u64(&self, addr: PmAddr, current: u64, new: u64) -> u64 {
        let loc = Location::caller();
        let observed = self.inner.compare_exchange_u64(addr, current, new);
        if observed == current && self.wants_flush_after(loc, addr, 8) {
            self.inner.clflush(addr, 8);
            self.inner.sfence();
        }
        observed
    }

    #[track_caller]
    fn pm_alloc(&self, size: u64, align: u64) -> PmAddr {
        self.inner.pm_alloc(size, align)
    }

    fn root(&self) -> PmAddr {
        self.inner.root()
    }

    fn pool_size(&self) -> u64 {
        self.inner.pool_size()
    }

    fn execution_index(&self) -> usize {
        self.inner.execution_index()
    }

    #[track_caller]
    fn bug(&self, msg: &str) -> ! {
        self.inner.bug(msg)
    }

    fn spawn(&self, body: &mut dyn FnMut(&dyn PmEnv)) {
        let edits = self.edits;
        self.inner.spawn(&mut |child| {
            let wrapped = RepairEnv {
                inner: child,
                edits,
            };
            body(&wrapped);
        });
    }

    fn label(&self, msg: &str) {
        self.inner.label(msg);
    }

    #[track_caller]
    fn annotate_expect_persisted(&self, addr: PmAddr, len: usize) {
        self.inner.annotate_expect_persisted(addr, len);
    }

    #[track_caller]
    fn annotate_expect_ordered(&self, a: PmAddr, a_len: usize, b: PmAddr, b_len: usize) {
        self.inner.annotate_expect_ordered(a, a_len, b, b_len);
    }

    #[track_caller]
    fn annotate_commit_var(&self, addr: PmAddr, len: usize) {
        self.inner.annotate_commit_var(addr, len);
    }
}

/// A guest program with an edit set applied in flight.
///
/// Runs the wrapped program against a `RepairEnv` interposer; with an
/// empty edit set the operation stream — including every recorded
/// source site — is identical to the unwrapped program's, so repaired
/// and original programs are directly comparable by
/// [`CheckReport::digest`].
pub struct RepairedProgram<'a> {
    inner: &'a (dyn Program + Sync),
    edits: Vec<FixEdit>,
    name: String,
}

impl<'a> RepairedProgram<'a> {
    /// Wraps `inner` with `edits`.
    pub fn new(inner: &'a (dyn Program + Sync), edits: &[FixEdit]) -> Self {
        RepairedProgram {
            inner,
            edits: edits.to_vec(),
            name: format!("repaired:{}", inner.name()),
        }
    }
}

impl Program for RepairedProgram<'_> {
    fn run(&self, env: &dyn PmEnv) {
        let wrapped = RepairEnv {
            inner: env,
            edits: &self.edits,
        };
        self.inner.run(&wrapped);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The result of a repair-synthesis run.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Name of the program that was repaired.
    pub program: String,
    /// When `verified`, the proven 1-minimal edit set; otherwise the
    /// candidate set assembled before giving up.
    pub edits: Vec<FixEdit>,
    /// Whether the edit set was proven: the re-check found no bug, no
    /// error diagnostic, and no remaining diagnostic carrying an edit.
    pub verified: bool,
    /// Diagnose→fix→re-check rounds performed (baseline excluded).
    pub rounds: usize,
    /// Total model-checking runs: baseline + rounds + minimization
    /// probes (memoized probes are not re-run and not re-counted).
    pub rechecks: u64,
    /// The baseline (unrepaired) report.
    pub baseline: CheckReport,
    /// The report for the final edit set; `None` when no edit was ever
    /// derivable (the baseline is then the only evidence).
    pub repaired: Option<CheckReport>,
    /// Every distinct diagnostic observed across all rounds,
    /// deduplicated by `(kind, site)` in first-seen order.
    pub diagnosed: Vec<Diagnostic>,
}

impl RepairOutcome {
    /// Deterministic JSON rendering: report *summaries* instead of full
    /// reports, so the bytes are identical across worker counts and
    /// cache states. Shared by `jaaru_cli repair --format json` and the
    /// serve daemon's `repair` artifact.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let summarize = |r: &CheckReport| {
            format!(
                "{{\"bugs\": {}, \"errors\": {}, \"diagnostics\": {}}}",
                r.bugs.len(),
                r.diagnostics.iter().filter(|d| d.is_error()).count(),
                r.diagnostics.len()
            )
        };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"program\": {},", json_string(&self.program));
        let _ = writeln!(out, "  \"verified\": {},", self.verified);
        let _ = writeln!(out, "  \"rounds\": {},", self.rounds);
        let _ = writeln!(out, "  \"rechecks\": {},", self.rechecks);
        let _ = writeln!(out, "  \"diagnosed\": {},", self.diagnosed.len());
        let _ = writeln!(out, "  \"edits\": [");
        for (i, e) in self.edits.iter().enumerate() {
            let comma = if i + 1 < self.edits.len() { "," } else { "" };
            let line = e
                .cache_line()
                .map_or_else(|| "null".to_string(), |l| l.to_string());
            let _ = writeln!(
                out,
                "    {{\"edit\": {}, \"site\": {}, \"cache_line\": {line}, \
                 \"action\": {}}}{comma}",
                json_string(e.kind_str()),
                json_site(e.site()),
                json_string(&e.to_string())
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"baseline\": {},", summarize(&self.baseline));
        match &self.repaired {
            Some(r) => {
                let _ = writeln!(out, "  \"repaired\": {}", summarize(r));
            }
            None => {
                let _ = writeln!(out, "  \"repaired\": null");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The bound on diagnose → edit → re-check rounds.
const REPAIR_ROUNDS: usize = 8;

/// Drives repair synthesis over a [`ModelChecker`] configuration.
/// Mirrors the checker's builder surface: an optional cooperative abort
/// flag.
pub struct RepairDriver {
    config: Config,
    abort: Option<Arc<AtomicBool>>,
}

impl RepairDriver {
    /// A driver checking with `config`. The config's lint passes decide
    /// which diagnostics — and therefore which edits — can arise.
    pub fn new(config: Config) -> Self {
        RepairDriver {
            config,
            abort: None,
        }
    }

    /// Cooperative cancellation, forwarded to every re-check.
    pub fn abort_flag(&mut self, flag: Arc<AtomicBool>) -> &mut Self {
        self.abort = Some(flag);
        self
    }

    /// Runs diagnose → fix → verify → minimize on `program`.
    pub fn synthesize(&self, program: &(dyn Program + Sync)) -> RepairOutcome {
        let mut memo: HashMap<Vec<FixEdit>, CheckReport> = HashMap::new();
        let mut rechecks: u64 = 0;
        let mut run = |edits: &[FixEdit], rechecks: &mut u64| -> CheckReport {
            if let Some(r) = memo.get(edits) {
                return r.clone();
            }
            let repaired = RepairedProgram::new(program, edits);
            let mut checker = ModelChecker::new(self.config.clone());
            if let Some(flag) = &self.abort {
                checker.abort_flag(Arc::clone(flag));
            }
            *rechecks += 1;
            let report = checker.check(&repaired);
            memo.insert(edits.to_vec(), report.clone());
            report
        };

        let baseline = run(&[], &mut rechecks);
        let mut diagnosed = Vec::new();
        absorb(&mut diagnosed, &baseline);
        if is_fixed(&baseline) {
            return RepairOutcome {
                program: program.name().to_string(),
                edits: Vec::new(),
                verified: true,
                rounds: 0,
                rechecks,
                repaired: Some(baseline.clone()),
                baseline,
                diagnosed,
            };
        }

        let mut edits = derive_edits(&baseline, &[]);
        let mut rounds = 0;
        let mut fixed = false;
        if !edits.is_empty() {
            for _ in 0..REPAIR_ROUNDS {
                rounds += 1;
                let report = run(&edits, &mut rechecks);
                absorb(&mut diagnosed, &report);
                if is_fixed(&report) {
                    fixed = true;
                    break;
                }
                let new = derive_edits(&report, &edits);
                if !new.is_empty() {
                    edits.extend(new);
                    continue;
                }
                // Stuck: still broken, but the surviving failure yields
                // no (new) diagnostic. Escalate once by widening every
                // per-line edit to its whole site — the failing scenario
                // may hinge on the same store touching a cache line no
                // diagnostic ever named (a crash killing recovery before
                // the localization pass can blame it). If everything is
                // already site-wide there is nothing left to try.
                let widened = widen_edits(&edits);
                if widened == edits {
                    break;
                }
                edits = widened;
            }
        }

        if fixed {
            edits = minimize_edits(edits, |subset| is_fixed(&run(subset, &mut rechecks)));
        }
        let repaired = memo.get(&edits).cloned();
        RepairOutcome {
            program: program.name().to_string(),
            edits,
            verified: fixed,
            rounds,
            rechecks,
            baseline,
            repaired,
            diagnosed,
        }
    }
}

/// One-shot repair synthesis: `RepairDriver::new(config).synthesize(program)`.
pub fn synthesize_repair(config: &Config, program: &(dyn Program + Sync)) -> RepairOutcome {
    RepairDriver::new(config.clone()).synthesize(program)
}

/// The repair success predicate: no bug, no error diagnostic, and no
/// remaining diagnostic with an applicable edit. Advisory warnings
/// that carry no edit (e.g. a redundant fence) are tolerated.
fn is_fixed(report: &CheckReport) -> bool {
    report.is_clean()
        && report
            .diagnostics
            .iter()
            .all(|d| !d.is_error() && d.suggestion.is_none())
}

/// Edits proposed by `report` that are not already in `known`,
/// deduplicated in diagnostic order (deterministic: the checker merges
/// diagnostics in trace order at every worker count).
fn derive_edits(report: &CheckReport, known: &[FixEdit]) -> Vec<FixEdit> {
    let mut out: Vec<FixEdit> = Vec::new();
    for d in &report.diagnostics {
        let Some(e) = &d.suggestion else { continue };
        if known.contains(e) || out.contains(e) {
            continue;
        }
        // A site resurfacing with a different cache line will never
        // converge line by line (an allocator helper touches fresh
        // lines on every call): widen to the site-wide edit instead.
        // Once the widened edit is itself known, the site has nothing
        // left to offer and the diagnostic no longer derives anything.
        let candidate = if known.iter().chain(&out).any(|k| k.same_fix(e)) {
            widen(e)
        } else {
            *e
        };
        if !known.contains(&candidate) && !out.contains(&candidate) {
            out.push(candidate);
        }
    }
    out
}

/// Widening is correctness-monotone for insertions only: a site-wide
/// flush or fence at worst costs performance, while a site-wide
/// *deletion* would remove every flush the site issues — catastrophic
/// for interpreter-style guests, where one source line emits them all.
/// Deletions therefore always stay at cache-line scope.
fn widen(e: &FixEdit) -> FixEdit {
    match e {
        FixEdit::DeleteFlush { .. } => *e,
        _ => e.generalized(),
    }
}

/// Every edit widened to site scope where that is safe, deduplicated in
/// first-seen order (several per-line edits at one site collapse into
/// one).
fn widen_edits(edits: &[FixEdit]) -> Vec<FixEdit> {
    let mut out: Vec<FixEdit> = Vec::new();
    for e in edits {
        let g = widen(e);
        if !out.contains(&g) {
            out.push(g);
        }
    }
    out
}

fn absorb(diagnosed: &mut Vec<Diagnostic>, report: &CheckReport) {
    for d in &report.diagnostics {
        if !diagnosed
            .iter()
            .any(|x| x.kind == d.kind && x.site == d.site)
        {
            diagnosed.push(d.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Lints;
    use jaaru_analysis::DiagnosticKind;

    fn lint_config() -> Config {
        let mut c = Config::new();
        c.pool_size(4096)
            .max_ops_per_execution(2_000)
            .max_scenarios(500)
            .lints(Lints::Errors);
        c
    }

    /// Commit-store idiom with the data store never flushed: recovery
    /// can observe the commit flag without the data (paper Fig. 4).
    fn missing_flush(env: &dyn PmEnv) {
        let root = env.root();
        let data = root + 64;
        if env.is_recovery() {
            if env.load_u64(root) == 1 {
                env.pm_assert(env.load_u64(data) == 42, "committed data lost");
            }
            return;
        }
        env.store_u64(data, 42);
        env.store_u64(root, 1);
        env.clflush(root, 8);
        env.sfence();
    }

    /// Same shape, correctly persisted.
    fn robust(env: &dyn PmEnv) {
        let root = env.root();
        let data = root + 64;
        if env.is_recovery() {
            if env.load_u64(root) == 1 {
                env.pm_assert(env.load_u64(data) == 42, "committed data lost");
            }
            return;
        }
        env.store_u64(data, 42);
        env.clflush(data, 8);
        env.sfence();
        env.store_u64(root, 1);
        env.clflush(root, 8);
        env.sfence();
    }

    #[test]
    fn repairs_a_missing_flush_and_proves_it() {
        let outcome = synthesize_repair(&lint_config(), &missing_flush);
        assert!(
            !outcome.baseline.is_clean() || outcome.baseline.has_errors(),
            "baseline must exhibit the fault"
        );
        assert!(outcome.verified, "repair must verify: {:?}", outcome.edits);
        assert!(!outcome.edits.is_empty());
        assert!(outcome
            .edits
            .iter()
            .all(|e| !matches!(e, FixEdit::DeleteFlush { .. })));
        let repaired = outcome.repaired.expect("verified outcome has a report");
        assert!(repaired.is_clean());
        assert!(!repaired.has_errors());
        assert!(outcome
            .diagnosed
            .iter()
            .any(|d| d.kind == DiagnosticKind::MissingFlush));
    }

    #[test]
    fn verified_edit_set_is_one_minimal() {
        let outcome = synthesize_repair(&lint_config(), &missing_flush);
        assert!(outcome.verified);
        for i in 0..outcome.edits.len() {
            let mut subset = outcome.edits.clone();
            subset.remove(i);
            let program = RepairedProgram::new(&missing_flush, &subset);
            let report = ModelChecker::new(lint_config()).check(&program);
            assert!(
                !is_fixed(&report),
                "dropping edit {i} ({}) should break the repair",
                outcome.edits[i]
            );
        }
    }

    #[test]
    fn clean_program_repairs_to_the_empty_set() {
        let outcome = synthesize_repair(&lint_config(), &robust);
        assert!(outcome.verified);
        assert!(outcome.edits.is_empty());
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.rechecks, 1);
    }

    #[test]
    fn empty_edit_set_preserves_the_operation_stream() {
        // The interposer must be transparent: with no edits, every
        // recorded site — and therefore the whole report digest — is
        // identical to the unwrapped program's.
        let wrapped = RepairedProgram::new(&missing_flush, &[]);
        let direct = ModelChecker::new(lint_config()).check(&missing_flush);
        let through = ModelChecker::new(lint_config()).check(&wrapped);
        assert_eq!(direct.digest(), through.digest());
        assert_eq!(wrapped.name(), "repaired:<closure>");
    }

    #[test]
    fn delete_flush_edit_removes_a_redundant_flush() {
        fn doubled(env: &dyn PmEnv) {
            let root = env.root();
            env.store_u64(root, 7);
            env.clflush(root, 8);
            env.clflush(root, 8); // same line, nothing stored in between
            env.sfence();
        }
        let mut config = lint_config();
        config.lints(Lints::All);
        let outcome = synthesize_repair(&config, &doubled);
        assert!(outcome.verified, "diagnosed: {:?}", outcome.diagnosed);
        assert!(
            outcome
                .edits
                .iter()
                .any(|e| matches!(e, FixEdit::DeleteFlush { .. })),
            "edits: {:?}",
            outcome.edits
        );
        let repaired = outcome.repaired.expect("report");
        assert!(
            repaired.diagnostics.is_empty(),
            "{:?}",
            repaired.diagnostics
        );
    }

    #[test]
    fn json_strings_are_json_escaped() {
        let outcome = RepairOutcome {
            program: "it's é".to_string(),
            edits: Vec::new(),
            verified: false,
            rounds: 0,
            rechecks: 0,
            baseline: CheckReport::default(),
            repaired: None,
            diagnosed: Vec::new(),
        };
        let json = outcome.to_json();
        assert!(json.contains("\"program\": \"it's é\","), "{json}");
    }
}

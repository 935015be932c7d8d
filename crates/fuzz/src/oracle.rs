//! The differential oracle: one generated program, many checkers and
//! configurations that must agree.
//!
//! For every program the oracle runs the lazy checker under a base
//! configuration and compares:
//!
//! * **ground truth** — the generator's fault label: fault-free programs
//!   must check clean, seeded-fault programs must report a bug naming
//!   the faulted line (and nothing else);
//! * **configuration axes** — snapshots off, 2 workers, 4 workers must
//!   reproduce the base [`digest`](jaaru::CheckReport::digest)
//!   byte-for-byte; lints on (every graph-based pass enabled) must
//!   reproduce the base
//!   [`exploration_digest`](jaaru::CheckReport::exploration_digest)
//!   (analyses may add diagnostics, never change exploration), and its
//!   diagnostics must match the seeded
//!   [`FaultClass`] — planted cross-thread, torn,
//!   and redundant-flush constructs flagged on their faulted line,
//!   never on seeds that lack them;
//! * **the eager baseline** — a bounded Yat-style enumeration
//!   ([`eager_check_bounded`]) must agree on clean/buggy and on the
//!   exact set of bug messages. Seeds whose eager state space exceeds
//!   the budget are counted as skipped, not as divergences — that
//!   exponential blowup is the paper's motivation, not a bug.
//!
//! Any disagreement becomes a [`Divergence`]; the campaign aggregates
//! them with deterministic statistics (no wall-clock anywhere), so the
//! same seed range produces byte-identical JSON on every run and at
//! every `--jobs` setting.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use jaaru::{CheckReport, Config, DiagnosticKind, ModelChecker};
use jaaru_yat::{eager_check_bounded, YatConfig, YatError};

use crate::gen::{generate, FaultClass, FaultMode, GenProgram};

/// Pool size every oracle run uses: room for the commit line plus
/// [`MAX_LINES`](crate::MAX_LINES) data lines, small enough to keep
/// snapshots cheap.
pub const POOL_SIZE: usize = 4096;

/// Default Yat state budget. The eager product over per-line writeback
/// choices explodes on flush-heavy bodies; past this many states the
/// comparison is skipped (and reported as skipped).
pub const YAT_STATE_BUDGET: u64 = 200_000;

/// One observed disagreement between two runs that must agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Generator seed of the diverging program.
    pub seed: u64,
    /// Which comparison failed (`ground-truth`, `snapshots-off`,
    /// `jobs-2`, `jobs-4`, `lints-on`, `lint-truth`, `yat`, `guard`).
    pub axis: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {:#x} [{}]: {}", self.seed, self.axis, self.detail)
    }
}

/// Differential oracle configuration.
#[derive(Clone, Debug)]
pub struct Oracle {
    /// Worker threads for the *base* run (the acceptance criterion:
    /// verdicts must not depend on this).
    pub jobs: usize,
    /// Run the cross-configuration and eager-baseline comparisons
    /// (`false` = ground-truth check only; much faster).
    pub differential: bool,
    /// State budget for the eager baseline.
    pub yat_budget: u64,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            jobs: 1,
            differential: true,
            yat_budget: YAT_STATE_BUDGET,
        }
    }
}

/// The oracle's verdict on one program.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    /// Generator seed.
    pub seed: u64,
    /// Whether the base run found a bug.
    pub buggy: bool,
    /// Base-run [`digest`](CheckReport::digest) (the replayable
    /// fingerprint corpus entries pin).
    pub digest: String,
    /// Decision trace of the first bug, if any.
    pub trace: Vec<usize>,
    /// Scenarios the base run explored.
    pub scenarios: u64,
    /// Fork-equivalent executions of the base run.
    pub executions: u64,
    /// Whether the eager baseline exceeded its budget and was skipped.
    pub yat_skipped: bool,
    /// States the eager baseline explored (0 when skipped or not run).
    pub yat_states: u64,
    /// Disagreements observed for this seed.
    pub divergences: Vec<Divergence>,
}

impl Oracle {
    fn base_config(&self, jobs: usize) -> Config {
        let mut config = Config::new();
        // Defaults otherwise: single failure (matching the eager
        // baseline's reach), snapshots on, races flagged, lints off.
        config.pool_size(POOL_SIZE).jobs(jobs);
        config
    }

    /// Runs the oracle on `program`, using its own fault label as the
    /// expected verdict.
    pub fn check_program(&self, program: &GenProgram) -> SeedOutcome {
        self.check_program_expecting(program, program.expect_buggy())
    }

    /// Runs the oracle with an explicit expected verdict. The fuzz
    /// tests use this to *plant* a divergence (mislabel a program) and
    /// assert the harness catches and minimizes it; production callers
    /// use [`check_program`](Self::check_program).
    pub fn check_program_expecting(&self, program: &GenProgram, expect_buggy: bool) -> SeedOutcome {
        let seed = program.seed;
        let mut divergences = Vec::new();

        let base = ModelChecker::new(self.base_config(self.jobs)).check(program);
        if base.truncated {
            // Generated programs are sized to explore exhaustively; a
            // truncated run would make every comparison vacuous.
            divergences.push(Divergence {
                seed,
                axis: "guard",
                detail: format!("base run truncated: {}", base.summary()),
            });
        }
        self.check_ground_truth(program, expect_buggy, &base, &mut divergences);
        let (yat_skipped, yat_states) = if self.differential {
            self.check_axes(program, &base, &mut divergences);
            self.check_yat(program, &base, &mut divergences)
        } else {
            (false, 0)
        };

        SeedOutcome {
            seed,
            buggy: !base.is_clean(),
            digest: base.digest(),
            trace: base
                .bugs
                .first()
                .map(|b| b.trace.clone())
                .unwrap_or_default(),
            scenarios: base.stats.scenarios,
            executions: base.stats.executions,
            yat_skipped,
            yat_states,
            divergences,
        }
    }

    fn check_ground_truth(
        &self,
        program: &GenProgram,
        expect_buggy: bool,
        base: &CheckReport,
        divergences: &mut Vec<Divergence>,
    ) {
        let seed = program.seed;
        match (expect_buggy, base.is_clean()) {
            (false, false) => divergences.push(Divergence {
                seed,
                axis: "ground-truth",
                detail: format!(
                    "fault-free program reported buggy: {}",
                    base.bugs
                        .iter()
                        .map(|b| b.message.as_str())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            }),
            (true, true) => divergences.push(Divergence {
                seed,
                axis: "ground-truth",
                detail: "seeded fault not detected".to_string(),
            }),
            (true, false) => {
                // Only the seeded line may be implicated.
                if let Some(fault) = program.fault {
                    let label = format!("(line {fault})");
                    for bug in &base.bugs {
                        if !bug.message.contains(&label) {
                            divergences.push(Divergence {
                                seed,
                                axis: "ground-truth",
                                detail: format!(
                                    "bug blames the wrong line: {:?} (seeded line {fault})",
                                    bug.message
                                ),
                            });
                        }
                    }
                }
            }
            (false, true) => {}
        }
    }

    /// Configuration axes: each re-run must reproduce the base verdict
    /// byte-for-byte.
    fn check_axes(
        &self,
        program: &GenProgram,
        base: &CheckReport,
        divergences: &mut Vec<Divergence>,
    ) {
        let seed = program.seed;
        let axes: [(&'static str, Config); 4] = [
            ("snapshots-off", {
                let mut c = self.base_config(1);
                c.snapshots(false);
                c
            }),
            ("jobs-2", self.base_config(2)),
            ("jobs-4", self.base_config(4)),
            ("lints-on", {
                let mut c = self.base_config(1);
                c.lints(true)
                    .lint_cross_thread(true)
                    .lint_torn_stores(true)
                    .lint_flush_redundancy(true);
                c
            }),
        ];
        for (axis, config) in axes {
            let report = ModelChecker::new(config).check(program);
            // Lints add diagnostic lines to the full digest by design;
            // compare that axis on the exploration view.
            let (got, want) = if axis == "lints-on" {
                (report.exploration_digest(), base.exploration_digest())
            } else {
                (report.digest(), base.digest())
            };
            if got != want {
                divergences.push(Divergence {
                    seed,
                    axis,
                    detail: diff_digests(&want, &got),
                });
            }
            if axis == "lints-on" {
                self.check_lint_truth(program, &report, divergences);
            }
        }
    }

    /// The analysis passes held to the generator's ground truth on the
    /// lints-on report: a seeded construct must be flagged on its
    /// faulted line, and constructs the op vocabulary cannot express
    /// (cross-thread races, straddling stores) must never be flagged on
    /// other seeds. Redundancy diagnostics carry no zero-assertion —
    /// random clean programs genuinely re-flush lines, so only the
    /// seeded class asserts their presence.
    fn check_lint_truth(
        &self,
        program: &GenProgram,
        report: &CheckReport,
        divergences: &mut Vec<Divergence>,
    ) {
        let seed = program.seed;
        // Data line `l` sits one cache line past the root, itself one
        // line into the pool: cache-line index l + 2.
        let line_index = |l: u8| l as u64 + 2;
        let mut expect = |kind: DiagnosticKind, lines: &[u64]| {
            let found = report.diagnostics.iter().any(|d| {
                d.kind == kind
                    && (lines.is_empty()
                        || d.addr
                            .is_some_and(|a| lines.contains(&a.cache_line().index())))
            });
            if !found {
                divergences.push(Divergence {
                    seed,
                    axis: "lint-truth",
                    detail: format!(
                        "seeded {} construct not flagged (line {:?}); diagnostics: [{}]",
                        kind.as_str(),
                        program.fault,
                        report
                            .diagnostics
                            .iter()
                            .map(|d| d.kind.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        };
        match (program.fault, program.fault_class) {
            (Some(f), FaultClass::CrossThread) => {
                expect(DiagnosticKind::CrossThreadRace, &[line_index(f)]);
            }
            (Some(f), FaultClass::Torn) => {
                expect(
                    DiagnosticKind::TornStore,
                    &[line_index(f), line_index(f) + 1],
                );
            }
            (Some(_), FaultClass::RedundantFlush) => {
                expect(DiagnosticKind::RedundantFlush, &[]);
            }
            _ => {
                // No-fault, missing-flush, and unpersisted-cas programs
                // are single-threaded and slot-aligned: they can neither
                // race across threads nor tear, so any such diagnostic
                // is a false positive. (The two buggy flush-omission
                // classes assert through the explorer's ground truth
                // above, not through a lint.)
                for d in &report.diagnostics {
                    if matches!(
                        d.kind,
                        DiagnosticKind::CrossThreadRace | DiagnosticKind::TornStore
                    ) {
                        divergences.push(Divergence {
                            seed,
                            axis: "lint-truth",
                            detail: format!("false positive {}: {d}", d.kind.as_str()),
                        });
                    }
                }
            }
        }
    }

    /// The eager baseline must agree on clean/buggy and on the bug
    /// message set (both checkers surface the same `pm_assert` strings).
    fn check_yat(
        &self,
        program: &GenProgram,
        base: &CheckReport,
        divergences: &mut Vec<Divergence>,
    ) -> (bool, u64) {
        let seed = program.seed;
        let mut config = YatConfig::new();
        config.pool_size = POOL_SIZE;
        config.max_states = self.yat_budget;
        let report = match eager_check_bounded(program, &config) {
            Ok(report) => report,
            Err(YatError::StateBudgetExceeded { .. }) => return (true, 0),
        };
        let mut lazy: Vec<&str> = base.bugs.iter().map(|b| b.message.as_str()).collect();
        let mut eager: Vec<&str> = report.bugs.iter().map(|b| b.message.as_str()).collect();
        lazy.sort_unstable();
        lazy.dedup();
        eager.sort_unstable();
        eager.dedup();
        if lazy != eager {
            divergences.push(Divergence {
                seed,
                axis: "yat",
                detail: format!("lazy bugs {lazy:?} != eager bugs {eager:?}"),
            });
        }
        (false, report.states_explored)
    }
}

/// First-differing-line summary of two digests (full digests can be
/// dozens of lines; the divergence detail should stay readable).
fn diff_digests(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("digest line {} differs: base {w:?}, axis {g:?}", i + 1);
        }
    }
    let (nw, ng) = (want.lines().count(), got.lines().count());
    if nw != ng {
        return format!("digest length differs: base {nw} line(s), axis {ng} line(s)");
    }
    "digests differ".to_string()
}

/// Aggregated result of a fuzzing campaign over a seed range.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// First seed checked.
    pub seed_start: u64,
    /// Seeds checked (consecutive from `seed_start`).
    pub seeds: u64,
    /// Operation budget per program.
    pub ops_max: usize,
    /// Whether the differential axes ran.
    pub differential: bool,
    /// Programs whose base run found a bug.
    pub buggy: u64,
    /// Programs that checked clean.
    pub clean: u64,
    /// Eager-baseline comparisons skipped for budget.
    pub yat_skipped: u64,
    /// Total scenarios explored by the base runs.
    pub scenarios: u64,
    /// Total fork-equivalent executions of the base runs.
    pub executions: u64,
    /// Total states the eager baseline explored.
    pub yat_states: u64,
    /// FNV-1a fingerprint over every seed's digest, in seed order — a
    /// compact determinism witness: two campaigns agree on every
    /// verdict iff their fingerprints match.
    pub fingerprint: u64,
    /// Every divergence observed, in seed order.
    pub divergences: Vec<Divergence>,
    /// Repairability tally when the campaign ran with `--repair`
    /// (filled in by the caller after the repair pass); `None` keeps
    /// the JSON summary byte-identical to a repair-free campaign.
    pub repair: Option<crate::repair::RepairStats>,
}

impl CampaignReport {
    /// `true` when every comparison agreed.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// One-line log summary.
    pub fn summary(&self) -> String {
        format!(
            "{} seed(s): {} buggy, {} clean, {} divergence(s); \
             {} scenario(s), {} execution(s), yat {} state(s) ({} skipped), \
             fingerprint {:016x}",
            self.seeds,
            self.buggy,
            self.clean,
            self.divergences.len(),
            self.scenarios,
            self.executions,
            self.yat_states,
            self.yat_skipped,
            self.fingerprint,
        )
    }

    /// Machine-readable report (`jaaru_cli fuzz --format json`).
    /// Deliberately free of wall-clock: byte-identical across runs and
    /// `--jobs` settings.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"seed_start\": {},", self.seed_start);
        let _ = writeln!(out, "  \"seeds\": {},", self.seeds);
        let _ = writeln!(out, "  \"ops_max\": {},", self.ops_max);
        let _ = writeln!(out, "  \"differential\": {},", self.differential);
        let _ = writeln!(out, "  \"buggy\": {},", self.buggy);
        let _ = writeln!(out, "  \"clean\": {},", self.clean);
        let _ = writeln!(out, "  \"scenarios\": {},", self.scenarios);
        let _ = writeln!(out, "  \"executions\": {},", self.executions);
        let _ = writeln!(out, "  \"yat_states\": {},", self.yat_states);
        let _ = writeln!(out, "  \"yat_skipped\": {},", self.yat_skipped);
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", self.fingerprint);
        if let Some(repair) = &self.repair {
            let _ = writeln!(out, "  \"repair\": {{");
            let _ = writeln!(out, "    \"attempted\": {},", repair.attempted());
            let _ = writeln!(out, "    \"repaired\": {},", repair.repaired());
            let _ = writeln!(out, "    \"rechecks\": {},", repair.rechecks);
            let _ = writeln!(out, "    \"classes\": [");
            for (i, row) in repair.classes.iter().enumerate() {
                let comma = if i + 1 < repair.classes.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "      {{\"class\": \"{}\", \"attempted\": {}, \"repaired\": {}}}{comma}",
                    row.class, row.attempted, row.repaired
                );
            }
            let _ = writeln!(out, "    ]");
            let _ = writeln!(out, "  }},");
        }
        let _ = writeln!(out, "  \"divergences\": [");
        for (i, d) in self.divergences.iter().enumerate() {
            let comma = if i + 1 < self.divergences.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"seed\": {}, \"axis\": \"{}\", \"detail\": \"{}\"}}{comma}",
                d.seed,
                d.axis,
                d.detail.escape_default()
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Runs a fuzzing campaign: seeds `seed_start..seed_start + seeds`, each
/// generated with `ops_max` and [`FaultMode::Auto`], checked by
/// `oracle`. Returns the deterministic aggregate; per-seed outcomes are
/// streamed to `on_outcome` (corpus harvesting, progress display).
///
/// `stop`, when given, is checked between seeds: once it is raised the
/// campaign ends early, and the report covers (and its `seeds` counts)
/// only the seeds checked.
pub fn run_campaign(
    oracle: &Oracle,
    seed_start: u64,
    seeds: u64,
    ops_max: usize,
    stop: Option<&AtomicBool>,
    mut on_outcome: impl FnMut(&GenProgram, &SeedOutcome),
) -> CampaignReport {
    let mut report = CampaignReport {
        seed_start,
        seeds,
        ops_max,
        differential: oracle.differential,
        buggy: 0,
        clean: 0,
        yat_skipped: 0,
        scenarios: 0,
        executions: 0,
        yat_states: 0,
        fingerprint: FNV_OFFSET,
        divergences: Vec::new(),
        repair: None,
    };
    for seed in seed_start..seed_start.saturating_add(seeds) {
        if stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
            report.seeds = seed - seed_start;
            break;
        }
        let program = generate(seed, ops_max, FaultMode::Auto);
        let outcome = oracle.check_program(&program);
        if outcome.buggy {
            report.buggy += 1;
        } else {
            report.clean += 1;
        }
        report.yat_skipped += outcome.yat_skipped as u64;
        report.scenarios += outcome.scenarios;
        report.executions += outcome.executions;
        report.yat_states += outcome.yat_states;
        report.fingerprint = fnv1a(report.fingerprint, outcome.digest.as_bytes());
        report
            .divergences
            .extend(outcome.divergences.iter().cloned());
        on_outcome(&program, &outcome);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_faulted_seeds_agree_with_ground_truth() {
        let oracle = Oracle::default();
        for seed in 0..12 {
            let program = generate(seed, 10, FaultMode::Auto);
            let outcome = oracle.check_program(&program);
            assert!(
                outcome.divergences.is_empty(),
                "seed {seed}: {:?}",
                outcome.divergences
            );
            assert_eq!(outcome.buggy, program.expect_buggy(), "seed {seed}");
        }
    }

    #[test]
    fn mislabelled_program_is_flagged() {
        let oracle = Oracle {
            differential: false,
            ..Oracle::default()
        };
        let program = generate(3, 10, FaultMode::Force);
        // Plant a divergence: claim the faulted program is clean.
        let outcome = oracle.check_program_expecting(&program, false);
        assert_eq!(outcome.divergences.len(), 1);
        assert_eq!(outcome.divergences[0].axis, "ground-truth");
    }

    #[test]
    fn a_raised_stop_flag_ends_the_campaign_between_seeds() {
        let oracle = Oracle::default();
        let stop = AtomicBool::new(true);
        let report = run_campaign(&oracle, 0, 2000, 10, Some(&stop), |_, _| {
            panic!("no seed is checked once the flag is raised")
        });
        assert_eq!(report.seeds, 0);
        assert_eq!(report.buggy + report.clean, 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let oracle = Oracle {
            differential: false,
            ..Oracle::default()
        };
        let a = run_campaign(&oracle, 0, 20, 10, None, |_, _| {});
        let b = run_campaign(&oracle, 0, 20, 10, None, |_, _| {});
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.is_clean(), "{:#?}", a.divergences);
        assert_eq!(a.buggy + a.clean, 20);
    }

    #[test]
    fn lint_truth_holds_for_every_seeded_class() {
        let oracle = Oracle::default();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..400 {
            let program = generate(seed, 10, FaultMode::Auto);
            let Some(_) = program.fault else { continue };
            if !seen.insert(program.fault_class.as_str()) {
                continue;
            }
            let outcome = oracle.check_program(&program);
            assert!(
                outcome.divergences.is_empty(),
                "seed {seed} ({}): {:?}",
                program.fault_class,
                outcome.divergences
            );
            if seen.len() == 5 {
                return;
            }
        }
        panic!("not all classes reached: {seen:?}");
    }

    #[test]
    fn minimal_planted_constructs_pass_the_full_oracle() {
        // The smallest program of each clean-or-buggy planted class
        // (empty body; the construct lives in the epilogue path) must
        // survive every axis including lint-truth.
        let oracle = Oracle::default();
        for (class, buggy) in [
            (FaultClass::Torn, true),
            (FaultClass::CrossThread, false),
            (FaultClass::RedundantFlush, false),
        ] {
            let program = GenProgram::from_parts(7, 1, vec![], true, Some(0)).with_class(class);
            let outcome = oracle.check_program(&program);
            assert!(
                outcome.divergences.is_empty(),
                "{class}: {:?}",
                outcome.divergences
            );
            assert_eq!(outcome.buggy, buggy, "{class}");
        }
        // A class label without a fault line plants nothing and is an
        // ordinary clean program.
        let unlabelled =
            GenProgram::from_parts(5, 1, vec![], true, None).with_class(FaultClass::CrossThread);
        assert!(oracle.check_program(&unlabelled).divergences.is_empty());
    }

    #[test]
    fn digest_diff_names_the_first_divergent_line() {
        let d = diff_digests("a\nb\nc\n", "a\nX\nc\n");
        assert!(d.contains("line 2"), "{d}");
        let d = diff_digests("a\n", "a\nb\n");
        assert!(d.contains("length"), "{d}");
    }
}

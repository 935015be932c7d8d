//! Auto-repair of seeded-fault programs: the `fuzz --repair` loop.
//!
//! Every fault the generator can plant ([`FaultClass`]) claims to be a
//! machine-fixable persistency mistake. This module closes that loop:
//! after a campaign, each seeded-fault program is handed to the repair
//! synthesizer ([`jaaru::synthesize_repair`]) under a configuration
//! that enables exactly the passes whose diagnostics carry the fix for
//! its class — and the campaign fails if any class turns out
//! unrepairable. Generated programs are the adversarial case for edit
//! anchoring: every store funnels through one interpreter source line,
//! so repairs land correctly only through the cache-line filter on
//! [`FixEdit`](jaaru::FixEdit).

use jaaru::{synthesize_repair, Config, Lints, RepairOutcome};

use crate::gen::{FaultClass, GenProgram};
use crate::oracle::POOL_SIZE;

/// The checker configuration used to diagnose and verify repairs of a
/// seeded fault.
///
/// All classes get the error-severity passes ([`Lints::Errors`]). Only
/// [`FaultClass::RedundantFlush`] gets every pass ([`Lints::All`]): the
/// flush-redundancy pass is the one whose diagnostics carry that class's
/// `DeleteFlush` edit, but on bug-seeded programs it would demand
/// deletions of flushes the generator emitted on purpose (e.g.
/// re-flushes straddling a crash point), turning a fixable bug into a
/// warning chase.
pub fn repair_config(class: FaultClass, jobs: usize) -> Config {
    let mut config = Config::new();
    config
        .pool_size(POOL_SIZE)
        .jobs(jobs)
        .lints(if class == FaultClass::RedundantFlush {
            Lints::All
        } else {
            Lints::Errors
        });
    config
}

/// Diagnose → fix → verify one seeded-fault program.
pub fn repair_seeded(program: &GenProgram, jobs: usize) -> RepairOutcome {
    synthesize_repair(&repair_config(program.fault_class, jobs), program)
}

/// Per-class repair tally for one campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassRepair {
    /// The seeded fault class.
    pub class: FaultClass,
    /// Seeded-fault programs of this class that were repair-attempted.
    pub attempted: u64,
    /// Of those, how many produced a *verified* minimal repair.
    pub repaired: u64,
}

/// Aggregate repairability statistics, rendered into the campaign's
/// JSON summary. Class rows are in a fixed order, so the summary is
/// byte-identical across runs and `--jobs` settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairStats {
    /// One row per fault class, in declaration order.
    pub classes: Vec<ClassRepair>,
    /// Total model-checking runs spent diagnosing, verifying, and
    /// minimizing across all attempts.
    pub rechecks: u64,
}

impl Default for RepairStats {
    fn default() -> Self {
        RepairStats {
            classes: [
                FaultClass::MissingFlush,
                FaultClass::UnpersistedCas,
                FaultClass::CrossThread,
                FaultClass::Torn,
                FaultClass::RedundantFlush,
            ]
            .into_iter()
            .map(|class| ClassRepair {
                class,
                attempted: 0,
                repaired: 0,
            })
            .collect(),
            rechecks: 0,
        }
    }
}

impl RepairStats {
    /// Folds one repair attempt into the tally.
    pub fn record(&mut self, class: FaultClass, outcome: &RepairOutcome) {
        self.rechecks += outcome.rechecks;
        if let Some(row) = self.classes.iter_mut().find(|r| r.class == class) {
            row.attempted += 1;
            row.repaired += u64::from(outcome.verified);
        }
    }

    /// Total programs repair-attempted.
    pub fn attempted(&self) -> u64 {
        self.classes.iter().map(|r| r.attempted).sum()
    }

    /// Total verified repairs.
    pub fn repaired(&self) -> u64 {
        self.classes.iter().map(|r| r.repaired).sum()
    }

    /// Fault classes with at least one attempt that could not be
    /// verified-repaired. `fuzz --repair` exits nonzero on any.
    pub fn unrepairable(&self) -> Vec<FaultClass> {
        self.classes
            .iter()
            .filter(|r| r.repaired < r.attempted)
            .map(|r| r.class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FaultMode};
    use jaaru::FixEdit;

    /// Every fault class the generator plants must auto-repair to a
    /// verified minimal edit set — the tentpole claim, on the
    /// interpreter-style programs where site anchoring alone would
    /// misfire.
    #[test]
    fn every_seeded_fault_class_is_repairable() {
        let mut seen = Vec::new();
        // `Force` always plants a missing flush; the class draw only
        // happens in `Auto`, so scan until all four classes appear.
        for seed in 0..400 {
            let program = generate(seed, 10, FaultMode::Auto);
            if program.fault.is_none() || seen.contains(&program.fault_class) {
                continue;
            }
            seen.push(program.fault_class);
            let outcome = repair_seeded(&program, 1);
            assert!(
                outcome.verified,
                "seed {seed} class {} unrepaired; diagnosed {:?}",
                program.fault_class, outcome.diagnosed
            );
            assert!(
                !outcome.edits.is_empty(),
                "seed {seed} class {} needed no edit?",
                program.fault_class
            );
            if program.fault_class == FaultClass::RedundantFlush {
                assert!(outcome
                    .edits
                    .iter()
                    .all(|e| matches!(e, FixEdit::DeleteFlush { .. })));
            }
            if seen.len() == 5 {
                break;
            }
        }
        assert_eq!(
            seen.len(),
            5,
            "seeds 0..400 must cover all classes: {seen:?}"
        );
    }

    #[test]
    fn stats_tally_and_flag_unrepairable_classes() {
        let program = generate(1, 8, FaultMode::Force);
        assert!(program.fault.is_some());
        let outcome = repair_seeded(&program, 1);
        let mut stats = RepairStats::default();
        stats.record(program.fault_class, &outcome);
        assert_eq!(stats.attempted(), 1);
        assert_eq!(stats.repaired(), u64::from(outcome.verified));
        assert!(stats.rechecks >= outcome.rechecks);
        let mut failing = RepairStats::default();
        failing.classes[0].attempted = 2;
        failing.classes[0].repaired = 1;
        assert_eq!(failing.unrepairable(), vec![FaultClass::MissingFlush]);
    }
}

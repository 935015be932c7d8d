//! Delta-debugging minimization of diverging programs.
//!
//! Given a program and a failure predicate (the caller re-runs the
//! oracle, or a specific bug check, inside it), [`minimize`] searches
//! for a smaller program on which the predicate still holds:
//!
//! 1. **ddmin over the op list** — remove chunks at exponentially finer
//!    granularity (Zeller's complement reduction);
//! 2. **line merging** — remap the highest data line onto a lower one
//!    and shrink the layout, collapsing multi-cacheline interactions
//!    that turn out to be irrelevant;
//! 3. **commit stripping** — drop the commit epilogue when the label
//!    allows it (a fault label pins the epilogue, so this only applies
//!    to divergences on fault-free programs).
//!
//! The passes repeat to a fixpoint; every candidate is validated by the
//! predicate before being adopted, so the result always still exhibits
//! the original failure. Decision traces shrink separately:
//! [`shrink_trace`] replays ever-shorter trace prefixes (fresh
//! decisions default to the first alternative) and keeps the shortest
//! prefix that still reproduces the bug.

use jaaru::{Config, ModelChecker};

use crate::corpus::Reproducer;
use crate::gen::{FaultClass, GenProgram, Op};
use crate::oracle::{Oracle, POOL_SIZE};

/// Rebuilds a program around an edited op list, shrinking the layout to
/// the lines still referenced (the fault label keeps its line alive and
/// the fault class is carried over).
fn rebuild(base: &GenProgram, ops: Vec<Op>, fault: Option<u8>, commit: bool) -> GenProgram {
    let mut lines = 1;
    for op in &ops {
        if let Some(line) = op.line() {
            lines = lines.max(line as usize + 1);
        }
    }
    if let Some(f) = fault {
        lines = lines.max(f as usize + 1);
    }
    GenProgram::from_parts(base.seed, lines, ops, commit, fault).with_class(base.fault_class)
}

/// Minimizes `program` while `still_fails` holds, returning the
/// smallest variant found. `still_fails` is guaranteed to have accepted
/// the returned program; if it rejects even the input, the input is
/// returned unchanged.
pub fn minimize(
    program: &GenProgram,
    mut still_fails: impl FnMut(&GenProgram) -> bool,
) -> GenProgram {
    if !still_fails(program) {
        return program.clone();
    }
    let mut current = program.clone();
    loop {
        let before = (current.ops.len(), current.lines, current.commit);
        current = ddmin_ops(current, &mut still_fails);
        current = merge_lines(current, &mut still_fails);
        if !current.expect_buggy() && current.commit {
            let candidate = rebuild(&current, current.ops.clone(), None, false);
            if still_fails(&candidate) {
                current = candidate;
            }
        }
        if (current.ops.len(), current.lines, current.commit) == before {
            return current;
        }
    }
}

/// One round of ddmin over the op list.
fn ddmin_ops(
    mut current: GenProgram,
    still_fails: &mut impl FnMut(&GenProgram) -> bool,
) -> GenProgram {
    let mut granularity = 2usize;
    while current.ops.len() >= 2 {
        let len = current.ops.len();
        granularity = granularity.min(len);
        let chunk = len.div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.ops.len() {
            let end = (start + chunk).min(current.ops.len());
            let mut ops = current.ops.clone();
            ops.drain(start..end);
            let candidate = rebuild(&current, ops, current.fault, current.commit);
            if still_fails(&candidate) {
                current = candidate;
                // Complement adopted: keep the granularity, re-scan
                // from the top of the shorter list.
                reduced = true;
                start = 0;
            } else {
                start = end;
            }
        }
        // On a reduction, keep the granularity for the shorter list;
        // otherwise refine it, and once singleton chunks remove nothing
        // the list is 1-minimal.
        if !reduced {
            if granularity >= len {
                break;
            }
            granularity = (granularity * 2).min(len);
        }
    }
    current
}

/// Tries remapping each data line onto line 0, shrinking the layout.
fn merge_lines(
    mut current: GenProgram,
    still_fails: &mut impl FnMut(&GenProgram) -> bool,
) -> GenProgram {
    // A torn fault pins the straddle to the last data line; remapping
    // lines would break the fault == lines - 1 invariant, so torn
    // programs shrink through ddmin only.
    if current.fault.is_some() && current.fault_class == FaultClass::Torn {
        return current;
    }
    while current.lines > 1 {
        let hi = (current.lines - 1) as u8;
        let ops: Vec<Op> = current
            .ops
            .iter()
            .map(|&op| {
                if op.line() == Some(hi) {
                    op.with_line(0)
                } else {
                    op
                }
            })
            .collect();
        let fault = current.fault.map(|f| if f == hi { 0 } else { f });
        let candidate = rebuild(&current, ops, fault, current.commit);
        if candidate.lines < current.lines && still_fails(&candidate) {
            current = candidate;
        } else {
            break;
        }
    }
    current
}

/// Shrinks a bug's decision trace by replaying ever-shorter prefixes:
/// decisions past the trace default to the first alternative, so any
/// prefix of the program's own trace is a valid scenario. Returns the
/// shortest prefix whose replay still reports a bug with `message`, or
/// the full trace when none does (a trace of another program reproduces
/// nothing).
pub fn shrink_trace(program: &GenProgram, trace: &[usize], message: &str) -> Vec<usize> {
    let mut config = Config::new();
    config.pool_size(POOL_SIZE);
    let checker = ModelChecker::new(config);
    for len in 0..trace.len() {
        let prefix = &trace[..len];
        let reproduces = checker
            .replay(program, prefix)
            .is_ok_and(|report| report.bugs.iter().any(|b| b.message == message));
        if reproduces {
            return prefix.to_vec();
        }
    }
    trace.to_vec()
}

/// Whether `program`'s seeded fault still manifests exactly (buggy, and
/// every bug names the faulted line). The harvesting predicate. Clean
/// fault classes (cross-thread, redundant-flush) never manifest a bug,
/// so they are not harvestable and return `false`.
pub fn seeded_fault_manifests(program: &GenProgram) -> bool {
    if !program.expect_buggy() {
        return false;
    }
    let oracle = Oracle {
        differential: false,
        ..Oracle::default()
    };
    let outcome = oracle.check_program_expecting(program, true);
    outcome.buggy && outcome.divergences.is_empty()
}

/// Minimizes a seeded-fault program to its smallest still-buggy form and
/// packages it as a replayable [`Reproducer`]: minimized program,
/// shortest bug trace, pinned digest. Returns `None` for fault-free
/// programs or when the fault does not manifest to begin with (that is
/// a divergence, not a harvest).
pub fn harvest(program: &GenProgram) -> Option<Reproducer> {
    if !seeded_fault_manifests(program) {
        return None;
    }
    let min = minimize(program, seeded_fault_manifests);
    let oracle = Oracle {
        differential: false,
        ..Oracle::default()
    };
    let outcome = oracle.check_program_expecting(&min, true);
    let fault = min.fault.expect("minimization preserves the fault label");
    let message = match min.fault_class {
        FaultClass::Torn => format!("torn straddling store (line {fault})"),
        _ => format!("committed slot lost (line {fault})"),
    };
    let trace = shrink_trace(&min, &outcome.trace, &message);
    Some(Reproducer {
        name: format!("seed-{:#06x}", program.seed),
        axis: "seeded-fault".to_string(),
        program: min,
        trace,
        digest: outcome.digest,
    })
}

/// Minimizes a program on which `oracle` observed a divergence under
/// expectation `expect_buggy`, keeping any-divergence as the predicate,
/// and packages the result (the diverging axis, the program, its trace
/// and digest) as a [`Reproducer`].
pub fn minimize_divergence(
    oracle: &Oracle,
    program: &GenProgram,
    expect_buggy: bool,
) -> Option<Reproducer> {
    let diverges = |p: &GenProgram| {
        !oracle
            .check_program_expecting(p, expect_buggy)
            .divergences
            .is_empty()
    };
    if !diverges(program) {
        return None;
    }
    let min = minimize(program, diverges);
    let outcome = oracle.check_program_expecting(&min, expect_buggy);
    Some(Reproducer {
        name: format!("seed-{:#06x}-divergence", program.seed),
        axis: outcome
            .divergences
            .first()
            .map(|d| d.axis.to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        program: min,
        trace: outcome.trace,
        digest: outcome.digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FaultMode};

    /// Predicate: the program still manifests its seeded fault.
    fn seeded_bug_manifest(p: &GenProgram) -> bool {
        seeded_fault_manifests(p)
    }

    #[test]
    fn minimizer_shrinks_a_faulted_program() {
        for seed in [1u64, 5, 9] {
            let program = generate(seed, 18, FaultMode::Force);
            let min = minimize(&program, seeded_bug_manifest);
            assert!(
                seeded_bug_manifest(&min),
                "seed {seed}: result must still fail"
            );
            assert!(
                min.ops.len() <= program.ops.len(),
                "seed {seed}: minimization must not grow the program"
            );
            // The seeded missing-flush bug needs only the trailing store
            // to the faulted line (the epilogue is implicit): a handful
            // of ops at most.
            assert!(
                min.ops.len() <= 4,
                "seed {seed}: expected a tiny reproducer, got {} ops: {:?}",
                min.ops.len(),
                min.ops
            );
        }
    }

    #[test]
    fn harvest_produces_a_replayable_reproducer() {
        let program = generate(11, 14, FaultMode::Force);
        let repro = harvest(&program).expect("forced fault must harvest");
        assert!(
            repro.program.ops.len() <= 4,
            "harvested reproducer stays tiny: {:?}",
            repro.program.ops
        );
        let mut config = Config::new();
        config.pool_size(POOL_SIZE);
        let checker = ModelChecker::new(config);
        assert_eq!(checker.check(&repro.program).digest(), repro.digest);
        let replayed = checker
            .replay(&repro.program, &repro.trace)
            .expect("the stored trace");
        assert!(!replayed.bugs.is_empty(), "stored trace reproduces the bug");
    }

    #[test]
    fn torn_programs_harvest_with_their_class() {
        // A torn program with body noise: minimization drops the noise
        // (the straddle lives in the epilogue path, not the op list)
        // and the reproducer keeps the class for exact replay.
        let noisy = GenProgram::from_parts(
            21,
            2,
            vec![
                Op::Store {
                    line: 0,
                    slot: 0,
                    value: 1,
                },
                Op::Clflush { line: 0 },
                Op::Sfence,
            ],
            true,
            Some(1),
        )
        .with_class(FaultClass::Torn);
        let repro = harvest(&noisy).expect("torn fault must harvest");
        assert_eq!(repro.program.fault_class, FaultClass::Torn);
        assert!(repro.program.ops.is_empty(), "{:?}", repro.program.ops);
        let parsed = Reproducer::parse(&repro.to_text()).unwrap();
        assert_eq!(parsed, repro);
        let mut config = Config::new();
        config.pool_size(POOL_SIZE);
        let checker = ModelChecker::new(config);
        assert_eq!(checker.check(&parsed.program).digest(), parsed.digest);
        let replayed = checker
            .replay(&parsed.program, &parsed.trace)
            .expect("the stored trace");
        assert!(
            replayed
                .bugs
                .iter()
                .any(|b| b.message.contains("torn straddling store")),
            "{replayed}"
        );
    }

    #[test]
    fn divergence_minimization_requires_a_divergence() {
        let oracle = Oracle {
            differential: false,
            ..Oracle::default()
        };
        // A correctly-labelled program has no divergence to minimize.
        let program = generate(6, 12, FaultMode::Never);
        assert!(minimize_divergence(&oracle, &program, program.expect_buggy()).is_none());
        // Mislabelling it plants one; the minimizer must both catch and
        // shrink it.
        let faulted = generate(6, 14, FaultMode::Force);
        let repro = minimize_divergence(&oracle, &faulted, false).expect("planted divergence");
        assert_eq!(repro.axis, "ground-truth");
        assert!(repro.program.ops.len() <= faulted.ops.len());
    }

    #[test]
    fn minimizer_returns_input_when_predicate_rejects_it() {
        let program = generate(2, 12, FaultMode::Never);
        let min = minimize(&program, |_| false);
        assert_eq!(min, program);
    }

    #[test]
    fn trace_shrinking_keeps_the_bug() {
        let program = generate(4, 14, FaultMode::Force);
        let oracle = Oracle {
            differential: false,
            ..Oracle::default()
        };
        let outcome = oracle.check_program(&program);
        assert!(outcome.buggy);
        let message = format!(
            "committed slot lost (line {})",
            program.fault.expect("forced fault")
        );
        let short = shrink_trace(&program, &outcome.trace, &message);
        assert!(short.len() <= outcome.trace.len());
        let mut config = Config::new();
        config.pool_size(crate::oracle::POOL_SIZE);
        let replayed = ModelChecker::new(config)
            .replay(&program, &short)
            .expect("a prefix of the program's own trace");
        assert!(replayed.bugs.iter().any(|b| b.message == message));
    }
}

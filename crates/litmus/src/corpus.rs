//! The named litmus corpus: paper tests with pinned expected verdicts.
//!
//! Each entry is a small program plus *observable expectations* —
//! outcomes that must be allowed and outcomes that must be forbidden —
//! drawn from the x86-TSO literature (store buffering, message
//! passing), the Jaaru paper's Table 1 reordering probes, and the
//! persistency examples of Bila et al.'s view-based Owicki-Gries work
//! (flush/fence epochs, clflushopt reordering, RMW dual-fencing).
//!
//! The corpus runner checks every expectation against **both** the
//! operational machine and the axiomatic reference checker, and
//! additionally requires the two outcome sets to agree exactly; a
//! corpus entry therefore fails either when a checker contradicts the
//! literature or when the checkers contradict each other.

use jaaru::json_string;

use crate::ax::{AxChecker, AxOp, AxOutcome, AxProgram};
use crate::conform::{self, Verdict};

/// Conventional litmus addresses: two distinct cache lines.
pub const X: u64 = 64;
/// Second litmus address, on its own cache line.
pub const Y: u64 = 128;

/// A partial observable: any unspecified component matches everything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obs {
    /// Expected register file (all threads), when specified.
    pub regs: Option<Vec<Vec<u8>>>,
    /// Expected `(address, value)` entries; every listed entry must be
    /// present in the outcome's memory (subset match, so an expectation
    /// can pin one address and ignore the other).
    pub mem: Vec<(u64, u8)>,
}

impl Obs {
    /// Register-only expectation.
    pub fn regs(regs: Vec<Vec<u8>>) -> Obs {
        Obs {
            regs: Some(regs),
            mem: vec![],
        }
    }

    /// Memory-only expectation.
    pub fn mem(mem: Vec<(u64, u8)>) -> Obs {
        Obs { regs: None, mem }
    }

    fn matches(&self, o: &AxOutcome) -> bool {
        self.regs.as_ref().is_none_or(|r| *r == o.regs)
            && self.mem.iter().all(|e| o.mem.contains(e))
    }
}

/// One named corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusTest {
    /// Stable test name (used by the CLI and reports).
    pub name: &'static str,
    /// Where the expectation comes from.
    pub description: &'static str,
    /// The program.
    pub program: AxProgram,
    /// Observables at least one outcome must match.
    pub allowed: Vec<Obs>,
    /// Observables no outcome may match.
    pub forbidden: Vec<Obs>,
}

/// The result of running one corpus entry under both checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusResult {
    /// The entry's name.
    pub name: &'static str,
    /// Expectation failures, as human-readable sentences. Empty = pass.
    pub failures: Vec<String>,
    /// Whether the operational and axiomatic outcome sets agreed.
    pub conformant: bool,
    /// Distinct allowed outcomes under the axiomatic checker.
    pub outcomes: usize,
}

impl CorpusResult {
    /// Passed: all expectations hold under both checkers and the
    /// checkers agree with each other.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.conformant
    }
}

/// Builds the full named corpus.
pub fn corpus() -> Vec<CorpusTest> {
    vec![
        // ---- Volatile TSO classics -------------------------------------
        CorpusTest {
            name: "sb",
            description: "store buffering: W→R reordering observable on TSO",
            program: AxProgram {
                threads: vec![
                    vec![AxOp::Store(X, 1), AxOp::Load(Y)],
                    vec![AxOp::Store(Y, 1), AxOp::Load(X)],
                ],
            },
            allowed: vec![
                Obs::regs(vec![vec![0], vec![0]]),
                Obs::regs(vec![vec![1], vec![1]]),
            ],
            forbidden: vec![],
        },
        CorpusTest {
            name: "sb+mfence",
            description: "store buffering fenced: mfence restores SC here",
            program: AxProgram {
                threads: vec![
                    vec![AxOp::Store(X, 1), AxOp::Mfence, AxOp::Load(Y)],
                    vec![AxOp::Store(Y, 1), AxOp::Mfence, AxOp::Load(X)],
                ],
            },
            allowed: vec![Obs::regs(vec![vec![1], vec![1]])],
            forbidden: vec![Obs::regs(vec![vec![0], vec![0]])],
        },
        CorpusTest {
            name: "sb+sfence",
            description: "sfence has no volatile W→R power (Table 1)",
            program: AxProgram {
                threads: vec![
                    vec![AxOp::Store(X, 1), AxOp::Sfence, AxOp::Load(Y)],
                    vec![AxOp::Store(Y, 1), AxOp::Sfence, AxOp::Load(X)],
                ],
            },
            allowed: vec![Obs::regs(vec![vec![0], vec![0]])],
            forbidden: vec![],
        },
        CorpusTest {
            name: "sb+rmw",
            description: "locked RMW is dual-fenced: forbids the SB relaxation",
            program: AxProgram {
                threads: vec![
                    vec![AxOp::Rmw(X, 1), AxOp::Load(Y)],
                    vec![AxOp::Rmw(Y, 1), AxOp::Load(X)],
                ],
            },
            allowed: vec![Obs::regs(vec![vec![0, 1], vec![0, 1]])],
            forbidden: vec![Obs::regs(vec![vec![0, 0], vec![0, 0]])],
        },
        CorpusTest {
            name: "mp",
            description: "message passing: no W→W or R→R reordering on TSO",
            program: AxProgram {
                threads: vec![
                    vec![AxOp::Store(X, 1), AxOp::Store(Y, 1)],
                    vec![AxOp::Load(Y), AxOp::Load(X)],
                ],
            },
            allowed: vec![
                Obs::regs(vec![vec![], vec![1, 1]]),
                Obs::regs(vec![vec![], vec![0, 0]]),
            ],
            forbidden: vec![Obs::regs(vec![vec![], vec![1, 0]])],
        },
        CorpusTest {
            name: "rmw-serialize",
            description: "competing locked exchanges serialize (atomicity)",
            program: AxProgram {
                threads: vec![vec![AxOp::Rmw(X, 1)], vec![AxOp::Rmw(X, 2)]],
            },
            allowed: vec![
                Obs::regs(vec![vec![0], vec![1]]),
                Obs::regs(vec![vec![2], vec![0]]),
            ],
            forbidden: vec![Obs::regs(vec![vec![0], vec![0]])],
        },
        // ---- Persistency: flush/fence epochs ---------------------------
        CorpusTest {
            name: "flush-epoch",
            description: "St; Fo; Sf pins the store into persistence (Bila et al. §2)",
            program: AxProgram {
                threads: vec![vec![AxOp::Store(X, 1), AxOp::Clflushopt(X), AxOp::Sfence]],
            },
            allowed: vec![Obs::mem(vec![(X, 1)])],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "flush-unfenced",
            description: "clflushopt without a fence guarantees nothing",
            program: AxProgram {
                threads: vec![vec![AxOp::Store(X, 1), AxOp::Clflushopt(X)]],
            },
            allowed: vec![Obs::mem(vec![(X, 0)]), Obs::mem(vec![(X, 1)])],
            forbidden: vec![],
        },
        CorpusTest {
            name: "clflush-unfenced",
            description: "clflush is strongly ordered: no fence needed",
            program: AxProgram {
                threads: vec![vec![AxOp::Store(X, 1), AxOp::Clflush(X)]],
            },
            allowed: vec![Obs::mem(vec![(X, 1)])],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "flushopt-reorders",
            description: "clflushopt reorders past a later other-line store (Table 1)",
            program: AxProgram {
                threads: vec![vec![
                    AxOp::Store(X, 1),
                    AxOp::Clflushopt(X),
                    AxOp::Store(Y, 1),
                    AxOp::Sfence,
                ]],
            },
            allowed: vec![
                Obs::mem(vec![(X, 1), (Y, 0)]),
                Obs::mem(vec![(X, 1), (Y, 1)]),
            ],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "clflush-orders",
            description: "clflush does NOT reorder past a later store (Table 1)",
            program: AxProgram {
                threads: vec![vec![AxOp::Store(X, 1), AxOp::Clflush(X), AxOp::Store(Y, 1)]],
            },
            allowed: vec![
                Obs::mem(vec![(X, 1), (Y, 0)]),
                Obs::mem(vec![(X, 1), (Y, 1)]),
            ],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "clwb-epoch",
            description: "clwb behaves exactly like clflushopt under Px86sim",
            program: AxProgram {
                threads: vec![vec![AxOp::Store(X, 1), AxOp::Clwb(X), AxOp::Sfence]],
            },
            allowed: vec![Obs::mem(vec![(X, 1)])],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "flush-between-stores",
            description: "St x=1; Fo x; St x=2; Sf: at least the first value persists",
            program: AxProgram {
                threads: vec![vec![
                    AxOp::Store(X, 1),
                    AxOp::Clflushopt(X),
                    AxOp::Store(X, 2),
                    AxOp::Sfence,
                ]],
            },
            allowed: vec![Obs::mem(vec![(X, 1)]), Obs::mem(vec![(X, 2)])],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "rmw-orders-flush",
            description: "a locked RMW applies pending optimized flushes (dual fence)",
            program: AxProgram {
                threads: vec![vec![
                    AxOp::Store(X, 1),
                    AxOp::Clflushopt(X),
                    AxOp::Rmw(Y, 7),
                ]],
            },
            allowed: vec![
                Obs::mem(vec![(X, 1), (Y, 0)]),
                Obs::mem(vec![(X, 1), (Y, 7)]),
            ],
            forbidden: vec![Obs::mem(vec![(X, 0)])],
        },
        CorpusTest {
            name: "mp+persist",
            description: "persistent message passing: data flushed before flag write",
            program: AxProgram {
                threads: vec![
                    vec![
                        AxOp::Store(X, 1),
                        AxOp::Clflushopt(X),
                        AxOp::Sfence,
                        AxOp::Store(Y, 1),
                    ],
                    vec![AxOp::Load(Y), AxOp::Load(X)],
                ],
            },
            allowed: vec![Obs::regs(vec![vec![], vec![1, 1]])],
            forbidden: vec![
                // Volatile MP violation.
                Obs::regs(vec![vec![], vec![1, 0]]),
                // Persistency violation: the data write never persists
                // un-flushed — x is pinned before the program completes.
                Obs::mem(vec![(X, 0)]),
            ],
        },
        CorpusTest {
            name: "cross-thread-flush",
            description: "a flush may cover another thread's store, or miss it",
            program: AxProgram {
                threads: vec![vec![AxOp::Clflush(X)], vec![AxOp::Store(X, 1)]],
            },
            allowed: vec![Obs::mem(vec![(X, 0)]), Obs::mem(vec![(X, 1)])],
            forbidden: vec![],
        },
    ]
}

/// Runs one corpus entry under both checkers.
pub fn run_test(t: &CorpusTest) -> CorpusResult {
    let ax = AxChecker::new(&t.program).allowed();
    let op = conform::operational_outcomes(&t.program);
    let mut failures = Vec::new();
    for (side, set) in [("axiomatic", &ax), ("operational", &op)] {
        for obs in &t.allowed {
            if !set.iter().any(|o| obs.matches(o)) {
                failures.push(format!(
                    "{side}: expected-allowed observable {obs:?} never occurs"
                ));
            }
        }
        for obs in &t.forbidden {
            if set.iter().any(|o| obs.matches(o)) {
                failures.push(format!(
                    "{side}: expected-forbidden observable {obs:?} occurs"
                ));
            }
        }
    }
    let conformant = matches!(conform::check(&t.program), Verdict::Match);
    if !conformant {
        failures.push("operational and axiomatic outcome sets differ".to_string());
    }
    CorpusResult {
        name: t.name,
        outcomes: ax.len(),
        failures,
        conformant,
    }
}

/// Runs the whole corpus, in declaration order.
pub fn run_corpus() -> Vec<CorpusResult> {
    corpus().iter().map(run_test).collect()
}

/// The full corpus run, ready for rendering — what `jaaru_cli litmus
/// corpus` prints and what a served `litmus` job replies with. Carries
/// no wall-clock, so the JSON view is byte-identical across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusReport {
    /// One result per corpus entry, in declaration order.
    pub results: Vec<CorpusResult>,
}

impl CorpusReport {
    /// All entries passed (expectations hold, checkers agree).
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(CorpusResult::passed)
    }

    /// Human-readable report, one line per entry plus failure details.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.results {
            let _ = writeln!(
                out,
                "{} {:<22} {:>3} outcome(s)",
                if r.passed() { "PASS" } else { "FAIL" },
                r.name,
                r.outcomes,
            );
            for f in &r.failures {
                let _ = writeln!(out, "     {f}");
            }
        }
        let passed = self.results.iter().filter(|r| r.passed()).count();
        let _ = writeln!(out, "corpus: {passed}/{} passed", self.results.len());
        out
    }

    /// Machine-readable report; deterministic bytes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"tests\": {},", self.results.len());
        let passed = self.results.iter().filter(|r| r.passed()).count();
        let _ = writeln!(out, "  \"passed\": {passed},");
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            let failures: Vec<String> = r.failures.iter().map(|f| json_string(f)).collect();
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"passed\": {}, \"conformant\": {}, \
                 \"outcomes\": {}, \"failures\": [{}]}}{comma}",
                json_string(r.name),
                r.passed(),
                r.conformant,
                r.outcomes,
                failures.join(", ")
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Runs the whole corpus and wraps it for rendering.
pub fn run_corpus_report() -> CorpusReport {
    CorpusReport {
        results: run_corpus(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique() {
        let mut names: Vec<&str> = corpus().iter().map(|t| t.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn full_corpus_passes() {
        for r in run_corpus() {
            assert!(r.passed(), "{}: {:?}", r.name, r.failures);
        }
    }
}

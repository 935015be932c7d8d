//! The Figure 14 workloads: the 15 fixed registry programs, each checked
//! by a fresh `ModelChecker` with the configuration a `jaaru_cli check`
//! user gets, and its report rendered.

use std::hint::black_box;
use std::time::{Duration, Instant};

use jaaru::{CheckReport, Config, ModelChecker, Program};
use jaaru_bench::registry::{lockfree_fixed_cases, pmdk_fixed_cases, recipe_fixed_cases};
use jaaru_serve::{job_config, json, Request, ServeOptions};

use crate::layers::{Layers, TracedProgram};
use crate::util::{fnv1a, ratio, relative_sites, HostSpeed, FNV_OFFSET};
use crate::{Layer, Pass};

/// Exploration depth: Figure 14's headline run, or deep exploration.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// `max_failures` 1 at 16 keys, product defaults (prune on).
    One,
    /// `max_failures` 3 at 1 key, prune off (the library default).
    Three,
}

struct Input {
    name: &'static str,
    program: Box<dyn Program + Sync>,
    config: Config,
}

/// The inputs of one run.
pub struct Fig14 {
    depth: Depth,
    inputs: Vec<Input>,
}

/// A fixed program that reports a bug at the seed, with the message
/// that identifies it. Such an answer is still counted as failed; it
/// leaves `correct` alone because it is already known. The program must
/// keep reporting it: a clean answer or another bug is unexpected, so a
/// checker that stops finding the defect is caught rather than scored
/// as a gain. A change that fixes the program removes its entry.
struct KnownDefect {
    depth: Depth,
    programs: &'static [&'static str],
    needle: &'static str,
}

const KNOWN_DEFECTS: &[KnownDefect] = &[
    // From 11 keys up: an allocator store that is flushed only after
    // the commit store lets recovery follow a stale pointer.
    KnownDefect {
        depth: Depth::One,
        programs: &["FAST_FAIR"],
        needle: "fast_fair.rs:104",
    },
    // After two crashes pmalloc's cursor check fires (snapshots off
    // gives the same answer).
    KnownDefect {
        depth: Depth::Three,
        programs: &["Btree", "CTree", "RBTree", "Hashmap_atomic", "Hashmap_tx"],
        needle: "allocation cursor lost more than one block",
    },
];

/// The message of the defect `name` is known to report at `depth`.
fn known_defect(depth: Depth, name: &str) -> Option<&'static str> {
    KNOWN_DEFECTS
        .iter()
        .find(|k| k.depth == depth && k.programs.contains(&name))
        .map(|k| k.needle)
}

impl Fig14 {
    /// The programs are Figure 14's fixed rows, checked in registry order
    /// for every seed: peak memory depends on the order of the checks
    /// (17.2–19.7 MB over ten shuffled orders on `fig14-d1`), so a seeded
    /// order would only add spread.
    pub fn setup(depth: Depth) -> Result<Fig14, String> {
        let keys = match depth {
            Depth::One => 16,
            Depth::Three => 1,
        };
        let mut inputs = Vec::new();
        for (name, program) in recipe_fixed_cases(keys)
            .into_iter()
            .chain(pmdk_fixed_cases(keys))
            .chain(lockfree_fixed_cases())
        {
            // The configuration of a parsed `check` spec, so a change to
            // product defaults shows up here.
            let prune = depth == Depth::One;
            let line = format!(
                "{{\"kind\":\"check\",\"benchmark\":\"{name}\",\"keys\":{keys},\"prune\":{prune}}}"
            );
            let value = json::parse(&line).map_err(|e| format!("{line}: {e}"))?;
            let spec = match Request::from_value(&value, ServeOptions::default().default_jobs) {
                Ok(Request::Job(spec)) => spec,
                other => return Err(format!("{line}: not a job: {other:?}")),
            };
            let mut config = job_config(&spec, None);
            if depth == Depth::Three {
                config.max_failures(3);
            }
            inputs.push(Input {
                name,
                program,
                config,
            });
        }
        Ok(Fig14 { depth, inputs })
    }

    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Checks and renders every input once.
    pub fn pass(&self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut hash = FNV_OFFSET;
        let mut totals = Totals::default();
        let mut host = HostSpeed::new();
        for input in &self.inputs {
            let start = Instant::now();
            let checker = ModelChecker::new(input.config.clone());
            let layers = Layers::default();
            let report = if traced {
                checker.check(&TracedProgram {
                    inner: &*input.program,
                    layers: &layers,
                })
            } else {
                checker.check(&*input.program)
            };
            let checked = start.elapsed();
            let rendered = black_box(report.to_canonical_json());
            let latency = start.elapsed();
            let scale = host.scale();
            pass.raw_wall += latency;
            pass.jobs.push(latency.mul_f64(scale));
            if traced {
                totals.add(&report, &layers, [checked, latency - checked], scale);
                totals.render_bytes += relative_sites(&rendered).len() as u64;
                pass.span_errors += nesting_errors(&layers, checked);
            }
            self.judge(input.name, &report, &mut pass);
            fnv1a(&mut hash, input.name.as_bytes());
            fnv1a(&mut hash, relative_sites(&report.digest()).as_bytes());
        }
        pass.wall = pass.jobs.iter().sum();
        pass.refs = host.refs;
        pass.disturbed = host.disturbed;
        pass.fingerprint = hash;
        if traced {
            pass.layers = totals.metrics();
        }
        pass
    }

    /// Known answer: every fixed program is clean and untruncated, and
    /// every known defect is still reported.
    fn judge(&self, name: &str, report: &CheckReport, pass: &mut Pass) {
        pass.attempted += 1;
        let known = known_defect(self.depth, name);
        if let Some(bug) = report.bugs.first() {
            pass.wrong += 1;
            let expected = known.is_some_and(|needle| bug.to_string().contains(needle));
            if !expected {
                pass.unexpected += 1;
            }
            let tag = if expected {
                "known defect"
            } else {
                "UNEXPECTED"
            };
            pass.notes.push(relative_sites(&format!(
                "wrong verdict ({tag}): {name}: {bug}"
            )));
        } else if report.truncated {
            pass.undecided += 1;
            pass.unexpected += 1;
            pass.notes
                .push(format!("truncated: {name}: {}", report.summary()));
        } else if let Some(needle) = known {
            pass.unexpected += 1;
            pass.notes.push(format!(
                "UNEXPECTED: known defect no longer reported: {name} ({needle})"
            ));
        }
    }
}

/// Spans of one check that do not nest: operations outside the guest
/// runs, or runs outside `check()`.
fn nesting_errors(layers: &Layers, check: Duration) -> u64 {
    u64::from(layers.ops_time() > layers.runs()) + u64::from(layers.runs() > check)
}

/// Per-layer sums over one traced pass; times are corrected for host
/// speed with the factor of the check they belong to.
#[derive(Default)]
struct Totals {
    check: Duration,
    render: Duration,
    render_bytes: u64,
    runs: Duration,
    runs_pre: u64,
    runs_post: u64,
    /// Time, calls and bytes of each `Layers::ops` entry, in its order.
    ops: [(Duration, u64, u64); 6],
    scenarios: u64,
    executions: u64,
    replayed: u64,
    restored: u64,
    failure_points: u64,
    choice_points: u64,
    max_rf_set: u64,
    snap_hits: u64,
    snap_misses: u64,
    snap_evictions: u64,
    snap_peak: u64,
    prune_rounds: u64,
    prune_skipped: u64,
    prune_final: u64,
}

impl Totals {
    fn add(&mut self, report: &CheckReport, layers: &Layers, spans: [Duration; 2], scale: f64) {
        let [check, render] = spans;
        self.check += check.mul_f64(scale);
        self.render += render.mul_f64(scale);
        self.runs += layers.runs().mul_f64(scale);
        self.runs_pre += layers.run_pre.calls();
        self.runs_post += layers.run_post.calls();
        for (slot, acc) in self.ops.iter_mut().zip(layers.ops()) {
            slot.0 += acc.time().mul_f64(scale);
            slot.1 += acc.calls();
            slot.2 += acc.bytes();
        }
        let s = &report.stats;
        self.scenarios += s.scenarios;
        self.executions += s.executions;
        self.replayed += s.executions_replayed;
        self.restored += s.executions_restored;
        self.failure_points += s.failure_points;
        self.choice_points += s.load_choice_points;
        self.max_rf_set = self.max_rf_set.max(s.max_rf_set as u64);
        if let Some(snap) = &report.snapshots {
            self.snap_hits += snap.hits;
            self.snap_misses += snap.misses;
            self.snap_evictions += snap.evictions;
            self.snap_peak = self.snap_peak.max(snap.peak_bytes as u64);
        }
        if let Some(slice) = &report.slice {
            self.prune_rounds += slice.rounds;
            self.prune_skipped += slice.points_skipped;
            self.prune_final += slice.final_round_executions;
        }
    }

    fn metrics(&self) -> Vec<Layer> {
        let secs = |d: Duration| d.as_secs_f64();
        let ops_time: Duration = self.ops.iter().map(|op| op.0).sum();
        let [store, flush, fence, rmw, load_pre, load_post] = self.ops;
        vec![
            ("workloads.self_s", secs(self.runs.saturating_sub(ops_time))),
            ("workloads.runs_pre", self.runs_pre as f64),
            ("workloads.runs_post", self.runs_post as f64),
            ("tso.store_s", secs(store.0)),
            ("tso.store_calls", store.1 as f64),
            ("tso.store_bytes", store.2 as f64),
            ("tso.flush_s", secs(flush.0)),
            ("tso.flush_calls", flush.1 as f64),
            ("tso.fence_s", secs(fence.0)),
            ("tso.fence_calls", fence.1 as f64),
            ("tso.rmw_s", secs(rmw.0)),
            ("tso.rmw_calls", rmw.1 as f64),
            ("tso.load_pre_s", secs(load_pre.0)),
            ("tso.load_pre_calls", load_pre.1 as f64),
            ("rf.load_s", secs(load_post.0)),
            ("rf.load_calls", load_post.1 as f64),
            ("rf.load_bytes", load_post.2 as f64),
            ("rf.choice_points", self.choice_points as f64),
            ("rf.max_set", self.max_rf_set as f64),
            ("core.self_s", secs(self.check.saturating_sub(self.runs))),
            ("core.scenarios", self.scenarios as f64),
            ("core.executions", self.executions as f64),
            ("core.executions_replayed", self.replayed as f64),
            ("core.executions_restored", self.restored as f64),
            ("core.failure_points", self.failure_points as f64),
            ("snapshot.hits", self.snap_hits as f64),
            ("snapshot.misses", self.snap_misses as f64),
            ("snapshot.evictions", self.snap_evictions as f64),
            ("snapshot.peak_bytes", self.snap_peak as f64),
            (
                "snapshot.hit_ratio",
                ratio(self.snap_hits, self.snap_hits + self.snap_misses),
            ),
            ("prune.rounds", self.prune_rounds as f64),
            ("prune.points_skipped", self.prune_skipped as f64),
            ("prune.final_round_executions", self.prune_final as f64),
            ("report.render_s", secs(self.render)),
            ("report.render_bytes", self.render_bytes as f64),
            ("trace.check_s", secs(self.check)),
        ]
    }
}

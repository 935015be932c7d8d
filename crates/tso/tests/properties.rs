//! Property tests for the reads-from computation and constraint
//! refinement, against a brute-force single-line model.
//!
//! The model: a cache line's persistent state is determined by one
//! *writeback cut* `w` — the position of the last writeback — which the
//! flush history constrains to `w ≥ σ(last clflush)`. A byte's
//! persistent value is the newest store at or before `w`. The lazy
//! algorithm (Figure 9/10) must offer exactly the values the legal cuts
//! produce, both before and after refinement commits a byte to a value.
//!
//! Event sequences are generated with a seeded SplitMix64 generator (the
//! workspace builds offline, so no proptest); a failing case prints the
//! seed and event list that reproduce it.

use std::collections::BTreeSet;
use std::panic::Location;

use jaaru_pmem::{CacheLineId, PmAddr};
use jaaru_tso::{
    do_read, line_parts, read_pre_failure, read_pre_failure_into, read_pre_failure_line,
    EvictionPolicy, ExecutionStorage, FbEntry, FlushInterval, RfCandidate, RfSource, Seq, ThreadId,
    TsoMachine,
};

const LINE: CacheLineId = CacheLineId::new(1);
const SLOTS: u64 = 8;

struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Store(u64, u8), // slot, value
    Flush,
}

/// Stores outnumber flushes 4:1, mirroring the original generator.
fn random_events(rng: &mut Rng, min_len: u64, max_len: u64) -> Vec<Ev> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len)
        .map(|_| {
            if rng.below(5) < 4 {
                Ev::Store(rng.below(SLOTS), (1 + rng.below(200)) as u8)
            } else {
                Ev::Flush
            }
        })
        .collect()
}

fn slot_addr(s: u64) -> PmAddr {
    LINE.base() + s * 8
}

/// Applies the events, returning the storage plus the model's
/// bookkeeping: per-store (seq, slot, value) and the last flush seq.
fn build(events: &[Ev]) -> (ExecutionStorage, Vec<(u64, u64, u8)>, u64) {
    let mut st = ExecutionStorage::new();
    let mut sigma = Seq::ZERO;
    let mut stores = Vec::new();
    let mut last_flush = 0;
    for &ev in events {
        match ev {
            Ev::Store(s, v) => {
                let seq = sigma.bump();
                st.record_store(slot_addr(s), &[v], ThreadId(0), Location::caller(), seq);
                stores.push((seq.value(), s, v));
            }
            Ev::Flush => {
                let seq = sigma.bump();
                st.record_flush(LINE, seq);
                last_flush = seq.value();
            }
        }
    }
    (st, stores, last_flush)
}

/// The model: all legal writeback cuts under the current `[begin, end)`.
fn legal_cuts(stores: &[(u64, u64, u8)], begin: u64, end: u64) -> Vec<u64> {
    let mut cuts = vec![begin];
    for &(seq, _, _) in stores {
        if seq > begin && seq < end {
            cuts.push(seq);
        }
    }
    cuts
}

/// The model's value of a slot at cut `w`.
fn value_at(stores: &[(u64, u64, u8)], slot: u64, w: u64) -> u8 {
    stores
        .iter()
        .filter(|&&(seq, s, _)| s == slot && seq <= w)
        .max_by_key(|&&(seq, _, _)| seq)
        .map(|&(_, _, v)| v)
        .unwrap_or(0)
}

fn rf_values(stack: &[ExecutionStorage], slot: u64) -> BTreeSet<u8> {
    read_pre_failure(stack, slot_addr(slot))
        .iter()
        .map(|c| c.value)
        .collect()
}

/// Before any refinement, every slot's candidate set equals the set
/// of values over all legal cuts.
#[test]
fn candidates_match_brute_force() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let events = random_events(&mut rng, 0, 12);
        let (st, stores, last_flush) = build(&events);
        let stack = vec![st];
        for slot in 0..SLOTS {
            let model: BTreeSet<u8> = legal_cuts(&stores, last_flush, u64::MAX)
                .into_iter()
                .map(|w| value_at(&stores, slot, w))
                .collect();
            assert_eq!(
                rf_values(&stack, slot),
                model,
                "seed {seed}: slot {slot} of {events:?}"
            );
        }
    }
}

/// After committing one byte to one candidate, every other slot's
/// candidate set equals the model restricted to the cuts consistent
/// with that choice.
#[test]
fn refinement_matches_brute_force() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed ^ 0xdead_beef);
        let events = random_events(&mut rng, 1, 12);
        let slot_pick = rng.below(SLOTS);
        let cand_pick = rng.below(8) as usize;
        let (st, stores, last_flush) = build(&events);
        let mut stack = vec![st];
        let cands = read_pre_failure(&stack, slot_addr(slot_pick));
        let chosen: RfCandidate = cands[cand_pick % cands.len()];
        do_read(&mut stack, slot_addr(slot_pick), chosen);

        // Model restriction: cuts where the chosen store is the newest
        // at-or-before store for the slot (or, for the initial value,
        // cuts before the slot's first store).
        let restricted: Vec<u64> = legal_cuts(&stores, last_flush, u64::MAX)
            .into_iter()
            .filter(|&w| {
                let newest = stores
                    .iter()
                    .filter(|&&(seq, s, _)| s == slot_pick && seq <= w)
                    .max_by_key(|&&(seq, _, _)| seq)
                    .map(|&(seq, _, _)| seq);
                newest.unwrap_or(0) == chosen.seq.value()
            })
            .collect();
        assert!(
            !restricted.is_empty(),
            "seed {seed}: chosen candidate must be realizable"
        );

        for slot in 0..SLOTS {
            let model: BTreeSet<u8> = restricted
                .iter()
                .map(|&w| value_at(&stores, slot, w))
                .collect();
            assert_eq!(
                rf_values(&stack, slot),
                model,
                "seed {seed}: slot {slot} after committing slot {slot_pick} to {chosen:?} in {events:?}"
            );
        }
    }
}

/// Iterated refinement never diverges: committing every slot in
/// order leaves a single consistent snapshot (every candidate set is
/// a singleton afterwards), and that snapshot is one of the model's
/// legal cut snapshots.
#[test]
fn full_refinement_converges_to_one_snapshot() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed ^ 0x5eed_cafe);
        let events = random_events(&mut rng, 1, 12);
        let (st, stores, last_flush) = build(&events);
        let mut stack = vec![st];
        let mut snapshot = Vec::new();
        for slot in 0..SLOTS {
            let cands = read_pre_failure(&stack, slot_addr(slot));
            let chosen = cands[0]; // newest-first default
            do_read(&mut stack, slot_addr(slot), chosen);
            snapshot.push(chosen.value);
        }
        // Re-reading every slot now yields exactly the committed values.
        for slot in 0..SLOTS {
            let vals = rf_values(&stack, slot);
            assert_eq!(vals.len(), 1, "seed {seed}");
            assert!(vals.contains(&snapshot[slot as usize]), "seed {seed}");
        }
        // And the snapshot equals the model at some legal cut.
        let ok = legal_cuts(&stores, last_flush, u64::MAX)
            .into_iter()
            .any(|w| (0..SLOTS).all(|s| value_at(&stores, s, w) == snapshot[s as usize]));
        assert!(
            ok,
            "seed {seed}: snapshot {snapshot:?} not a legal cut of {events:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Stacks of executions storing 1/2/4/8 bytes across two adjacent lines.
// ---------------------------------------------------------------------

/// The two lines the stacked model covers; stores may straddle them.
const LINES: [CacheLineId; 2] = [CacheLineId::new(1), CacheLineId::new(2)];

/// One crashed execution of the stacked model: its stores as `(seq,
/// first byte, bytes)` and the newest flush of each of `LINES`.
struct Exec {
    stores: Vec<(u64, u64, Vec<u8>)>,
    flushed: [u64; 2],
}

impl Exec {
    /// The newest store to byte `addr` at or before cut `w`: its seq and
    /// the value it wrote there.
    fn newest(&self, addr: u64, w: u64) -> Option<(u64, u8)> {
        self.stores
            .iter()
            .rev()
            .filter(|(seq, _, _)| *seq <= w)
            .find_map(|(seq, first, bytes)| {
                let i = addr.checked_sub(*first)?;
                bytes.get(i as usize).map(|&v| (*seq, v))
            })
    }

    /// The cut positions of `line` that give distinct persistent states:
    /// the flush, and every store to the line after it.
    fn cuts(&self, line: usize) -> Vec<u64> {
        let begin = self.flushed[line];
        let mut cuts = vec![begin];
        for (seq, first, bytes) in &self.stores {
            let last = first + bytes.len() as u64 - 1;
            let touches = (*first..=last).any(|a| PmAddr::new(a).cache_line() == LINES[line]);
            if *seq > begin && touches {
                cuts.push(*seq);
            }
        }
        cuts
    }
}

/// Random executions: 1–3 of them, each 0–7 operations, four stores to
/// each flush. A quarter of the wider stores straddle the line boundary.
fn random_stack(rng: &mut Rng) -> (Vec<ExecutionStorage>, Vec<Exec>) {
    let depth = 1 + rng.below(3);
    let mut stack = Vec::new();
    let mut model = Vec::new();
    for _ in 0..depth {
        let mut st = ExecutionStorage::new();
        let mut sigma = Seq::ZERO;
        let mut exec = Exec {
            stores: Vec::new(),
            flushed: [0; 2],
        };
        for _ in 0..rng.below(8) {
            let seq = sigma.bump();
            if rng.below(5) < 4 {
                let width = [1, 2, 4, 8][rng.below(4) as usize];
                let boundary = LINES[1].base().offset();
                let first = if width > 1 && rng.below(4) == 0 {
                    boundary - 1 - rng.below(width - 1)
                } else {
                    LINES[0].base().offset() + rng.below(128 - width + 1)
                };
                let bytes: Vec<u8> = (0..width).map(|_| 1 + rng.below(200) as u8).collect();
                st.record_store(
                    PmAddr::new(first),
                    &bytes,
                    ThreadId(0),
                    Location::caller(),
                    seq,
                );
                exec.stores.push((seq.value(), first, bytes));
            } else {
                let line = rng.below(2) as usize;
                st.record_flush(LINES[line], seq);
                exec.flushed[line] = seq.value();
            }
        }
        stack.push(st);
        model.push(exec);
    }
    (stack, model)
}

/// What a recovery read of a byte observes: the executions' sources, as
/// `(exec, seq)`, or initial memory.
type Source = Option<(usize, u64)>;

/// The byte's source and value when each execution's last writeback of
/// the byte's line happened at `cut[exec]`.
fn persisted(model: &[Exec], addr: u64, cut: &[u64]) -> (Source, u8) {
    for (exec, e) in model.iter().enumerate().rev() {
        if let Some((seq, v)) = e.newest(addr, cut[exec]) {
            return (Some((exec, seq)), v);
        }
    }
    (None, 0)
}

/// Every combination of per-execution cuts of one line.
fn all_cuts(model: &[Exec], line: usize) -> Vec<Vec<u64>> {
    let mut combos = vec![Vec::new()];
    for e in model {
        combos = combos
            .into_iter()
            .flat_map(|c| {
                e.cuts(line).into_iter().map(move |w| {
                    let mut c = c.clone();
                    c.push(w);
                    c
                })
            })
            .collect();
    }
    combos
}

fn line_bytes(line: usize) -> impl Iterator<Item = u64> {
    let base = LINES[line].base().offset();
    base..base + 64
}

fn intervals(stack: &[ExecutionStorage]) -> Vec<FlushInterval> {
    stack
        .iter()
        .flat_map(|st| LINES.map(|l| st.interval(l)))
        .collect()
}

/// Checks every byte of both lines against the model's allowed cuts, and
/// that each single-candidate read would refine nothing.
fn check_all_bytes(
    stack: &[ExecutionStorage],
    model: &[Exec],
    allowed: &[Vec<Vec<u64>>; 2],
    ctx: &str,
) {
    let mut cands = Vec::new();
    for (line, cuts) in allowed.iter().enumerate() {
        for addr in line_bytes(line) {
            read_pre_failure_into(stack, PmAddr::new(addr), &mut cands);
            let lazy: BTreeSet<u8> = cands.iter().map(|c| c.value).collect();
            let brute: BTreeSet<u8> = cuts
                .iter()
                .map(|cut| persisted(model, addr, cut).1)
                .collect();
            assert_eq!(lazy, brute, "{ctx}: byte {addr}");
            if let [only] = cands[..] {
                let mut after = stack.to_vec();
                do_read(&mut after, PmAddr::new(addr), only);
                assert_eq!(
                    intervals(&after),
                    intervals(stack),
                    "{ctx}: the sole candidate of byte {addr} refined an interval"
                );
            }
        }
    }
}

/// Per byte, the lazy candidate sets of a stack of executions equal the
/// brute-force model, before refinement and after each of up to four
/// committed recovery reads, and every single-candidate read leaves every
/// interval as it was.
#[test]
fn stacked_multibyte_candidates_match_brute_force() {
    let mut singles = 0;
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed ^ 0x57ac_4ed0);
        let (mut stack, model) = random_stack(&mut rng);
        let mut allowed = [all_cuts(&model, 0), all_cuts(&model, 1)];
        let ctx = format!("seed {seed}");
        check_all_bytes(&stack, &model, &allowed, &ctx);
        for step in 0..4 {
            let line = rng.below(2) as usize;
            let addr = LINES[line].base().offset() + rng.below(64);
            let cands = read_pre_failure(&stack, PmAddr::new(addr));
            singles += usize::from(cands.len() == 1);
            let chosen: RfCandidate = cands[rng.below(cands.len() as u64) as usize];
            do_read(&mut stack, PmAddr::new(addr), chosen);
            let source = match chosen.source {
                RfSource::Initial => None,
                RfSource::Store { exec, .. } => Some((exec, chosen.seq.value())),
            };
            allowed[line].retain(|cut| persisted(&model, addr, cut).0 == source);
            assert!(!allowed[line].is_empty(), "{ctx}: {chosen:?} is realizable");
            let ctx = format!("{ctx}, step {step}: byte {addr} read {chosen:?}");
            check_all_bytes(&stack, &model, &allowed, &ctx);
        }
    }
    assert!(singles > 100, "single-candidate reads exercised: {singles}");
}

/// A random mask of wanted line bytes: the whole line, one contiguous run
/// (what an access covers), or any subset.
fn random_want(rng: &mut Rng) -> u64 {
    match rng.below(3) {
        0 => u64::MAX,
        1 => {
            let off = rng.below(64);
            let len = 1 + rng.below(64 - off);
            (u64::MAX >> (64 - len)) << off
        }
        _ => rng.next_u64(),
    }
}

/// Never a stored value (`random_stack` stores 1..=200) nor initial 0.
const UNTOUCHED: u8 = 0xff;

/// Reads a random mask of each of `LINES` with [`read_pre_failure_line`]
/// and checks it against the per-byte [`read_pre_failure`]: the returned
/// mask is exactly the wanted bytes with several candidates, every other
/// wanted byte holds its sole candidate's value, and no byte outside the
/// mask is written. Returns each byte's sole candidate value (`None` for a
/// byte with several), both lines in address order.
fn check_line_reads(
    stack: &[ExecutionStorage],
    rng: &mut Rng,
    ctx: &str,
    wanted_multi: &mut usize,
) -> Vec<Option<u8>> {
    let mut sole = Vec::new();
    for line in LINES {
        let want = random_want(rng);
        let mut vals = [UNTOUCHED; 64];
        let multi = read_pre_failure_line(stack, line, want, &mut vals);
        for (off, &val) in vals.iter().enumerate() {
            let addr = line.base() + off as u64;
            let cands = read_pre_failure(stack, addr);
            let single = (cands.len() == 1).then(|| cands[0].value);
            sole.push(single);
            let bit = 1 << off;
            if want & bit == 0 {
                assert_eq!(val, UNTOUCHED, "{ctx}: unwanted byte {addr} written");
                assert_eq!(multi & bit, 0, "{ctx}: unwanted byte {addr} in the mask");
                continue;
            }
            assert_eq!(
                multi & bit != 0,
                single.is_none(),
                "{ctx}: byte {addr} with candidates {cands:?}"
            );
            *wanted_multi += usize::from(single.is_none());
            if let Some(v) = single {
                assert_eq!(val, v, "{ctx}: value of byte {addr}");
            }
        }
    }
    sole
}

/// The line resolver agrees with the per-byte reference on random stacks,
/// before and after each of up to four committed recovery reads, and a
/// byte with a single candidate keeps it, with its value, through every
/// refinement.
#[test]
fn line_reads_match_per_byte_reads() {
    let (mut wanted_multi, mut refinements) = (0, 0);
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed ^ 0x11e_4ead);
        let (mut stack, _) = random_stack(&mut rng);
        let ctx = format!("seed {seed}");
        let mut sole = check_line_reads(&stack, &mut rng, &ctx, &mut wanted_multi);
        for step in 0..4 {
            // A byte with several candidates where there is one, so that
            // reads mostly refine.
            let multi: Vec<u64> = (0..128).filter(|&i| sole[i as usize].is_none()).collect();
            let byte = match multi.len() {
                0 => rng.below(128),
                n => multi[rng.below(n as u64) as usize],
            };
            let addr = LINES[0].base() + byte;
            let cands = read_pre_failure(&stack, addr);
            let chosen = cands[rng.below(cands.len() as u64) as usize];
            do_read(&mut stack, addr, chosen);
            refinements += usize::from(cands.len() > 1);
            let ctx = format!("{ctx}, step {step}: byte {addr} read {chosen:?}");
            let after = check_line_reads(&stack, &mut rng, &ctx, &mut wanted_multi);
            for (byte, (was, now)) in (LINES[0].base().offset()..).zip(sole.iter().zip(&after)) {
                if was.is_some() {
                    assert_eq!(now, was, "{ctx}: byte {byte} lost its sole candidate");
                }
            }
            sole = after;
        }
    }
    assert!(wanted_multi > 1000, "multi-candidate bytes: {wanted_multi}");
    assert!(refinements > 500, "refining reads: {refinements}");
}

/// A line image with no bytes of the running execution serves a recovery
/// execution's loads as the per-byte reference would, on random stacks
/// read by random loads of random masks of either line, as the checker
/// drives it: each byte the image settles holds the value of the sole
/// candidate [`read_pre_failure`] gives it, every byte with several
/// candidates comes back unsettled, and each unsettled byte, low first,
/// commits a random candidate through [`do_read`] and is settled at its
/// value. A line is resolved on its first read after
/// [`TsoMachine::reset`] only. One machine serves every stack, reset
/// between them.
#[test]
fn settled_lines_serve_only_sole_candidates() {
    let (mut served, mut unsettled, mut refinements) = (0, 0, 0);
    let mut machine = TsoMachine::new(EvictionPolicy::Eager);
    let t = ThreadId(0);
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed ^ 0x5e_771e_d11e);
        let (mut stack, _) = random_stack(&mut rng);
        machine.reset(EvictionPolicy::Eager);
        let mut resolved = [false; 2];
        for step in 0..12 {
            let which = rng.below(2) as usize;
            let line = LINES[which];
            let want = random_want(&mut rng);
            let ctx = format!("seed {seed}, step {step}: {line:?} mask {want:#x}");
            let mut vals = [UNTOUCHED; 64];
            let (open, resolve) = machine.load(t, &stack, line, want, &mut vals);
            assert_eq!(resolve, !resolved[which], "{ctx}: resolved");
            resolved[which] = true;
            assert_eq!(open & !want, 0, "{ctx}: unwanted bytes left open");
            for (off, &val) in vals.iter().enumerate() {
                let (addr, bit) = (line.base() + off as u64, 1u64 << off);
                if want & bit == 0 || open & bit != 0 {
                    assert_eq!(val, UNTOUCHED, "{ctx}: byte {addr} written");
                    continue;
                }
                let cands = read_pre_failure(&stack, addr);
                assert_eq!(cands.len(), 1, "{ctx}: byte {addr} settled at {val}");
                assert_eq!(val, cands[0].value, "{ctx}: value of byte {addr}");
                served += 1;
            }
            for off in (0..64).filter(|off| open >> off & 1 != 0) {
                let addr = line.base() + off as u64;
                let cands = read_pre_failure(&stack, addr);
                let chosen = cands[rng.below(cands.len() as u64) as usize];
                if cands.len() > 1 {
                    do_read(&mut stack, addr, chosen);
                    refinements += 1;
                }
                machine.settle(line, off, chosen.value);
                unsettled += 1;
            }
        }
    }
    assert!(served > 50_000, "settled bytes served: {served}");
    assert!(unsettled > 2000, "unsettled bytes read: {unsettled}");
    assert!(refinements > 500, "refining reads: {refinements}");
}

/// The lines of the line-image test: three groups of lines 64 apart,
/// which share a slot of the image, and neighbours an access may
/// straddle.
const IMAGE_TEST_LINES: [u64; 8] = [1, 2, 3, 65, 66, 67, 129, 130];

/// One operation of one thread in the line-image test.
#[derive(Clone, Copy, Debug)]
enum ImageOp {
    /// A store of `len` bytes from `value` on at `addr`.
    Store {
        addr: u64,
        len: u64,
        value: u8,
    },
    Load {
        addr: u64,
        len: u64,
    },
    /// A locked exchange of 8 bytes: fence, load, store, fence.
    Rmw {
        addr: u64,
        value: u8,
    },
    Clflush(u64),
    Clflushopt(u64),
    Sfence,
    Mfence,
    /// A power failure: the execution joins the stack.
    Crash,
}

/// An access of 1 or 8 bytes in one of the test lines, or of 2 to 8
/// bytes straddling one into the next.
fn random_access(rng: &mut Rng) -> (u64, u64) {
    let line = IMAGE_TEST_LINES[rng.below(IMAGE_TEST_LINES.len() as u64) as usize];
    let base = line * 64;
    match rng.below(5) {
        0 | 1 => (base + rng.below(64), 1),
        2 if IMAGE_TEST_LINES.contains(&(line + 1)) => {
            let len = 2 + rng.below(7);
            (base + 64 - 1 - rng.below(len - 1), len)
        }
        _ => (base + 8 * rng.below(8), 8),
    }
}

/// 30 to 90 operations of one to three threads, loads and stores the
/// most, with up to two power failures after the first ten.
fn random_image_program(rng: &mut Rng) -> Vec<(ThreadId, ImageOp)> {
    let threads = 1 + rng.below(3);
    let len = 30 + rng.below(61);
    let crashes: Vec<u64> = (0..rng.below(3))
        .map(|_| 10 + rng.below(len - 10))
        .collect();
    let line = |rng: &mut Rng| IMAGE_TEST_LINES[rng.below(IMAGE_TEST_LINES.len() as u64) as usize];
    (0..len)
        .map(|k| {
            let op = if crashes.contains(&k) {
                ImageOp::Crash
            } else {
                match rng.below(16) {
                    0..=4 => {
                        let (addr, len) = random_access(rng);
                        let value = rng.below(250) as u8;
                        ImageOp::Store { addr, len, value }
                    }
                    5..=10 => {
                        let (addr, len) = random_access(rng);
                        ImageOp::Load { addr, len }
                    }
                    11 => ImageOp::Rmw {
                        addr: line(rng) * 64 + 8 * rng.below(8),
                        value: rng.below(250) as u8,
                    },
                    12 => ImageOp::Clflush(line(rng)),
                    13 => ImageOp::Clflushopt(line(rng)),
                    14 => ImageOp::Sfence,
                    _ => ImageOp::Mfence,
                }
            };
            (ThreadId(rng.below(threads) as u32), op)
        })
        .collect()
}

/// Counts of what the line-image test exercised.
#[derive(Debug, Default)]
struct ImageCounts {
    probe_hits: usize,
    slow_loads: usize,
    buffered_loads: usize,
    resolves: usize,
    /// Resolves of a line this execution had resolved already: another
    /// line took its slot in between.
    conflict_resolves: usize,
    /// Stores to a line after this execution resolved it.
    stores_after_resolve: usize,
    choices: usize,
    crashes: usize,
}

/// A machine checked load by load against the reference: the running
/// execution's cache and store buffers ([`TsoMachine::read_current`]),
/// then the sole [`read_pre_failure`] candidate, and the two-step path's
/// resolves, which a table of resolved lines alone makes.
struct ImageCheck {
    machine: TsoMachine,
    stack: Vec<ExecutionStorage>,
    /// The two-step path's direct-mapped table of resolved lines.
    two_step: [Option<CacheLineId>; 64],
    /// The lines resolved in the running execution.
    resolved: BTreeSet<u64>,
    counts: ImageCounts,
}

impl ImageCheck {
    fn reset(&mut self, policy: EvictionPolicy) {
        self.machine.reset(policy);
        self.stack.clear();
        self.two_step = [None; 64];
        self.resolved.clear();
    }

    fn crash(&mut self) {
        let crashed = self.machine.crash_and_reset();
        self.stack.push(crashed);
        self.two_step = [None; 64];
        self.resolved.clear();
        self.counts.crashes += 1;
    }

    fn store(&mut self, t: ThreadId, addr: u64, bytes: &[u8]) {
        let lines = addr / 64..=(addr + bytes.len() as u64 - 1) / 64;
        if lines.into_iter().any(|l| self.resolved.contains(&l)) {
            self.counts.stores_after_resolve += 1;
        }
        self.machine
            .store(t, PmAddr::new(addr), bytes, Location::caller());
    }

    /// What the reference reads of the bytes `want` of `line`, with the
    /// mask of those that come from the stack, and whether the two-step
    /// path resolves the line for them.
    fn reference(&mut self, t: ThreadId, line: CacheLineId, want: u64) -> ([u8; 64], u64, bool) {
        let mut vals = [0; 64];
        let missed = self.machine.read_current(t, line, want, &mut vals);
        let slot = &mut self.two_step[line.index() as usize % 64];
        let resolve = missed != 0 && *slot != Some(line);
        if resolve {
            *slot = Some(line);
        }
        (vals, missed, resolve)
    }

    /// Checks a byte the machine answered: its own value, or else its
    /// sole candidate's.
    fn check_served(&self, addr: PmAddr, val: u8, reference: Option<u8>, at: &str) {
        match reference {
            Some(own) => assert_eq!(val, own, "{at}: own byte {addr}"),
            None => {
                let cands = read_pre_failure(&self.stack, addr);
                assert_eq!(cands.len(), 1, "{at}: byte {addr} served as {val}");
                assert_eq!(val, cands[0].value, "{at}: byte {addr}");
            }
        }
    }

    /// `t`'s load of `len` bytes at `addr`, as the checker makes it: one
    /// probe, else line by line, each byte left open choosing a random
    /// candidate. Returns the bytes loaded.
    fn load(&mut self, t: ThreadId, addr: u64, len: u64, rng: &mut Rng, at: &str) -> Vec<u8> {
        let addr = PmAddr::new(addr);
        if self
            .machine
            .buffers(t)
            .is_some_and(|b| !b.store_buffer.is_empty())
        {
            self.counts.buffered_loads += 1;
        }
        let parts: Vec<_> = line_parts(addr, len as usize).collect();
        if let Some(bytes) = self.machine.load_known(t, addr, len as usize) {
            let bytes = bytes.to_vec();
            let [(line, want, _)] = parts[..] else {
                panic!("{at}: a straddling load probed");
            };
            let (own, missed, resolve) = self.reference(t, line, want);
            assert!(!resolve, "{at}: the two-step path resolves {line:?}");
            for (i, &val) in bytes.iter().enumerate() {
                let off = addr.line_offset() + i;
                let reference = (missed >> off & 1 == 0).then_some(own[off]);
                self.check_served(addr + i as u64, val, reference, at);
            }
            self.counts.probe_hits += 1;
            return bytes;
        }
        self.counts.slow_loads += 1;
        let mut out = vec![0; len as usize];
        for (line, want, start) in parts {
            let (own, missed, resolve) = self.reference(t, line, want);
            let mut vals = [UNTOUCHED; 64];
            let (open, resolved) = self.machine.load(t, &self.stack, line, want, &mut vals);
            let at = format!("{at}: {line:?} mask {want:#x}");
            assert_eq!(resolved, resolve, "{at}: resolved");
            if resolved {
                self.counts.resolves += 1;
                if !self.resolved.insert(line.index()) {
                    self.counts.conflict_resolves += 1;
                }
            }
            assert_eq!(open & !missed, 0, "{at}: own bytes left open");
            for off in offsets(want) {
                let byte = line.base() + off as u64;
                if open >> off & 1 == 0 {
                    let reference = (missed >> off & 1 == 0).then_some(own[off]);
                    self.check_served(byte, vals[off], reference, &at);
                    continue;
                }
                let cands = read_pre_failure(&self.stack, byte);
                let chosen = cands[rng.below(cands.len() as u64) as usize];
                if cands.len() > 1 {
                    do_read(&mut self.stack, byte, chosen);
                    self.counts.choices += 1;
                }
                self.machine.settle(line, off, chosen.value);
                vals[off] = chosen.value;
            }
            let first = want.trailing_zeros() as usize;
            let n = want.count_ones() as usize;
            out[start..start + n].copy_from_slice(&vals[first..first + n]);
        }
        out
    }
}

/// The line offsets set in `mask`, lowest first.
fn offsets(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |off| mask >> off & 1 != 0)
}

/// The running execution's line image answers every load as Figure 9
/// orders it. On random programs of one to three threads, under both
/// eviction policies, with loads and stores of 1 and 8 bytes and across
/// a line boundary, locked exchanges, flushes, fences and up to two power
/// failures, on lines that share slots of the image: every byte a load
/// gets from the image equals the issuing thread's store-buffer or cache
/// value, or else the sole [`read_pre_failure`] candidate under the
/// refinements so far; a byte with several candidates is left to a random
/// choice, which refines the stack and is settled; and every load
/// resolves a line exactly when the two-step path (the running
/// execution's cache, then a table of resolved lines) would. One machine
/// per policy runs every program, reset between them.
#[test]
fn the_line_image_answers_as_the_running_execution_or_the_sole_candidate() {
    let mut counts = Vec::new();
    for policy in [EvictionPolicy::Eager, EvictionPolicy::OnFence] {
        let mut check = ImageCheck {
            machine: TsoMachine::new(policy),
            stack: Vec::new(),
            two_step: [None; 64],
            resolved: BTreeSet::new(),
            counts: ImageCounts::default(),
        };
        for seed in 0..400u64 {
            let mut rng = Rng::new(seed ^ 0x119e_1a6e);
            let program = random_image_program(&mut rng);
            check.reset(policy);
            for (k, &(t, op)) in program.iter().enumerate() {
                let at = format!("{policy:?}, seed {seed}, op {k} of {program:?}");
                let bytes = |len: u64, value: u8| -> Vec<u8> {
                    (0..len).map(|i| (value as u64 + i) as u8).collect()
                };
                match op {
                    ImageOp::Store { addr, len, value } => {
                        check.store(t, addr, &bytes(len, value));
                    }
                    ImageOp::Load { addr, len } => {
                        check.load(t, addr, len, &mut rng, &at);
                    }
                    ImageOp::Rmw { addr, value } => {
                        check.machine.mfence(t);
                        check.load(t, addr, 8, &mut rng, &at);
                        check.store(t, addr, &bytes(8, value));
                        check.machine.mfence(t);
                    }
                    ImageOp::Clflush(line) => check.machine.clflush(t, CacheLineId::new(line)),
                    ImageOp::Clflushopt(line) => {
                        check.machine.clflushopt(t, CacheLineId::new(line));
                    }
                    ImageOp::Sfence => check.machine.sfence(t),
                    ImageOp::Mfence => check.machine.mfence(t),
                    ImageOp::Crash => check.crash(),
                }
            }
        }
        counts.push((policy, check.counts));
    }
    for (policy, c) in &counts {
        let at = format!("{policy:?}: {c:?}");
        assert!(c.probe_hits > 600, "{at}");
        assert!(c.slow_loads > 4000, "{at}");
        assert!(c.resolves > 4000, "{at}");
        assert!(c.conflict_resolves > 1000, "{at}");
        assert!(c.stores_after_resolve > 3000, "{at}");
        assert!(c.choices > 150, "{at}");
        assert!(c.crashes > 300, "{at}");
        if *policy == EvictionPolicy::OnFence {
            assert!(c.buffered_loads > 3000, "{at}");
        }
    }
}

/// Two environments restored from one snapshot share its frozen store
/// logs; a refining recovery read in one leaves the other's (and the
/// snapshot's) candidates unchanged.
#[test]
fn restored_stacks_are_isolated() {
    let mut refined = 0;
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed ^ 0x150_1a7e);
        let (snapshot, _) = random_stack(&mut rng);
        let all = |stack: &[ExecutionStorage]| -> Vec<Vec<RfCandidate>> {
            (64..192)
                .map(|a| read_pre_failure(stack, PmAddr::new(a)))
                .collect()
        };
        let before = all(&snapshot);
        let Some(addr) = (64..192).find(|&a| before[a as usize - 64].len() > 1) else {
            continue;
        };
        let (mut first, second) = (snapshot.clone(), snapshot.clone());
        let cands = &before[addr as usize - 64];
        let chosen = cands[1 + rng.below(cands.len() as u64 - 1) as usize];
        do_read(&mut first, PmAddr::new(addr), chosen);
        assert_ne!(intervals(&first), intervals(&snapshot), "seed {seed}");
        assert_eq!(
            all(&second),
            before,
            "seed {seed}: the second restore moved"
        );
        assert_eq!(all(&snapshot), before, "seed {seed}: the snapshot moved");
        refined += 1;
    }
    assert!(refined > 100, "refining reads exercised: {refined}");
}

/// One operation of a single-thread program for the prefix-view test.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A store of `len` bytes of `value` at `addr`.
    Store {
        addr: u64,
        len: u64,
        value: u8,
    },
    Clflush(u64),
    Clflushopt(u64),
    Sfence,
    Mfence,
}

/// The lines the prefix-view programs use.
const VIEW_LINES: std::ops::RangeInclusive<u64> = 1..=4;

/// Up to 24 operations on four lines, mostly stores of 1, 2, 4 or 8
/// bytes; a store may straddle two lines. `mfence` drains the store
/// buffer, so buffered stores reach the cache under `OnFence` eviction
/// too.
fn random_program(rng: &mut Rng) -> Vec<Op> {
    let end = (VIEW_LINES.end() + 1) * 64;
    let line = |rng: &mut Rng| VIEW_LINES.start() + rng.below(VIEW_LINES.clone().count() as u64);
    (0..4 + rng.below(21))
        .map(|_| match rng.below(10) {
            0..=4 => {
                let len = 1 << rng.below(4);
                let addr = 64 + rng.below(end - 64 - len + 1);
                let value = (1 + rng.below(250)) as u8;
                Op::Store { addr, len, value }
            }
            5 => Op::Clflush(line(rng)),
            6 | 7 => Op::Clflushopt(line(rng)),
            8 => Op::Sfence,
            _ => Op::Mfence,
        })
        .collect()
}

fn apply(m: &mut TsoMachine, op: Op) {
    let t = ThreadId(0);
    match op {
        Op::Store { addr, len, value } => m.store(
            t,
            PmAddr::new(addr),
            &vec![value; len as usize],
            Location::caller(),
        ),
        Op::Clflush(line) => m.clflush(t, CacheLineId::new(line)),
        Op::Clflushopt(line) => m.clflushopt(t, CacheLineId::new(line)),
        Op::Sfence => m.sfence(t),
        Op::Mfence => m.mfence(t),
    }
}

/// Every candidate of some bytes, and the multi-candidate mask and
/// single-candidate values of whole-line reads of some lines.
type Observed = (Vec<Vec<RfCandidate>>, Vec<(u64, [u8; 64])>);

/// What recovery can observe of a crashed stack: every candidate of each
/// of `bytes`, and the single-candidate values and multi-candidate mask
/// of a whole-line read of each of `lines`.
fn observe(stack: &[ExecutionStorage], bytes: &[PmAddr], lines: &[CacheLineId]) -> Observed {
    let cands = bytes.iter().map(|&a| read_pre_failure(stack, a)).collect();
    let reads = lines
        .iter()
        .map(|&line| {
            let mut vals = [0; 64];
            let multi = read_pre_failure_line(stack, line, u64::MAX, &mut vals);
            (multi, vals)
        })
        .collect();
    (cands, reads)
}

/// A checkpoint views the final store log of the execution it was taken
/// in, through the intervals the crash would have frozen. For every point
/// of random single-thread programs, under both eviction policies, the
/// view must read as the storage of a machine that really crashed there:
/// the same candidates for every byte, the same line reads, and the same
/// of both after committing a load of any multi-candidate byte to its
/// newest or its oldest candidate. Lines first stored to or flushed after
/// the point are among those read.
#[test]
fn a_prefix_view_reads_what_the_crash_froze() {
    let mut points = 0;
    let mut refinements = 0;
    for seed in 0..150u64 {
        let mut rng = Rng::new(seed ^ 0x0f_1e_2d);
        let program = random_program(&mut rng);
        for policy in [EvictionPolicy::Eager, EvictionPolicy::OnFence] {
            let mut full = TsoMachine::new(policy);
            let mut prefixes = vec![full.crash_prefix()];
            for &op in &program {
                apply(&mut full, op);
                prefixes.push(full.crash_prefix());
            }
            let last = full.finish();
            let lines: Vec<CacheLineId> = VIEW_LINES.map(CacheLineId::new).collect();
            let bytes: Vec<PmAddr> = (64..(VIEW_LINES.end() + 1) * 64)
                .map(PmAddr::new)
                .filter(|&a| last.first_store_seq(a).is_some())
                .collect();
            for (k, prefix) in prefixes.into_iter().enumerate() {
                let at = format!("seed {seed}, {policy:?}, crash after {k} of {program:?}");
                let mut crashed = TsoMachine::new(policy);
                for &op in &program[..k] {
                    apply(&mut crashed, op);
                }
                let crashed = vec![crashed.crash()];
                let view = vec![last.view(prefix)];
                let seen = observe(&crashed, &bytes, &lines);
                assert_eq!(observe(&view, &bytes, &lines), seen, "{at}");
                points += 1;
                for (&addr, cands) in bytes.iter().zip(&seen.0) {
                    if cands.len() < 2 {
                        continue;
                    }
                    for chosen in [cands[0], cands[cands.len() - 1]] {
                        let (mut crashed, mut view) = (crashed.clone(), view.clone());
                        do_read(&mut crashed, addr, chosen);
                        do_read(&mut view, addr, chosen);
                        assert_eq!(
                            observe(&view, &bytes, &lines),
                            observe(&crashed, &bytes, &lines),
                            "{at}: after reading {chosen:?} at {addr}"
                        );
                        refinements += 1;
                    }
                }
            }
        }
    }
    assert!(points > 2000, "crash points compared: {points}");
    assert!(refinements > 2000, "refinements compared: {refinements}");
}

/// One operation of one thread in the eager fast-path test.
#[derive(Clone, Copy, Debug)]
enum ThreadOp {
    /// A store of `len` bytes of `value` at `addr`.
    Store {
        addr: u64,
        len: u64,
        value: u8,
    },
    Clflush(u64),
    Clflushopt(u64),
    Clwb(u64),
    Sfence,
    Mfence,
}

/// Up to 32 operations of one to three threads on the prefix-view lines:
/// stores of 1 to 16 bytes, which may straddle two lines, flushes of every
/// kind, and fences.
fn random_threaded_program(rng: &mut Rng) -> Vec<(ThreadId, ThreadOp)> {
    let threads = 1 + rng.below(3);
    let end = (VIEW_LINES.end() + 1) * 64;
    let line = |rng: &mut Rng| VIEW_LINES.start() + rng.below(VIEW_LINES.clone().count() as u64);
    (0..4 + rng.below(29))
        .map(|_| {
            let op = match rng.below(12) {
                0..=4 => {
                    let len = 1 + rng.below(16);
                    let addr = 64 + rng.below(end - 64 - len + 1);
                    let value = (1 + rng.below(250)) as u8;
                    ThreadOp::Store { addr, len, value }
                }
                5 => ThreadOp::Clflush(line(rng)),
                6 | 7 => ThreadOp::Clflushopt(line(rng)),
                8 => ThreadOp::Clwb(line(rng)),
                9 | 10 => ThreadOp::Sfence,
                _ => ThreadOp::Mfence,
            };
            (ThreadId(rng.below(threads) as u32), op)
        })
        .collect()
}

fn apply_threaded(m: &mut TsoMachine, t: ThreadId, op: ThreadOp) {
    match op {
        ThreadOp::Store { addr, len, value } => m.store(
            t,
            PmAddr::new(addr),
            &vec![value; len as usize],
            Location::caller(),
        ),
        ThreadOp::Clflush(line) => m.clflush(t, CacheLineId::new(line)),
        ThreadOp::Clflushopt(line) => m.clflushopt(t, CacheLineId::new(line)),
        ThreadOp::Clwb(line) => m.clwb(t, CacheLineId::new(line)),
        ThreadOp::Sfence => m.sfence(t),
        ThreadOp::Mfence => m.mfence(t),
    }
}

/// Each line's interval, what each thread reads of each line, and each
/// thread's flush buffer and sfence stamp.
type MachineState = (
    Vec<FlushInterval>,
    Vec<(u64, [u8; 64])>,
    Vec<(Vec<FbEntry>, Seq)>,
);

fn machine_state(m: &TsoMachine) -> MachineState {
    let lines = || VIEW_LINES.map(CacheLineId::new);
    let intervals = lines().map(|line| m.storage().interval(line)).collect();
    let threads = || (0..3).map(ThreadId);
    let reads = threads()
        .flat_map(|t| {
            lines().map(move |line| {
                let mut vals = [0; 64];
                (m.read_current(t, line, u64::MAX, &mut vals), vals)
            })
        })
        .collect();
    let buffers = threads()
        .map(|t| {
            m.buffers(t).map_or((Vec::new(), Seq::ZERO), |b| {
                (b.flush_buffer.clone(), b.sfence_stamp)
            })
        })
        .collect();
    (intervals, reads, buffers)
}

/// Under eager eviction, an operation takes effect at once, without
/// entering the store buffer. On random
/// programs of one to three threads, an eager machine must stay exactly
/// where a buffering machine that drains the issuing thread's buffer after
/// every operation is: the same `σ`, every line's interval, every
/// thread's reads of every line, every thread's flush buffer and sfence
/// stamp, and, once both finish, what a crash after each operation leaves.
#[test]
fn eager_fast_paths_match_the_buffered_path() {
    let mut ops = 0;
    for seed in 0..300u64 {
        let mut rng = Rng::new(seed ^ 0xea_9e7);
        let program = random_threaded_program(&mut rng);
        let mut eager = TsoMachine::new(EvictionPolicy::Eager);
        let mut buffered = TsoMachine::new(EvictionPolicy::OnFence);
        let mut prefixes = Vec::new();
        for (k, &(t, op)) in program.iter().enumerate() {
            apply_threaded(&mut eager, t, op);
            apply_threaded(&mut buffered, t, op);
            buffered.drain_store_buffer(t);
            let at = format!("seed {seed}, after {k} of {program:?}");
            assert_eq!(eager.sigma(), buffered.sigma(), "{at}");
            assert_eq!(machine_state(&eager), machine_state(&buffered), "{at}");
            prefixes.push((eager.crash_prefix(), buffered.crash_prefix()));
            ops += 1;
        }
        let (eager, buffered) = (eager.finish(), buffered.finish());
        let lines: Vec<CacheLineId> = VIEW_LINES.map(CacheLineId::new).collect();
        let bytes: Vec<PmAddr> = (64..(VIEW_LINES.end() + 1) * 64).map(PmAddr::new).collect();
        for (k, (e, b)) in prefixes.into_iter().enumerate() {
            let (e, b) = (vec![eager.view(e)], vec![buffered.view(b)]);
            assert_eq!(
                observe(&e, &bytes, &lines),
                observe(&b, &bytes, &lines),
                "seed {seed}, crash after {k} of {program:?}"
            );
        }
    }
    assert!(ops > 4000, "operations compared: {ops}");
}

//! The benchmark registry: every RECIPE and PMDK configuration the
//! paper's tables evaluate, plus the lock-free durable-linearizability
//! family, as ready-to-run programs.
//!
//! Registration is by [`jaaru::Program`] value, not by index trait: any
//! workload driver (key-value [`IndexWorkload`], operation-scripted
//! [`LockFreeWorkload`], …) registers the same way, so non-index
//! families need no `PmIndex` stub impls.

use jaaru::Program;
use jaaru_workloads::alloc::AllocFault;
use jaaru_workloads::lockfree::{
    clevel::ClevelHash, harris::HarrisList, msqueue::MsQueue, treiber::TreiberStack, LfFault,
    LockFreeWorkload,
};
use jaaru_workloads::pmdk::{btree_map, ctree_map, hashmap_atomic, hashmap_tx, MapWorkload};
use jaaru_workloads::recipe::{
    cceh::{Cceh, CcehFault},
    fast_fair::{FastFair, FastFairFault},
    part::{Part, PartFault},
    pbwtree::{Pbwtree, PbwtreeFault},
    pclht::{Pclht, PclhtFault},
    pmasstree::{Pmasstree, PmasstreeFault},
    IndexWorkload,
};

/// One row of a bug table: a benchmark configuration with a seeded bug.
pub struct BugCase {
    /// Row number in the paper's figure.
    pub id: usize,
    /// Benchmark name as the paper prints it.
    pub benchmark: &'static str,
    /// The paper's "type of bug" / cause column.
    pub cause: &'static str,
    /// The paper's symptom column (Figure 15/16 wording).
    pub paper_symptom: &'static str,
    /// Whether the paper marks the bug as newly found by Jaaru (`*`).
    pub new_bug: bool,
    /// The program with the fault seeded.
    pub program: Box<dyn Program + Sync>,
}

/// The 18 RECIPE bug rows of Figure 13 (symptoms from Figure 15).
/// `keys` sizes each workload; the paper's inputs are the benchmarks'
/// own example drivers.
pub fn recipe_bug_cases(keys: usize) -> Vec<BugCase> {
    let k = keys;
    vec![
        BugCase {
            id: 1,
            benchmark: "CCEH",
            cause: "Missing flush in CCEH constructor",
            paper_symptom: "Getting stuck in an infinite loop",
            new_bug: true,
            program: Box::new(IndexWorkload::<Cceh>::new(
                CcehFault::CtorDirectoryHeaderNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 2,
            benchmark: "CCEH",
            cause: "Missing flush in CCEH constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Cceh>::new(
                CcehFault::CtorDirectoryEntriesNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 3,
            benchmark: "CCEH",
            cause: "Missing flush in CCEH constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Cceh>::new(CcehFault::CtorRootNotFlushed, k)),
        },
        BugCase {
            id: 4,
            benchmark: "FAST_FAIR",
            cause: "Missing flush in header constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: false,
            program: Box::new(IndexWorkload::<FastFair>::new(
                FastFairFault::HeaderCtorNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 5,
            benchmark: "FAST_FAIR",
            cause: "Missing flush in entry constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: false,
            program: Box::new(IndexWorkload::<FastFair>::new(
                FastFairFault::EntryCtorNotFlushed,
                k.max(6),
            )),
        },
        BugCase {
            id: 6,
            benchmark: "FAST_FAIR",
            cause: "Missing flush in btree constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<FastFair>::new(
                FastFairFault::BtreeCtorNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 7,
            benchmark: "P-ART",
            cause: "Use of non-persistent data structure in Epoch",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Part>::new(PartFault::EpochNotPersistent, k)),
        },
        BugCase {
            id: 8,
            benchmark: "P-ART",
            cause: "Missing flush in Tree constructor",
            paper_symptom: "Illegal memory access in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Part>::new(PartFault::TreeCtorNotFlushed, k)),
        },
        BugCase {
            id: 9,
            benchmark: "P-ART",
            cause: "Use of non-persistent data structure for recovery",
            paper_symptom: "Getting stuck in an infinite loop",
            new_bug: true,
            program: Box::new(IndexWorkload::<Part>::new(
                PartFault::VolatileRecoverySet,
                k,
            )),
        },
        BugCase {
            id: 10,
            benchmark: "P-BwTree",
            cause: "GC crash leaves data structure in inconsistent state",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Pbwtree>::new(
                PbwtreeFault::GcRetireBeforeCommit,
                k.max(8),
            )),
        },
        BugCase {
            id: 11,
            benchmark: "P-BwTree",
            cause: "Missing flush of GC metadata pointer",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Pbwtree>::new(
                PbwtreeFault::GcMetaPointerNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 12,
            benchmark: "P-BwTree",
            cause: "Missing flush of GC metadata",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Pbwtree>::new(
                PbwtreeFault::GcMetadataNotFlushed,
                k.max(8),
            )),
        },
        BugCase {
            id: 13,
            benchmark: "P-BwTree",
            cause: "Missing flush in AllocationMeta constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(
                IndexWorkload::<Pbwtree>::new(PbwtreeFault::None, k).with_alloc_fault(AllocFault {
                    skip_cursor_flush: true,
                }),
            ),
        },
        BugCase {
            id: 14,
            benchmark: "P-BwTree",
            cause: "Missing flush in BwTree constructor",
            paper_symptom: "Segmentation fault in the program",
            new_bug: true,
            program: Box::new(IndexWorkload::<Pbwtree>::new(
                PbwtreeFault::CtorNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 15,
            benchmark: "P-CLHT",
            cause: "Missing flush in clht constructor",
            paper_symptom: "Illegal memory access in the program",
            new_bug: false,
            program: Box::new(IndexWorkload::<Pclht>::new(PclhtFault::CtorNotFlushed, k)),
        },
        BugCase {
            id: 16,
            benchmark: "P-CLHT",
            cause: "Missing flush for hashtable object",
            paper_symptom: "Illegal memory access in the program",
            new_bug: false,
            program: Box::new(IndexWorkload::<Pclht>::new(
                PclhtFault::TableObjectNotFlushed,
                k,
            )),
        },
        BugCase {
            id: 17,
            benchmark: "P-CLHT",
            cause: "Missing flush for hashtable array",
            paper_symptom: "Getting stuck in an infinite loop",
            new_bug: false,
            program: Box::new(IndexWorkload::<Pclht>::new(
                PclhtFault::ArrayNotFlushed,
                k.max(13),
            )),
        },
        BugCase {
            id: 18,
            benchmark: "P-MassTree",
            cause: "Flushed referenced object instead of pointer",
            paper_symptom: "Illegal memory access in the program",
            new_bug: false,
            program: Box::new(IndexWorkload::<Pmasstree>::new(
                PmasstreeFault::FlushedObjectInsteadOfPointer,
                k.max(5),
            )),
        },
    ]
}

/// The 7 PMDK bug rows of Figure 12 (symptoms from Figure 16).
pub fn pmdk_bug_cases(keys: usize) -> Vec<BugCase> {
    let k = keys;
    vec![
        BugCase {
            id: 1,
            benchmark: "Btree",
            cause: "Missing flush of item before leaf count",
            paper_symptom: "Illegal memory access at btree_map.c:89",
            new_bug: true,
            program: Box::new(MapWorkload::<btree_map::BtreeMap>::new(
                btree_map::bug1_faults(),
                k,
            )),
        },
        BugCase {
            id: 2,
            benchmark: "Btree",
            cause: "Pool header checksum not flushed before magic",
            paper_symptom: "Failed to open pool error",
            new_bug: false,
            program: Box::new(MapWorkload::<btree_map::BtreeMap>::new(
                btree_map::bug2_faults(),
                k,
            )),
        },
        BugCase {
            id: 3,
            benchmark: "Hashmap_atomic",
            cause: "Unflushed heap block header",
            paper_symptom: "Assertion failure at heap.c:533",
            new_bug: true,
            program: Box::new(MapWorkload::<hashmap_atomic::HashmapAtomic>::new(
                hashmap_atomic::bug3_faults(),
                k,
            )),
        },
        BugCase {
            id: 4,
            benchmark: "CTree",
            cause: "Node published before it is persistent (atomicity)",
            paper_symptom: "Assertion failure at obj.c:1523",
            new_bug: true,
            program: Box::new(MapWorkload::<ctree_map::CtreeMap>::new(
                ctree_map::bug4_faults(),
                k.max(5),
            )),
        },
        BugCase {
            id: 5,
            benchmark: "Hashmap_atomic",
            cause: "Unflushed allocation cursor",
            paper_symptom: "Assertion failure at pmalloc.c:270",
            new_bug: true,
            program: Box::new(MapWorkload::<hashmap_atomic::HashmapAtomic>::new(
                hashmap_atomic::bug5_faults(),
                k,
            )),
        },
        BugCase {
            id: 6,
            benchmark: "Hashmap_tx",
            cause: "Undo-log entry not flushed before entry count",
            paper_symptom: "Illegal memory access at obj.c:1528",
            new_bug: true,
            program: Box::new(MapWorkload::<hashmap_tx::HashmapTx>::new(
                hashmap_tx::bug6_faults(),
                k,
            )),
        },
        BugCase {
            id: 7,
            benchmark: "RBTree",
            cause: "Counter updated outside the transaction",
            paper_symptom: "Assertion failure at tx.c:1678",
            new_bug: true,
            program: Box::new(MapWorkload::<rbtree_bug7_alias::RbtreeMap>::new(
                rbtree_bug7_alias::bug7_faults(),
                k,
            )),
        },
    ]
}

use jaaru_workloads::pmdk::rbtree_map as rbtree_bug7_alias;

/// The six fixed (bug-free) RECIPE benchmarks for Figure 14.
pub fn recipe_fixed_cases(keys: usize) -> Vec<(&'static str, Box<dyn Program + Sync>)> {
    vec![
        (
            "CCEH",
            Box::new(IndexWorkload::<Cceh>::fixed(keys)) as Box<dyn Program + Sync>,
        ),
        (
            "FAST_FAIR",
            Box::new(IndexWorkload::<FastFair>::fixed(keys)),
        ),
        ("P-ART", Box::new(IndexWorkload::<Part>::fixed(keys))),
        ("P-BwTree", Box::new(IndexWorkload::<Pbwtree>::fixed(keys))),
        ("P-CLHT", Box::new(IndexWorkload::<Pclht>::fixed(keys))),
        (
            "P-Masstree",
            Box::new(IndexWorkload::<Pmasstree>::fixed(keys)),
        ),
    ]
}

/// The fixed PMDK maps for extended clean-run checks.
pub fn pmdk_fixed_cases(keys: usize) -> Vec<(&'static str, Box<dyn Program + Sync>)> {
    vec![
        (
            "Btree",
            Box::new(MapWorkload::<btree_map::BtreeMap>::fixed(keys)) as Box<dyn Program + Sync>,
        ),
        (
            "CTree",
            Box::new(MapWorkload::<ctree_map::CtreeMap>::fixed(keys)),
        ),
        (
            "RBTree",
            Box::new(MapWorkload::<rbtree_bug7_alias::RbtreeMap>::fixed(keys)),
        ),
        (
            "Hashmap_atomic",
            Box::new(MapWorkload::<hashmap_atomic::HashmapAtomic>::fixed(keys)),
        ),
        (
            "Hashmap_tx",
            Box::new(MapWorkload::<hashmap_tx::HashmapTx>::fixed(keys)),
        ),
    ]
}

/// Every fixed benchmark: RECIPE, then PMDK, then lock-free. (The
/// lock-free family runs a built-in script, so `keys` does not apply
/// to it.)
pub fn fixed_cases(keys: usize) -> Vec<(&'static str, Box<dyn Program + Sync>)> {
    let mut cases = recipe_fixed_cases(keys);
    cases.extend(pmdk_fixed_cases(keys));
    cases.extend(lockfree_fixed_cases());
    cases
}

/// Looks a fixed benchmark up by case-insensitive name.
pub fn find_fixed(name: &str, keys: usize) -> Option<(&'static str, Box<dyn Program + Sync>)> {
    fixed_cases(keys)
        .into_iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
}

/// The eight lock-free durable-linearizability bug rows: each structure
/// of the `lockfree` family with its seeded faults. These are scripted
/// operation workloads (stack/queue ops, not key-value inserts), judged
/// by the `lockfree::dlin` oracle rather than the commit-counter
/// contract; all are new bugs (no paper figure covers them), so the
/// driver takes no key count.
pub fn lockfree_bug_cases() -> Vec<BugCase> {
    vec![
        BugCase {
            id: 1,
            benchmark: "LF-Stack",
            cause: "Successful push CAS not persisted before response",
            paper_symptom: "Durable linearizability violation (completed push lost)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<TreiberStack>::faulted(
                LfFault::UnpersistedCas,
            )),
        },
        BugCase {
            id: 2,
            benchmark: "LF-Stack",
            cause: "Recovery re-applies the last completed op",
            paper_symptom: "Durable linearizability violation (duplicated effect)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<TreiberStack>::faulted(
                LfFault::DoubleApply,
            )),
        },
        BugCase {
            id: 3,
            benchmark: "LF-Queue",
            cause: "Missing flush on the enqueue link CAS",
            paper_symptom: "Durable linearizability violation (completed enqueue lost)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<MsQueue>::faulted(
                LfFault::MissingLinkFlush,
            )),
        },
        BugCase {
            id: 4,
            benchmark: "LF-Queue",
            cause: "Recovery re-applies the last completed op",
            paper_symptom: "Durable linearizability violation (duplicated effect)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<MsQueue>::faulted(LfFault::DoubleApply)),
        },
        BugCase {
            id: 5,
            benchmark: "LF-List",
            cause: "Successful insert link CAS not persisted before response",
            paper_symptom: "Durable linearizability violation (completed insert lost)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<HarrisList>::faulted(
                LfFault::UnpersistedCas,
            )),
        },
        BugCase {
            id: 6,
            benchmark: "LF-List",
            cause: "Unflushed sentinel init",
            paper_symptom: "Assertion failure (sentinel chain not durable)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<HarrisList>::faulted(
                LfFault::UnflushedInit,
            )),
        },
        BugCase {
            id: 7,
            benchmark: "LF-Hash",
            cause: "Missing flush on the value word before key publication",
            paper_symptom: "Durable linearizability violation (corrupt recovered entry)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<ClevelHash>::faulted(
                LfFault::MissingLinkFlush,
            )),
        },
        BugCase {
            id: 8,
            benchmark: "LF-Hash",
            cause: "Unflushed geometry word in constructor",
            paper_symptom: "Assertion failure (geometry word not durable)",
            new_bug: true,
            program: Box::new(LockFreeWorkload::<ClevelHash>::faulted(
                LfFault::UnflushedInit,
            )),
        },
    ]
}

/// The fixed lock-free structures: must be durably linearizable under
/// full exploration.
pub fn lockfree_fixed_cases() -> Vec<(&'static str, Box<dyn Program + Sync>)> {
    vec![
        (
            "LF-Stack",
            Box::new(LockFreeWorkload::<TreiberStack>::fixed()) as Box<dyn Program + Sync>,
        ),
        ("LF-Queue", Box::new(LockFreeWorkload::<MsQueue>::fixed())),
        ("LF-List", Box::new(LockFreeWorkload::<HarrisList>::fixed())),
        ("LF-Hash", Box::new(LockFreeWorkload::<ClevelHash>::fixed())),
    ]
}

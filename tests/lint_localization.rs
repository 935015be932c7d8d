//! Lint-engine localization sweep: for every seeded RECIPE/PMDK
//! missing-flush/fence-class fault, the persistency lint engine must
//! localize the symptom to the file the fault was seeded in — the
//! unordered store is reported with an error-severity diagnostic and a
//! concrete fix — and every *fixed* configuration must produce zero
//! diagnostics (the precision guard: the checker never cries wolf on
//! correct code).
//!
//! Row numbering matches `jaaru_cli list` (the paper's Figure 12/13
//! tables). Expected sites are file-granular: line numbers shift when
//! the workloads are edited, but a fault seeded in `cceh.rs` must be
//! blamed on a store in `cceh.rs`, not on the shared allocator or a
//! neighbouring structure.

use std::panic::Location;
use std::sync::OnceLock;

use jaaru::{to_sarif, Config, DiagnosticKind, Lints, ModelChecker, PmAddr, PmEnv};
use jaaru_bench::registry::{
    pmdk_bug_cases, pmdk_fixed_cases, recipe_bug_cases, recipe_fixed_cases,
};
use jaaru_serve::json::{parse, Value};

fn lint_config() -> Config {
    let mut c = Config::new();
    c.pool_size(1 << 18)
        .max_ops_per_execution(40_000)
        .max_scenarios(2_000)
        // The cross-thread and torn-store passes ride along: the
        // workloads are single-threaded and slot-aligned, so the sweeps
        // double as a precision guard for them.
        .lints(Lints::Errors);
    c
}

/// The file each seeded fault lives in, by (suite, row). `None` marks
/// the one fault that is not a flush/fence-ordering bug (P-BwTree's GC
/// retire-before-commit atomicity violation has no store-level fix).
fn expected_file(suite: &str, id: usize) -> Option<&'static str> {
    match (suite, id) {
        ("recipe", 1..=3) => Some("recipe/cceh.rs"),
        ("recipe", 4..=6) => Some("recipe/fast_fair.rs"),
        ("recipe", 7..=9) => Some("recipe/part.rs"),
        ("recipe", 10) => None,
        ("recipe", 11 | 12 | 14) => Some("recipe/pbwtree.rs"),
        ("recipe", 13) => Some("src/alloc.rs"),
        ("recipe", 15..=17) => Some("recipe/pclht.rs"),
        ("recipe", 18) => Some("recipe/pmasstree.rs"),
        ("pmdk", 1) => Some("pmdk/btree_map.rs"),
        ("pmdk", 2) => Some("pmdk/pool.rs"),
        ("pmdk", 3 | 5) => Some("pmdk/pmalloc.rs"),
        ("pmdk", 4) => Some("pmdk/ctree_map.rs"),
        ("pmdk", 6) => Some("pmdk/tx.rs"),
        ("pmdk", 7) => Some("pmdk/rbtree_map.rs"),
        _ => panic!("unknown row {suite} {id}"),
    }
}

fn sweep(suite: &str, cases: Vec<jaaru_bench::registry::BugCase>) {
    for case in cases {
        let report = ModelChecker::new(lint_config()).check(&*case.program);
        assert!(
            !report.is_clean(),
            "{suite} row {}: the seeded bug must still be found",
            case.id
        );
        let Some(file) = expected_file(suite, case.id) else {
            continue;
        };
        let errors: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.to_string())
            .collect();
        assert!(
            errors.iter().any(|e| e.contains(file)),
            "{suite} row {} ({}): no error diagnostic localizes to {file}; got {errors:#?}",
            case.id,
            case.cause,
        );
    }
}

#[test]
fn recipe_faults_localize_to_the_seeded_file() {
    sweep("recipe", recipe_bug_cases(4));
}

#[test]
fn pmdk_faults_localize_to_the_seeded_file() {
    sweep("pmdk", pmdk_bug_cases(4));
}

#[test]
fn fixed_configurations_produce_zero_diagnostics() {
    for (name, program) in recipe_fixed_cases(4).into_iter().chain(pmdk_fixed_cases(4)) {
        let report = ModelChecker::new(lint_config()).check(&*program);
        assert!(report.is_clean(), "{name} must be crash consistent");
        assert!(
            report.diagnostics.is_empty(),
            "{name}: fixed configuration must lint clean, got {:#?}",
            report.diagnostics
        );
    }
}

/// The closure-program cases below pin the cross-thread and torn-store
/// passes to source-exact sites: each planted hazard must be blamed on
/// a line in *this* file, with the shape-specific fix suggestion.
fn graph_lint_config() -> Config {
    let mut c = Config::new();
    c.pool_size(4096).lints(Lints::Errors);
    c
}

#[test]
fn flush_on_another_thread_is_localized_here() {
    // Crash-consistent under the deterministic run-to-completion
    // schedule, but the flush covering the store runs on a spawned
    // thread with no synchronizing edge: shape 1 of the race pass.
    let program = |env: &dyn PmEnv| {
        let root = env.root();
        let data = root + 64;
        if env.is_recovery() {
            let _ = env.load_u64(data);
            return;
        }
        env.store_u64(data, 7);
        env.spawn(&mut |t| t.clflush(data, 8));
        env.sfence();
    };
    let report = ModelChecker::new(graph_lint_config()).check(&program);
    assert!(report.is_clean(), "{report}");
    let races: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == DiagnosticKind::CrossThreadRace)
        .collect();
    assert!(!races.is_empty(), "{:#?}", report.diagnostics);
    assert!(
        races
            .iter()
            .all(|d| d.site.file().ends_with("lint_localization.rs")),
        "{races:#?}"
    );
    assert!(
        races[0].message.contains("flush on the storing thread"),
        "{races:#?}"
    );
}

#[test]
fn fence_on_the_wrong_thread_is_localized_here() {
    // A clflushopt parked in the spawned thread's flush buffer while
    // only the main thread fences afterwards: shape 2 of the race pass,
    // blamed on the flush.
    let program = |env: &dyn PmEnv| {
        let root = env.root();
        let data = root + 64;
        if env.is_recovery() {
            let _ = env.load_u64(data);
            return;
        }
        env.spawn(&mut |t| {
            t.store_u64(data, 7);
            t.clflushopt(data, 8);
            // No fence on this thread: the flush stays parked forever.
        });
        env.sfence(); // drains only the main thread's (empty) buffer
    };
    let report = ModelChecker::new(graph_lint_config()).check(&program);
    assert!(report.is_clean(), "{report}");
    let races: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == DiagnosticKind::CrossThreadRace)
        .collect();
    assert!(!races.is_empty(), "{:#?}", report.diagnostics);
    assert!(
        races[0].site.file().ends_with("lint_localization.rs"),
        "{races:#?}"
    );
    assert!(races[0].message.contains("fence on thread 1"), "{races:#?}");
}

#[test]
fn torn_straddling_store_is_confirmed_by_the_failing_recovery() {
    const WIDE: u64 = 0x1111_2222_3333_4444;
    // An 8-byte store straddling two cache lines, only the low line
    // flushed before the commit store: a committed recovery can read
    // the value half-old, half-new. The bug manifests, and the torn
    // pass must localize the straddling store through the read-from
    // evidence of the failing scenario.
    let program = |env: &dyn PmEnv| {
        let root = env.root();
        let commit = root;
        let data = root + 64 + 60; // last 4 bytes of one line + 4 of the next
        if env.is_recovery() {
            if env.load_u64(commit) == 1 {
                env.pm_assert(env.load_u64(data) == WIDE, "torn value observed");
            }
            return;
        }
        env.store_u64(data, WIDE);
        env.clflush(root + 64, 64); // low half only; the next line is never flushed
        env.sfence();
        env.store_u64(commit, 1);
        env.clflush(commit, 8);
        env.sfence();
    };
    let report = ModelChecker::new(graph_lint_config()).check(&program);
    assert!(!report.is_clean(), "the torn window must manifest");
    let torn: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == DiagnosticKind::TornStore)
        .collect();
    assert!(!torn.is_empty(), "{:#?}", report.diagnostics);
    assert!(
        torn[0].site.file().ends_with("lint_localization.rs"),
        "{torn:#?}"
    );
    assert!(torn[0].message.contains("never persists"), "{torn:#?}");
}

/// The site of the store `unflushed_commit` never flushes, as the guest
/// call recorded it.
static UNFLUSHED: OnceLock<&'static Location<'static>> = OnceLock::new();

/// Stores `value` at `addr` and captures the site the checker records
/// for that store: both are the caller's location.
#[track_caller]
fn store_and_capture(env: &dyn PmEnv, addr: PmAddr, value: u64) {
    env.store_u64(addr, value);
    let here = Location::caller();
    UNFLUSHED.get_or_init(|| here);
}

/// The Figure 4 commit-store idiom with the data store never flushed.
fn unflushed_commit(env: &dyn PmEnv) {
    let root = env.root();
    let data = root + 64;
    if env.is_recovery() {
        if env.load_u64(root) == 1 {
            env.pm_assert(env.load_u64(data) == 42, "committed data lost");
        }
        return;
    }
    store_and_capture(env, data, 42);
    env.store_u64(root, 1);
    env.clflush(root, 8);
    env.sfence();
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("no {key:?} in {value:?}"))
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

#[test]
fn a_store_site_reaches_every_renderer_unchanged() {
    let report = ModelChecker::new(graph_lint_config()).check(&unflushed_commit);
    let site = *UNFLUSHED.get().expect("the store ran");
    let file = site.file();
    let (line, column) = (u64::from(site.line()), u64::from(site.column()));

    // The diagnostic and its fix hold the recorded site itself.
    let diagnostic = report
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagnosticKind::MissingFlush)
        .unwrap_or_else(|| panic!("{:#?}", report.diagnostics));
    assert_eq!(diagnostic.site, site);
    assert_eq!(diagnostic.suggestion.map(|fix| fix.site()), Some(site));

    // The JSON report writes it as `file:line:column`, for the finding
    // and for its fix.
    let written = format!("{file}:{line}:{column}");
    let json = parse(&report.to_json()).expect("the JSON report parses");
    let entry = items(field(&json, "diagnostics"))
        .iter()
        .find(|d| field(d, "kind").as_str() == Some("missing-flush"))
        .expect("the JSON report lists the finding");
    assert_eq!(field(entry, "site").as_str(), Some(written.as_str()));
    assert_eq!(
        field(field(entry, "fix"), "site").as_str(),
        Some(written.as_str())
    );

    // SARIF splits it into a file, a line and a column, for the result
    // and for its fix.
    let sarif = parse(&to_sarif(&report.diagnostics, "0")).expect("the SARIF document parses");
    let run = &items(field(&sarif, "runs"))[0];
    let result = items(field(run, "results"))
        .iter()
        .find(|r| field(r, "ruleId").as_str() == Some("missing-flush"))
        .expect("SARIF lists the finding");
    let physical = field(&items(field(result, "locations"))[0], "physicalLocation");
    assert_eq!(
        field(field(physical, "artifactLocation"), "uri").as_str(),
        Some(file)
    );
    let region = field(physical, "region");
    assert_eq!(field(region, "startLine").as_u64(), Some(line));
    assert_eq!(field(region, "startColumn").as_u64(), Some(column));
    let change = &items(field(&items(field(result, "fixes"))[0], "artifactChanges"))[0];
    assert_eq!(
        field(field(change, "artifactLocation"), "uri").as_str(),
        Some(file)
    );
    let deleted = field(&items(field(change, "replacements"))[0], "deletedRegion");
    for (key, want) in [
        ("startLine", line),
        ("startColumn", column),
        ("endLine", line),
        ("endColumn", column),
    ] {
        assert_eq!(field(deleted, key).as_u64(), Some(want), "{key}");
    }
}

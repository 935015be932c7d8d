//! End-to-end checks of the `jaaru_cli` binary: exit codes, localized
//! fault sites, JSON and SARIF shape, serve batch mode, and output that
//! must not depend on the run (repeats, `--jobs`, snapshots).
//!
//! Each test runs the built binary and parses what it prints with the
//! serve protocol's JSON parser. A failed assertion fails the suite:
//! these are the CLI's acceptance checks, run by `cargo test`.

use std::path::PathBuf;
use std::process::Command;

use jaaru_serve::json::{parse, Value};

/// One finished `jaaru_cli` invocation.
struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn jaaru(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_jaaru_cli"))
        .args(args)
        .output()
        .expect("jaaru_cli runs");
    Run {
        code: out.status.code().expect("jaaru_cli exits normally"),
        stdout: String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        stderr: String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    }
}

/// Runs `args` and asserts the exit code, showing the output otherwise.
fn expect(args: &[&str], code: i32) -> Run {
    let run = jaaru(args);
    assert_eq!(
        run.code, code,
        "jaaru_cli {args:?}\nstdout:\n{}\nstderr:\n{}",
        run.stdout, run.stderr
    );
    run
}

fn json(text: &str) -> Value {
    parse(text).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{text}"))
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => panic!("not an array: {v:?}"),
    }
}

fn string(v: &Value) -> &str {
    v.as_str().unwrap_or_else(|| panic!("not a string: {v:?}"))
}

fn number(v: &Value) -> u64 {
    v.as_u64().unwrap_or_else(|| panic!("not a count: {v:?}"))
}

fn flag(v: &Value) -> bool {
    v.as_bool().unwrap_or_else(|| panic!("not a bool: {v:?}"))
}

/// The artifact location URI of a SARIF result's first location.
fn result_uri(result: &Value) -> &str {
    let location = &array(get(result, "locations"))[0];
    let physical = get(location, "physicalLocation");
    string(get(get(physical, "artifactLocation"), "uri"))
}

/// Writes `lines` as a batch file for `serve --batch` and returns its path.
fn batch_file(name: &str, lines: &[&str]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}.ndjson"));
    std::fs::write(&path, lines.join("\n") + "\n").expect("batch file written");
    path
}

/// Runs a serve batch and returns its exit code and replies by `id`.
fn serve_batch(name: &str, lines: &[&str]) -> (i32, Vec<(String, Value)>) {
    let path = batch_file(name, lines);
    let run = jaaru(&["serve", "--batch", path.to_str().unwrap()]);
    let replies = run
        .stdout
        .lines()
        .map(|line| {
            let reply = json(line);
            (string(get(&reply, "id")).to_string(), reply)
        })
        .collect();
    (run.code, replies)
}

fn reply<'a>(replies: &'a [(String, Value)], id: &str) -> &'a Value {
    replies
        .iter()
        .find(|(i, _)| i == id)
        .map(|(_, r)| r)
        .unwrap_or_else(|| panic!("no reply {id:?}"))
}

// ----------------------------------------------------------------- lint

#[test]
fn lint_fixed_recipe_benchmark_lints_clean() {
    expect(&["lint", "P-CLHT"], 0);
}

#[test]
fn lint_localizes_a_seeded_recipe_fault() {
    let run = expect(&["lint", "recipe", "1"], 1);
    assert!(
        run.stdout
            .contains("error[missing-flush] at crates/workloads/src/recipe/cceh.rs"),
        "{}",
        run.stdout
    );
}

#[test]
fn lint_localizes_a_seeded_pmdk_fault_as_json() {
    let run = expect(&["--format", "json", "lint", "pmdk", "1"], 1);
    let report = json(&run.stdout);
    assert!(flag(get(&report, "has_errors")));
    assert!(!flag(get(&report, "clean")));
    let diagnostics = array(get(&report, "diagnostics"));
    assert!(
        diagnostics
            .iter()
            .any(|d| string(get(d, "site")).contains("pmdk/btree_map.rs")),
        "{diagnostics:?}"
    );
}

#[test]
fn analyze_is_not_a_subcommand() {
    let run = expect(&["analyze", "CCEH"], 2);
    assert!(run.stdout.is_empty(), "{}", run.stdout);
    assert!(run.stderr.starts_with("usage:"), "{}", run.stderr);
    assert!(!run.stderr.contains("analyze"), "{}", run.stderr);
}

#[test]
fn unparsable_keys_argument_is_a_usage_error() {
    for args in [
        &["check", "CCEH", "abc"][..],
        &["lint", "CCEH", "abc"],
        &["repair", "CCEH", "abc"],
        &["bug", "recipe", "1", "abc"],
        &["lint", "pmdk", "1", "abc"],
        &["repair", "lockfree", "1", "abc"],
        &["perf", "abc"],
    ] {
        let run = expect(args, 2);
        assert!(run.stdout.is_empty(), "{args:?}: {}", run.stdout);
        assert!(run.stderr.starts_with("usage:"), "{args:?}: {}", run.stderr);
    }
}

#[test]
fn an_argument_past_the_last_a_subcommand_reads_is_a_usage_error() {
    for args in [
        &["list", "extra"][..],
        &["check", "CCEH", "6", "extra"],
        &["bug", "recipe", "10", "5", "extra"],
        &["lint", "CCEH", "6", "extra"],
        &["lint", "pmdk", "1", "5", "extra"],
        &["repair", "CCEH", "6", "extra"],
        &["repair", "recipe", "1", "5", "extra"],
        &["perf", "8", "extra"],
    ] {
        let run = expect(args, 2);
        assert!(run.stdout.is_empty(), "{args:?}: {}", run.stdout);
        assert!(run.stderr.starts_with("usage:"), "{args:?}: {}", run.stderr);
    }
}

#[test]
fn a_global_option_the_subcommand_never_reads_is_a_usage_error() {
    for args in [
        &["--no-snapshot", "list"][..],
        &["--no-snapshot", "fuzz", "--seeds", "20"],
        &["--no-snapshot", "litmus", "corpus"],
        &["--format", "json", "list"],
        &["--format", "text", "perf"],
        &["-f", "json", "serve", "--batch", "jobs.ndjson"],
        &["--format", "sarif", "fuzz", "--seeds", "20"],
        &["-f", "sarif", "litmus", "corpus"],
        &["--jobs", "2", "list"],
        &["-j", "1", "list"],
    ] {
        let run = expect(args, 2);
        assert!(run.stdout.is_empty(), "{args:?}: {}", run.stdout);
        assert!(run.stderr.starts_with("usage:"), "{args:?}: {}", run.stderr);
    }
}

#[test]
fn the_serve_panic_drill_is_not_a_one_shot_benchmark() {
    let run = expect(&["check", "__panic__"], 2);
    assert!(run.stdout.is_empty(), "{}", run.stdout);
    assert!(run.stderr.contains("unknown benchmark"), "{}", run.stderr);
}

// ---------------------------------------------------------------- SARIF

#[test]
fn sarif_export_of_a_seeded_fault_is_structurally_valid() {
    let run = expect(&["--format", "sarif", "lint", "recipe", "1"], 1);
    let doc = json(&run.stdout);
    assert_eq!(string(get(&doc, "version")), "2.1.0");
    assert!(string(get(&doc, "$schema")).contains("sarif-2.1.0"));
    let sarif_run = &array(get(&doc, "runs"))[0];
    let driver = get(get(sarif_run, "tool"), "driver");
    assert_eq!(string(get(driver, "name")), "jaaru");
    let rules: Vec<&str> = array(get(driver, "rules"))
        .iter()
        .map(|rule| string(get(rule, "id")))
        .collect();
    let results = array(get(sarif_run, "results"));
    assert!(!results.is_empty(), "a seeded fault must produce results");
    for result in results {
        let rule = string(get(result, "ruleId"));
        assert!(rules.contains(&rule), "{rule}");
        assert_eq!(rules[number(get(result, "ruleIndex")) as usize], rule);
        let level = string(get(result, "level"));
        assert!(["error", "warning", "note"].contains(&level), "{level}");
        assert!(!result_uri(result).is_empty(), "{result:?}");
    }
    assert!(
        results
            .iter()
            .any(|r| result_uri(r).contains("recipe/cceh.rs")),
        "the fault site must be localized in the SARIF results"
    );
}

#[test]
fn sarif_export_of_a_fixed_configuration_is_an_empty_run() {
    let run = expect(&["--format", "sarif", "lint", "P-CLHT"], 0);
    let doc = json(&run.stdout);
    let results = array(get(&array(get(&doc, "runs"))[0], "results"));
    assert!(results.is_empty(), "{results:?}");
}

// ----------------------------------------------------------------- fuzz

const FUZZ: [&str; 4] = ["fuzz", "--seeds", "200", "--differential"];

#[test]
fn fuzz_bounded_differential_campaign_has_no_divergences() {
    expect(&FUZZ, 0);
}

#[test]
fn fuzz_campaign_json_is_identical_across_runs_and_worker_counts() {
    let campaign = |jobs: &str| expect(&[&["--jobs", jobs, "-f", "json"][..], &FUZZ].concat(), 0);
    let first = campaign("1");
    json(&first.stdout);
    assert_eq!(first.stdout, campaign("1").stdout, "a repeated run differs");
    assert_eq!(first.stdout, campaign("4").stdout, "--jobs 4 differs");
}

// ---------------------------------------------------------------- serve

#[test]
fn serve_batch_serves_duplicates_from_cache_and_fails_closed() {
    let (code, replies) = serve_batch(
        "cache",
        &[
            r#"{"kind":"bug","suite":"recipe","row":10,"id":"cold"}"#,
            r#"{"kind":"bug","suite":"recipe","row":10,"id":"warm"}"#,
            r#"{"kind":"check","benchmark":"__panic__","id":"boom"}"#,
            r#"{"kind":"stats"}"#,
        ],
    );
    // A failed job is an infrastructure failure: exit 3, but every line
    // still gets a reply.
    assert_eq!(code, 3);
    assert_eq!(replies.len(), 4);
    let (cold, warm) = (reply(&replies, "cold"), reply(&replies, "warm"));
    assert_eq!(string(get(cold, "status")), "violation");
    assert!(!flag(get(cold, "cached")));
    assert_eq!(string(get(warm, "status")), "violation");
    assert!(flag(get(warm, "cached")));
    assert_eq!(
        get(warm, "artifact"),
        get(cold, "artifact"),
        "cached bytes differ"
    );
    let boom = reply(&replies, "boom");
    assert_eq!(string(get(boom, "status")), "failed");
    assert_eq!(get(boom, "artifact"), &Value::Null);
    assert!(string(get(boom, "error")).contains("panicked"), "{boom:?}");
    let metrics = get(reply(&replies, "stats"), "metrics");
    let cache = get(metrics, "cache");
    assert_eq!(number(get(cache, "result_hits")), 1, "{cache:?}");
    assert!(number(get(cache, "result_misses")) >= 1, "{cache:?}");
    assert_eq!(
        number(get(get(metrics, "jobs"), "failed")),
        1,
        "{metrics:?}"
    );
}

#[test]
fn served_canonical_json_matches_one_shot_bytes() {
    let (code, replies) = serve_batch("oneshot", &[r#"{"kind":"bug","suite":"recipe","row":10}"#]);
    assert_eq!(code, 1);
    let oneshot = expect(&["--format", "json-canonical", "bug", "recipe", "10"], 1);
    assert_eq!(
        string(get(&replies[0].1, "artifact")),
        oneshot.stdout,
        "served artifact differs from one-shot output"
    );
}

#[test]
fn served_resubmission_in_the_other_format_renders_the_cached_result() {
    let (code, replies) = serve_batch(
        "formats",
        &[
            r#"{"kind":"lint","suite":"recipe","row":10,"id":"json"}"#,
            r#"{"kind":"lint","suite":"recipe","row":10,"format":"sarif","id":"sarif"}"#,
        ],
    );
    assert_eq!(code, 1);
    let oneshot = expect(&["--format", "sarif", "lint", "recipe", "10"], 1);
    let (first, second) = (reply(&replies, "json"), reply(&replies, "sarif"));
    assert!(!flag(get(first, "cached")));
    assert!(flag(get(second, "cached")));
    let cache = get(get(second, "metrics"), "cache");
    assert_eq!(number(get(cache, "result_hits")), 1, "{cache:?}");
    assert_eq!(
        string(get(second, "artifact")),
        oneshot.stdout,
        "served SARIF differs from one-shot output"
    );
}

// ------------------------------------------------------------- snapshot

/// A JSON report without the fields that legitimately differ between
/// snapshot and replay runs: timing, the replayed/restored split and
/// the checkpoint counters.
fn without_run_fields(mut report: Value) -> Value {
    let Value::Object(fields) = &mut report else {
        panic!("not an object: {report:?}")
    };
    fields.remove("snapshots");
    let Some(Value::Object(stats)) = fields.get_mut("stats") else {
        panic!("no stats object")
    };
    for key in [
        "executions_replayed",
        "executions_restored",
        "duration_secs",
    ] {
        assert!(stats.remove(key).is_some(), "no stats.{key}");
    }
    report
}

#[test]
fn snapshot_and_replay_runs_agree_and_snapshots_restore() {
    let on = json(&expect(&["--format", "json", "check", "P-CLHT"], 0).stdout);
    let off = json(&expect(&["--no-snapshot", "--format", "json", "check", "P-CLHT"], 0).stdout);
    assert!(number(get(get(&on, "snapshots"), "hits")) > 0, "{on:?}");
    assert!(number(get(get(&on, "stats"), "executions_restored")) > 0);
    assert_eq!(get(&off, "snapshots"), &Value::Null);
    assert_eq!(number(get(get(&off, "stats"), "executions_restored")), 0);
    assert_eq!(without_run_fields(on), without_run_fields(off));
}

// ------------------------------------------------------------- lockfree

#[test]
fn lockfree_fixed_stack_and_queue_are_durably_linearizable() {
    expect(&["check", "LF-Stack"], 0);
    expect(&["check", "LF-Queue"], 0);
}

#[test]
fn lockfree_unpersisted_push_cas_loses_a_completed_op() {
    let run = expect(&["bug", "lockfree", "1"], 1);
    assert!(
        run.stdout
            .contains("durable linearizability violation: completed push("),
        "{}",
        run.stdout
    );
}

#[test]
fn lockfree_missing_enqueue_link_flush_loses_a_completed_op() {
    let run = expect(&["bug", "lockfree", "3"], 1);
    assert!(
        run.stdout
            .contains("durable linearizability violation: completed enqueue("),
        "{}",
        run.stdout
    );
}

// --------------------------------------------------------------- litmus

#[test]
fn litmus_named_corpus_passes_under_both_checkers() {
    expect(&["litmus", "corpus"], 0);
}

/// The default bound checks 51,055 programs: about 8 s in release on
/// two cores. Run it with `cargo test -p jaaru-cli --test cli --
/// --ignored`.
#[test]
#[ignore]
fn litmus_sweep_at_the_default_bound_is_clean() {
    let run = expect(&["--jobs", "0", "--format", "json", "litmus", "sweep"], 0);
    let sweep = json(&run.stdout);
    assert!(flag(get(&sweep, "clean")), "{sweep:?}");
    assert!(array(get(&sweep, "divergences")).is_empty(), "{sweep:?}");
    assert_eq!(number(get(&sweep, "max_total_ops")), 4);
    assert!(number(get(&sweep, "programs")) > 50_000, "{sweep:?}");
}

#[test]
fn litmus_sweep_json_is_identical_across_worker_counts() {
    const SWEEP: [&str; 6] = ["-f", "json", "litmus", "sweep", "--max-total", "3"];
    let sweep = |jobs: &str| expect(&[&["--jobs", jobs][..], &SWEEP].concat(), 0).stdout;
    let one = sweep("1");
    json(&one);
    assert_eq!(one, sweep("2"), "--jobs 2 differs");
    assert_eq!(one, sweep("4"), "--jobs 4 differs");
}

// --------------------------------------------------------------- repair

#[test]
fn repair_of_a_seeded_recipe_fault_is_a_verified_minimal_edit() {
    let run = expect(&["repair", "recipe", "1"], 0);
    assert!(
        run.stdout.contains("VERDICT: verified minimal repair"),
        "{}",
        run.stdout
    );
    assert!(run.stdout.contains("recipe/cceh.rs"), "{}", run.stdout);
}

#[test]
fn repair_sarif_carries_structured_fixes_with_the_verified_flag() {
    let run = expect(&["--format", "sarif", "repair", "pmdk", "4"], 0);
    let doc = json(&run.stdout);
    assert_eq!(string(get(&doc, "version")), "2.1.0");
    let results = array(get(&array(get(&doc, "runs"))[0], "results"));
    assert!(!results.is_empty(), "a seeded fault must produce results");
    let fixes: Vec<&Value> = results
        .iter()
        .filter_map(|r| r.get("fixes"))
        .flat_map(array)
        .collect();
    assert!(!fixes.is_empty(), "a repaired fault must carry SARIF fixes");
    for fix in fixes {
        assert!(!string(get(get(fix, "description"), "text")).is_empty());
        let change = &array(get(fix, "artifactChanges"))[0];
        assert!(!string(get(get(change, "artifactLocation"), "uri")).is_empty());
        let replacement = &array(get(change, "replacements"))[0];
        assert!(number(get(get(replacement, "deletedRegion"), "startLine")) > 0);
    }
    let verified: Vec<&Value> = results
        .iter()
        .filter(|r| {
            r.get("properties")
                .and_then(|p| p.get("verified"))
                .and_then(Value::as_bool)
                == Some(true)
        })
        .collect();
    assert!(
        !verified.is_empty(),
        "the proven edit set must flag its results"
    );
    assert!(
        verified
            .iter()
            .any(|r| result_uri(r).contains("pmdk/ctree_map.rs")),
        "the verified fix must land at the seeded fault site"
    );
}

#[test]
fn repair_refuses_a_fault_with_no_flush_or_fence_fix() {
    let run = expect(&["repair", "pmdk", "7"], 1);
    assert!(
        run.stdout.contains("VERDICT: no verified repair"),
        "{}",
        run.stdout
    );
}

//! End-to-end checks for the checking-as-a-service daemon: served
//! artifacts are byte-identical to one-shot CLI output (across worker
//! counts), duplicate submissions and resubmissions in the other format
//! are served from the shared result cache, cancellation / deadlines /
//! panics fail closed without affecting neighboring jobs, and the
//! Unix-socket front end round-trips the same protocol.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;

use jaaru::ModelChecker;
use jaaru_bench::registry::recipe_bug_cases;
use jaaru_serve::json::{parse, Value};
use jaaru_serve::{daemon, job_config, Daemon, JobSpec, Request, ServeOptions, PANIC_WORKLOAD};

const BUG_ROW: &str = r#"{"kind":"bug","suite":"recipe","row":10}"#;

fn new_daemon() -> Arc<Daemon> {
    Arc::new(Daemon::new(ServeOptions::default()))
}

/// Runs request lines through batch mode, returning the exit code and
/// parsed reply envelopes.
fn batch(d: &Arc<Daemon>, input: &str) -> (i32, Vec<Value>) {
    let mut out = Vec::new();
    let code = daemon::run_batch(d, input, &mut out).expect("batch mode runs");
    let replies = String::from_utf8(out)
        .expect("utf-8 replies")
        .lines()
        .map(|line| parse(line).expect("reply line is valid JSON"))
        .collect();
    (code, replies)
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("reply missing {key:?}"))
}

fn status(v: &Value) -> &str {
    field(v, "status").as_str().expect("status is a string")
}

fn artifact(v: &Value) -> &str {
    field(v, "artifact").as_str().expect("artifact present")
}

/// The one-shot report for a job spec, via exactly the checker
/// configuration the daemon derives from it.
fn one_shot(line: &str, jobs: usize) -> jaaru::CheckReport {
    let spec = match Request::from_value(&parse(line).unwrap(), jobs).unwrap() {
        Request::Job(spec) => spec,
        other => panic!("expected a job spec, got {other:?}"),
    };
    let JobSpec { workload, .. } = &spec;
    let row = match workload {
        jaaru_serve::Workload::Row { row, keys, .. } => {
            let case = recipe_bug_cases(*keys)
                .into_iter()
                .find(|c| c.id == *row)
                .expect("row exists");
            case.program
        }
        other => panic!("test only drives bug rows, got {other:?}"),
    };
    ModelChecker::new(job_config(&spec, None)).check(&*row)
}

#[test]
fn served_artifact_matches_one_shot_bytes_across_worker_counts() {
    for jobs in [1usize, 2, 4] {
        let line = format!(r#"{{"kind":"bug","suite":"recipe","row":10,"jobs":{jobs}}}"#);
        let (code, replies) = batch(&new_daemon(), &format!("{line}\n"));
        assert_eq!(code, 1, "a seeded bug is a violation");
        assert_eq!(status(&replies[0]), "violation");
        let expected = one_shot(&line, jobs).to_canonical_json();
        assert_eq!(
            artifact(&replies[0]),
            expected,
            "served canonical JSON must be byte-identical to one-shot output at jobs={jobs}"
        );
    }
}

#[test]
fn served_sarif_matches_one_shot_bytes() {
    let line = r#"{"kind":"lint","suite":"recipe","row":10,"format":"sarif"}"#;
    let (_, replies) = batch(&new_daemon(), &format!("{line}\n"));
    let report = one_shot(line, 1);
    let expected = jaaru::to_sarif(&report.diagnostics, env!("CARGO_PKG_VERSION"));
    assert_eq!(artifact(&replies[0]), expected);
}

#[test]
fn duplicate_submissions_are_served_from_the_result_cache() {
    let d = new_daemon();
    let input = format!("{BUG_ROW}\n{BUG_ROW}\n{BUG_ROW}\n");
    let (_, replies) = batch(&d, &input);
    assert_eq!(field(&replies[0], "cached").as_bool(), Some(false));
    for reply in &replies[1..] {
        assert_eq!(field(reply, "cached").as_bool(), Some(true));
        assert_eq!(
            artifact(reply),
            artifact(&replies[0]),
            "cached bytes identical"
        );
    }
    assert_eq!(d.cache_stats().shared_hits, 2);
    let cache = field(field(&replies[2], "metrics"), "cache");
    assert_eq!(cache.get("result_hits").and_then(Value::as_u64), Some(2));
    assert_eq!(cache.get("result_misses").and_then(Value::as_u64), Some(1));
}

#[test]
fn different_configs_do_not_share_results() {
    // Same program, different semantic config (lint vs bug): two
    // distinct result-cache entries.
    let d = new_daemon();
    let input = concat!(
        r#"{"kind":"bug","suite":"recipe","row":10}"#,
        "\n",
        r#"{"kind":"lint","suite":"recipe","row":10}"#,
        "\n",
    );
    let (_, replies) = batch(&d, input);
    for reply in &replies {
        assert_eq!(field(reply, "cached").as_bool(), Some(false));
    }
    assert_eq!(d.cache_stats().shared_hits, 0);
}

#[test]
fn a_resubmission_that_changes_only_performance_settings_is_a_cache_hit() {
    let d = new_daemon();
    let input = [
        r#"{"kind":"check","benchmark":"CCEH","keys":2}"#,
        r#"{"kind":"check","benchmark":"cceh","keys":2,"jobs":2,"deadline_ms":600000,"id":"copy"}"#,
        r#"{"kind":"check","benchmark":"CCEH","keys":3}"#,
        BUG_ROW,
        r#"{"kind":"bug","suite":"recipe","row":11}"#,
    ]
    .join("\n");
    let (_, replies) = batch(&d, &input);
    let cached: Vec<Option<bool>> = replies
        .iter()
        .map(|reply| field(reply, "cached").as_bool())
        .collect();
    assert_eq!(
        cached,
        [
            Some(false),
            Some(true),
            Some(false),
            Some(false),
            Some(false)
        ],
        "only the copy that differs in worker count, deadline, id and \
         letter case is served from the cache"
    );
    assert_eq!(status(&replies[0]), "ok");
    assert_eq!(field(&replies[1], "id").as_str(), Some("copy"));
    assert_eq!(status(&replies[1]), "ok");
    assert_eq!(
        artifact(&replies[1]),
        artifact(&replies[0]),
        "cached bytes identical"
    );
    let stats = d.cache_stats();
    assert_eq!((stats.shared_hits, stats.shared_misses), (1, 4));
}

#[test]
fn other_format_resubmission_renders_the_cached_result() {
    let json_line = r#"{"kind":"lint","suite":"recipe","row":10}"#;
    let sarif_line = r#"{"kind":"lint","suite":"recipe","row":10,"format":"sarif"}"#;
    let report = one_shot(json_line, 1);
    let json = report.to_canonical_json();
    let sarif = jaaru::to_sarif(&report.diagnostics, env!("CARGO_PKG_VERSION"));
    for [(first, first_bytes), (second, second_bytes)] in [
        [(json_line, &json), (sarif_line, &sarif)],
        [(sarif_line, &sarif), (json_line, &json)],
    ] {
        let d = new_daemon();
        let (_, replies) = batch(&d, &format!("{first}\n{second}\n"));
        assert_eq!(field(&replies[0], "cached").as_bool(), Some(false));
        assert_eq!(artifact(&replies[0]), first_bytes, "{first}");
        assert_eq!(
            field(&replies[1], "cached").as_bool(),
            Some(true),
            "{second} after {first}"
        );
        assert_eq!(
            artifact(&replies[1]),
            second_bytes,
            "{second} renders the one-shot bytes from the cached result"
        );
        assert_eq!(d.cache_stats().shared_hits, 1);
        let cache = field(field(&replies[1], "metrics"), "cache");
        assert_eq!(cache.get("result_hits").and_then(Value::as_u64), Some(1));
    }

    // A fuzz campaign has only its JSON view, so a SARIF resubmission
    // replays the same bytes.
    let d = new_daemon();
    let (_, replies) = batch(
        &d,
        concat!(
            r#"{"kind":"fuzz","seeds":2}"#,
            "\n",
            r#"{"kind":"fuzz","seeds":2,"format":"sarif"}"#,
            "\n",
        ),
    );
    assert_eq!(status(&replies[0]), "ok");
    assert_eq!(field(&replies[1], "cached").as_bool(), Some(true));
    assert_eq!(artifact(&replies[1]), artifact(&replies[0]));
    assert_eq!(d.cache_stats().shared_hits, 1);
}

#[test]
fn cancelled_job_fails_closed_without_affecting_neighbors() {
    let d = new_daemon();
    let (tx, rx) = channel();
    // Queue two jobs, cancel the second while both are still queued.
    d.submit_line(
        r#"{"kind":"bug","suite":"recipe","row":10,"id":"keeper"}"#,
        &tx,
    );
    d.submit_line(
        r#"{"kind":"bug","suite":"recipe","row":12,"id":"victim"}"#,
        &tx,
    );
    d.submit_line(r#"{"kind":"cancel","id":"victim"}"#, &tx);
    let cancel_ack = parse(&rx.recv().unwrap()).unwrap();
    assert_eq!(status(&cancel_ack), "ok", "cancel acknowledged inline");

    d.close();
    let executor = {
        let d = Arc::clone(&d);
        thread::spawn(move || d.run_executor())
    };
    let first = parse(&rx.recv().unwrap()).unwrap();
    let second = parse(&rx.recv().unwrap()).unwrap();
    executor.join().unwrap();

    assert_eq!(field(&first, "id").as_str(), Some("keeper"));
    assert_eq!(status(&first), "violation", "neighbor unaffected");
    assert!(artifact(&first).contains("\"clean\": false"));
    assert_eq!(field(&second, "id").as_str(), Some("victim"));
    assert_eq!(status(&second), "cancelled");
    assert_eq!(field(&second, "artifact"), &Value::Null, "fails closed");
    let jobs = field(field(&second, "metrics"), "jobs");
    assert_eq!(jobs.get("cancelled").and_then(Value::as_u64), Some(1));
}

#[test]
fn deadline_exceeded_job_fails_closed_without_affecting_neighbors() {
    let d = new_daemon();
    let input = concat!(
        r#"{"kind":"check","benchmark":"P-CLHT","keys":6,"deadline_ms":0,"id":"late"}"#,
        "\n",
        r#"{"kind":"bug","suite":"recipe","row":10,"id":"next"}"#,
        "\n",
    );
    let (code, replies) = batch(&d, input);
    assert_eq!(field(&replies[0], "id").as_str(), Some("late"));
    assert_eq!(status(&replies[0]), "deadline");
    assert_eq!(field(&replies[0], "artifact"), &Value::Null, "fails closed");
    assert!(field(&replies[0], "error")
        .as_str()
        .unwrap()
        .contains("deadline"));
    assert_eq!(status(&replies[1]), "violation", "daemon keeps serving");
    assert_eq!(code, 3, "deadline kills are infra failures in batch mode");
}

#[test]
fn panicking_workload_fails_while_daemon_keeps_serving() {
    let d = new_daemon();
    let input = format!(
        "{}\n{BUG_ROW}\n",
        format_args!(r#"{{"kind":"check","benchmark":"{PANIC_WORKLOAD}","id":"boom"}}"#)
    );
    let (code, replies) = batch(&d, &input);
    assert_eq!(status(&replies[0]), "failed");
    assert!(field(&replies[0], "error")
        .as_str()
        .unwrap()
        .contains("panicked"));
    assert_eq!(
        status(&replies[1]),
        "violation",
        "daemon survived the panic"
    );
    let jobs = field(field(&replies[1], "metrics"), "jobs");
    assert_eq!(jobs.get("retries").and_then(Value::as_u64), Some(1));
    assert_eq!(code, 3);
}

#[test]
fn unix_socket_roundtrip_serves_jobs_and_shuts_down() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};

    let path = std::env::temp_dir().join(format!("jaaru-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind test socket");
    let d = new_daemon();
    let server = thread::spawn(move || daemon::serve(d, listener));

    let stream = UnixStream::connect(&path).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let write_line = |line: &str| {
        let mut s = &stream;
        writeln!(s, "{line}").expect("write request");
    };
    let mut read_reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        parse(line.trim_end()).expect("valid reply JSON")
    };

    write_line(r#"{"kind":"stats"}"#);
    let stats = read_reply();
    assert_eq!(field(&stats, "id").as_str(), Some("stats"));

    write_line(BUG_ROW);
    write_line(BUG_ROW);
    let first = read_reply();
    let second = read_reply();
    assert_eq!(status(&first), "violation");
    assert_eq!(field(&second, "cached").as_bool(), Some(true));
    assert_eq!(artifact(&second), artifact(&first));

    write_line(r#"{"kind":"shutdown"}"#);
    let ack = read_reply();
    assert_eq!(field(&ack, "id").as_str(), Some("shutdown"));
    server.join().unwrap().expect("serve loop exits cleanly");
    let _ = std::fs::remove_file(&path);
}

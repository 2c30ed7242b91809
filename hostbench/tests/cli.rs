//! Tests of the benchmark itself: its declared metrics, its pinned
//! expected outcomes, and the command's behaviour.
//!
//! Run with `cargo test --release`: the command refuses to run as a debug
//! build, so under a debug `cargo test` the command-line tests check that
//! refusal instead.

use fac_sim::obs::{json, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_fac-hostbench");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark() -> Json {
    load(&manifest_dir().join("../BENCHMARK.json"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A scratch output directory of this test's own.
fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("hostbench-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run(tag: &str, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .args(["--out", out_dir(tag).to_str().expect("utf-8 path")])
        .output()
        .expect("the benchmark binary runs")
}

/// The result object on the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    json::parse(last).expect("last line is JSON")
}

/// Under a debug build the binary must refuse; returns `true` when the
/// caller should skip the release-only checks.
fn refused_as_debug(tag: &str) -> bool {
    if !cfg!(debug_assertions) {
        return false;
    }
    let out = run(
        tag,
        &[
            "--workload",
            "detail_sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "a debug build must refuse to run"
    );
    assert!(out.stdout.is_empty(), "a refused run prints no result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
    true
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(section) {
            assert!(
                valid_name(&name),
                "metric name {name:?} must match [A-Za-z0-9_.-]+"
            );
            assert!(!unit.is_empty(), "{name} has no unit");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }
    let workloads = benchmark();
    for w in workloads
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(valid_name(name), "workload name {name:?}");
    }
}

/// `expected.json` holds exactly the cycles of the committed paper-baseline
/// snapshot, and instruction counts consistent with its IPCs.
#[test]
fn expected_outcomes_match_the_committed_snapshot() {
    let expected = load(&manifest_dir().join("expected.json"));
    let snapshot = load(&manifest_dir().join("../BENCH_pr10.json"));
    let rows = snapshot
        .get("rows")
        .and_then(Json::as_arr)
        .expect("snapshot rows");
    let ours = expected
        .get("rows")
        .and_then(Json::as_arr)
        .expect("expected rows");
    assert_eq!(rows.len(), 19);
    assert_eq!(ours.len(), rows.len());
    for row in rows {
        let name = row.get("program").and_then(Json::as_str).expect("program");
        let mine = ours
            .iter()
            .find(|r| r.get("program").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from expected.json"));
        let insts = mine.get("insts").and_then(Json::as_u64).expect("insts");
        for config in ["baseline", "fac"] {
            let cycles = row
                .get(&format!("cycles.{config}"))
                .and_then(Json::as_u64)
                .expect("cycles");
            let ipc = row
                .get(&format!("ipc.{config}"))
                .and_then(Json::as_f64)
                .expect("ipc");
            let mine_cycles = mine
                .get("cycles")
                .and_then(|c| c.get(config))
                .and_then(Json::as_u64);
            assert_eq!(mine_cycles, Some(cycles), "{name}/{config} cycles");
            assert_eq!(
                (ipc * cycles as f64).round() as u64,
                insts,
                "{name}/{config} insts"
            );
        }
    }
}

/// Every declared metric is reported, with its declared unit, for both
/// the untraced and the traced run of every workload.
#[test]
fn every_metric_is_reported_with_its_unit() {
    if refused_as_debug("units-debug") {
        return;
    }
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let tag = format!("units-{workload}-{trace}");
            let out = run(
                &tag,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.01",
                    "--trace",
                    trace,
                    "--programs",
                    "espresso,yacr2",
                ],
            );
            assert_eq!(
                out.status.code(),
                Some(0),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let r = result(&out);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
            assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = r.get("metrics").expect("metrics");
            let Json::Obj(reported) = metrics else {
                panic!("metrics is an object")
            };
            let want = declared(section);
            assert_eq!(
                reported.len(),
                want.len(),
                "{workload} trace {trace}: exactly the declared metrics"
            );
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                if section == "end_to_end" {
                    assert!(
                        value.unwrap_or(0.0) > 0.0,
                        "{workload}: {name} must never be 0"
                    );
                }
            }
        }
    }
}

/// A wrong expected cycle count makes the command fail, and the failure
/// is counted.
#[test]
fn a_wrong_expected_cycle_count_fails_the_run() {
    if refused_as_debug("wrong-debug") {
        return;
    }
    let text =
        std::fs::read_to_string(manifest_dir().join("expected.json")).expect("expected.json");
    let right = "\"baseline\": 455075";
    assert!(
        text.contains(right),
        "espresso's baseline cycles are in expected.json"
    );
    let dir = out_dir("wrong-expected-file");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wrong = dir.join("expected.json");
    std::fs::write(&wrong, text.replace(right, "\"baseline\": 455076")).expect("write");

    let out = run(
        "wrong",
        &[
            "--workload",
            "detail_sweep",
            "--seed",
            "1",
            "--seconds",
            "0.01",
            "--trace",
            "0",
            "--programs",
            "espresso",
            "--expected",
            wrong.to_str().expect("utf-8"),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "a mismatch must fail the run");
    let r = result(&out);
    assert_eq!(r.get("correct"), Some(&Json::Bool(false)));
    assert!(r.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("cycles 455075 != expected 455076"));
}

/// Another seed runs the cells in another order with the same values.
#[test]
fn the_seed_changes_order_but_not_values() {
    if refused_as_debug("seed-debug") {
        return;
    }
    let cells = |seed: &str| -> Vec<String> {
        let out = run(
            &format!("seed-{seed}"),
            &[
                "--workload",
                "detail_sweep",
                "--seed",
                seed,
                "--seconds",
                "0.01",
                "--trace",
                "0",
                "--programs",
                "espresso,yacr2,alvinn",
            ],
        );
        assert_eq!(out.status.code(), Some(0));
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| l.starts_with("cell "))
            .map(str::to_string)
            .collect()
    };
    let (a, b) = (cells("1"), cells("2"));
    assert_eq!(a.len(), 6, "{a:?}");
    assert_ne!(a, b, "seeds 1 and 2 must order the cells differently");
    let (mut a, mut b) = (a, b);
    a.sort();
    b.sort();
    assert_eq!(a, b, "the same cells with the same values");
}

/// Regenerating the expected outcomes from the simulator reproduces the
/// committed rows exactly: the sampled estimates and register digests in
/// `expected.json` are what this code computes.
#[test]
fn expected_outcomes_regenerate_exactly() {
    if refused_as_debug("regen-debug") {
        return;
    }
    let dir = out_dir("regen-file");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("expected.json");
    let out = Command::new(BIN)
        .args([
            "--write-expected",
            path.to_str().expect("utf-8"),
            "--programs",
            "espresso,yacr2",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = load(&path);
    let committed = load(&manifest_dir().join("expected.json"));
    let rows = |doc: &Json| -> Vec<Json> {
        doc.get("rows")
            .and_then(Json::as_arr)
            .expect("rows")
            .iter()
            .filter(|r| {
                matches!(
                    r.get("program").and_then(Json::as_str),
                    Some("espresso" | "yacr2")
                )
            })
            .cloned()
            .collect()
    };
    assert_eq!(rows(&fresh).len(), 2);
    assert_eq!(rows(&fresh), rows(&committed));
}

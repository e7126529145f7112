//! Small runs of the benchmark binary: every metric `BENCHMARK.json` names
//! is printed with its unit, outputs verify, and exact counts repeat.

use hart_obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("parse BENCHMARK.json")
}

fn items(j: &Json, key: &str) -> Vec<Json> {
    match j.get(key) {
        Some(Json::Arr(a)) => a.clone(),
        other => panic!("{key}: {other:?}"),
    }
}

fn text(j: &Json, key: &str) -> String {
    match j.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("{key}: {other:?}"),
    }
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one small workload; return the summary line and the result file.
fn run(workload: &str, trace: u8, seed: u64, out: &Path) -> (Json, Json) {
    let o = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.4",
        ])
        .args([
            "--trace",
            &trace.to_string(),
            "--keys",
            "4000",
            "--out",
        ])
        .arg(out)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(o.stdout).unwrap();
    assert!(
        o.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("output");
    let summary = Json::parse(last).expect("last line is JSON");
    let result = out.join(format!("result-{workload}-seed{seed}-trace{trace}.json"));
    let result = Json::parse(&std::fs::read_to_string(result).unwrap()).unwrap();
    (summary, result)
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    let spec = spec();
    let out = out_dir("names");
    for w in items(&spec, "workloads") {
        let w = text(&w, "name");
        for (trace, set) in [(0, "end_to_end"), (1, "per_layer")] {
            let (summary, _) = run(&w, trace, 7, &out);
            assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(printed)) = summary.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let want = items(&spec, set);
            assert_eq!(printed.len(), want.len(), "{w} trace {trace}: metric count");
            for m in want {
                let (name, unit) = (text(&m, "name"), text(&m, "unit"));
                let got = summary.get("metrics").and_then(|p| p.get(&name));
                let got = got.unwrap_or_else(|| panic!("{w} trace {trace}: {name} missing"));
                assert_eq!(text(got, "unit"), unit, "{w}: unit of {name}");
                assert!(
                    got.get("value").and_then(Json::as_f64).is_some(),
                    "{w}: {name}"
                );
            }
        }
    }
}

/// Exact counts of the fixed-work workload, by name.
fn exact_counts(result: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for set in ["end_to_end", "per_layer"] {
        for m in items(result, set) {
            if m.get("exact").and_then(Json::as_bool) == Some(true) {
                let v = m.get("value").unwrap().to_compact();
                out.push((text(&m, "name"), v));
            }
        }
    }
    out
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let a = run("engine-phases", 1, 3, &out_dir("exact-a")).1;
    let b = run("engine-phases", 1, 3, &out_dir("exact-b")).1;
    let (ca, cb) = (exact_counts(&a), exact_counts(&b));
    assert!(ca.len() > 50, "only {} exact counts", ca.len());
    assert!(ca.iter().any(|(n, _)| n == "pm.persists.update"));
    assert_eq!(ca, cb);
}

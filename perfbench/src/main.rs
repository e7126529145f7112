//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload engine-phases|engine-scan|server-ycsb-a
//!           --seed N --seconds S --trace 0|1 [--out DIR]
//!           [--keys N]
//! ```
//!
//! Prints a readable report, writes a result file (and, traced, a span
//! file) into `--out`, and ends standard output with one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits non-zero when any output was wrong.

use hart_obs::Json;
use perfbench::report::{metrics_json, summary_line, table};
use perfbench::{engine, host, server, Outcome, RunArgs, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload engine-phases|engine-scan|server-ycsb-a --seed N \
         --seconds S --trace 0|1 [--out DIR] [--keys N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<(RunArgs, PathBuf), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut keys = None;
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("--seconds: {val}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {val}")),
                })
            }
            "--out" => out = PathBuf::from(val),
            "--keys" => keys = Some(num(&val)?.max(1000) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut a = RunArgs::new(workload, seed.ok_or("--seed is required")?);
    a.seconds = seconds.ok_or("--seconds is required")?;
    a.trace = trace.ok_or("--trace is required")?;
    a.keys = keys.unwrap_or(a.keys);
    Ok((a, out))
}

/// The result file: run stamps, both metric sets, phases and failures.
fn result_json(a: &RunArgs, o: &Outcome, spans: Option<&str>) -> String {
    let str = |s: &str| Json::Str(s.to_string());
    let mut stamps = vec![
        ("workload", a.workload.name().to_string()),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("trace", (a.trace as u8).to_string()),
        ("nproc", host::nproc().to_string()),
        ("cpu_model", host::cpu_model()),
        ("git_sha", host::git_sha()),
        ("latency", hart_pm::LatencyConfig::default().label()),
        ("time_mode", "Inject".to_string()),
        ("cache_bytes", perfbench::cache_bytes().to_string()),
        ("setups", perfbench::SETUPS.to_string()),
        ("recover_threads", a.threads.to_string()),
    ];
    stamps.extend(o.facts.iter().map(|(k, v)| (*k, v.clone())));
    let phases = o.tracer.as_ref().map_or(Vec::new(), |t| {
        t.phases()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Json::Obj(vec![
                    ("id".into(), Json::u64(i as u64)),
                    ("name".into(), str(p.name)),
                    ("start_ns".into(), Json::u64(p.start_ns)),
                    ("end_ns".into(), Json::u64(p.end_ns)),
                ])
            })
            .collect()
    });
    let v = &o.verifier;
    Json::Obj(vec![
        (
            "stamps".into(),
            Json::Obj(
                stamps
                    .into_iter()
                    .map(|(k, v)| (k.into(), Json::Str(v)))
                    .collect(),
            ),
        ),
        ("correct".into(), Json::Bool(v.correct())),
        ("attempted".into(), Json::u64(v.attempted())),
        ("failed".into(), Json::u64(v.failed())),
        (
            "failures".into(),
            Json::Arr(v.messages().iter().map(|m| str(m)).collect()),
        ),
        ("end_to_end".into(), metrics_json(&o.e2e)),
        ("per_layer".into(), metrics_json(&o.layer)),
        ("phases".into(), Json::Arr(phases)),
        ("spans_file".into(), spans.map_or(Json::Null, str)),
    ])
    .to_pretty()
}

fn main() -> ExitCode {
    let (a, out) = match parse_args() {
        Ok(x) => x,
        Err(e) => return usage(&e),
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} cpu=\"{}\" latency={} keys={}/{}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        host::nproc(),
        host::cpu_model(),
        hart_pm::LatencyConfig::default().label(),
        a.keys,
        a.server_keys(),
    );
    let o = match a.workload {
        Workload::EnginePhases => engine::phases(&a, hart_workloads::value_for),
        Workload::EngineScan => engine::scan(&a, hart_workloads::value_for),
        Workload::ServerYcsbA => server::run(&a),
    };

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        a.trace as u8
    );
    let spans = o.tracer.as_ref().map(|t| {
        let path = out.join(format!("spans-{}.bin", a.workload.name()));
        if let Err(e) = t.write_ops(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        path.display().to_string()
    });
    let result_path = out.join(format!("result-{tag}.json"));
    if let Err(e) = std::fs::write(&result_path, result_json(&a, &o, spans.as_deref())) {
        eprintln!("perfbench: cannot write {}: {e}", result_path.display());
    }

    println!("end-to-end:\n{}", table(&o.e2e));
    if a.trace {
        println!("per-layer:\n{}", table(&o.layer));
    }
    let v = &o.verifier;
    println!(
        "verified {} items, {} failed (fail_ratio {}); result file {}",
        v.attempted(),
        v.failed(),
        v.fail_ratio(),
        result_path.display()
    );
    for m in v.messages() {
        println!("FAILED: {m}");
    }
    let metrics = if a.trace { &o.layer } else { &o.e2e };
    println!(
        "{}",
        summary_line(v.correct(), v.attempted().max(1), v.failed(), metrics)
    );
    if v.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

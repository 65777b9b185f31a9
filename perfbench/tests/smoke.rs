//! Tiny-size runs of every workload, untraced and traced: each must pass
//! its correctness checks and print every metric `BENCHMARK.json` names,
//! with its unit, as the last line of standard output.

use std::path::Path;
use std::process::Command;

use minijson::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn named(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(workload: &str, trace: &str) -> Value {
    let work = tempdir(workload, trace);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "2"])
        .args(["--trace", trace, "--scale", "tiny"])
        .current_dir(&work)
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let _ = std::fs::remove_dir_all(&work);
    Value::parse(last).expect("result line is JSON")
}

/// A private working directory under the build's target directory.
fn tempdir(workload: &str, trace: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn check(workload: &str) {
    let doc = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run_tiny(workload, trace);
        let keys: Vec<&String> = result
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys.len(), 4, "{keys:?}");
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let want = named(&doc, list);
        assert_eq!(
            metrics.len(),
            want.len(),
            "{workload} {list}: exactly the named metrics"
        );
        for (name, unit) in want {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
        }
    }
}

#[test]
fn headline_emits_every_metric() {
    check("headline");
}

#[test]
fn lowtrace_emits_every_metric() {
    check("lowtrace");
}

#[test]
fn serve_emits_every_metric() {
    check("serve");
}

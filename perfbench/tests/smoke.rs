//! Tiny-seed smoke runs of every workload, measured and traced, and a
//! check that the reported metric names are the ones `BENCHMARK.json`
//! lists.

use rotary::core::json::{self, Json};
use rotary_perfbench::report::{end_to_end, per_layer};
use rotary_perfbench::workloads::{run, RunOut, RunParams, Scale, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> RunOut {
    let params = RunParams {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    let out = run(params).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(out.problems.is_empty(), "{}: {:?}", workload.name(), out.problems);
    for round in &out.rounds {
        assert_eq!(round.submissions(), out.sizes.shards * out.sizes.submissions);
        for shard in &round.shards {
            assert_eq!(shard.errors.total(), 0, "{}: {:?}", workload.name(), shard.errors);
        }
    }
    out
}

fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric has a name").to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    for workload in Workload::ALL {
        let measured = tiny(workload, false);
        assert!(!measured.rounds.is_empty());
        let traced = tiny(workload, true);
        assert_eq!(traced.rounds.len(), 2);
        assert!(traced.traced.as_ref().is_some_and(|t| !t.spans.is_empty()));
    }
}

#[test]
fn reported_names_match_benchmark_json() {
    let measured = tiny(Workload::FrontDoor, false);
    let names: Vec<String> = end_to_end(&measured).iter().map(|m| m.name.into()).collect();
    assert_eq!(names, listed("end_to_end"));
    let traced = tiny(Workload::FrontDoor, true);
    let names: Vec<String> = per_layer(&traced).iter().map(|m| m.name.into()).collect();
    assert_eq!(names, listed("per_layer"));
}

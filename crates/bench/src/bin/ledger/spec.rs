//! `BENCHMARK.json`, generated from the tables the benchmark itself
//! reports with, so the two cannot drift: `ledger spec` prints it and a
//! unit test compares the committed file against it.

use zen_telemetry::json::push_str_literal;

use crate::kernels::KERNEL_METRICS;
use crate::workloads::{Workload, EXACT_METRICS};
use crate::{END_TO_END, SPAN_METRICS};

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver appends `--workload … --trace …` to. Cargo
/// discovers `src/bin/ledger/main.rs` as a binary of `zen-bench`, so the
/// benchmark needs no manifest or lockfile of its own.
const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "-p",
    "zen-bench",
    "--bin",
    "ledger",
    "--",
];

const PATHS: [&str; 1] = ["crates/bench/src/bin/ledger"];

/// Why each workload is in the benchmark, with its recorded size.
fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::FabricForward => {
            "World, k=8 fat-tree, ProactiveFabric, 128 hosts x 4000 20-byte datagrams 100us apart: \
             the cached forward (queue, link, microflow hit, replay); controller and codec idle"
        }
        Workload::ReactiveChurn => {
            "World, k=4 fat-tree, ReactiveForwarding idle 20ms, 128 flows x 750 datagrams 50ms apart: \
             every datagram is a full flow setup; also the dataplane's write side"
        }
        Workload::CbenchClosed => {
            "one Controller + L2Learning, 8 CbenchSwitches with 8 punts in flight, 600k setups: \
             controller and codec alone, no agent, dataplane, data link or path computation"
        }
        Workload::ClusterChurn => {
            "World, 3 replicas over k=4 fat-tree, 15 2s cycles: link flap per 50ms, intent per 20ms, \
             one replica isolated 600ms: zen-cluster, zen-consensus, east-west codec; timer-driven"
        }
    }
}

fn string_array(out: &mut String, items: &[&str]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(out, item);
    }
    out.push(']');
}

/// One object per line inside `"key": [ … ]`.
fn object_array(out: &mut String, key: &str, objects: &[String], last: bool) {
    out.push_str("  ");
    push_str_literal(out, key);
    out.push_str(": [\n");
    for (i, object) in objects.iter().enumerate() {
        out.push_str("    ");
        out.push_str(object);
        out.push_str(if i + 1 < objects.len() { ",\n" } else { "\n" });
    }
    out.push_str(if last { "  ]\n" } else { "  ],\n" });
}

fn object(fields: &[(&str, &str)], bound: Option<f64>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, key);
        out.push_str(": ");
        push_str_literal(&mut out, value);
    }
    if let Some(bound) = bound {
        out.push_str(&format!(", \"bound\": {bound}"));
    }
    out.push('}');
    out
}

/// The whole of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": ");
    string_array(&mut out, &COMMAND);
    out.push_str(",\n  \"paths\": ");
    string_array(&mut out, &PATHS);
    out.push_str(&format!(",\n  \"run_seconds\": {RUN_SECONDS},\n"));

    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| object(&[("name", w.name()), ("why", why(w))], None))
        .collect();
    object_array(&mut out, "workloads", &workloads, false);

    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            object(
                &[
                    ("name", m.name),
                    ("unit", m.unit),
                    ("better", m.better.name()),
                ],
                Some(m.bound),
            )
        })
        .collect();
    object_array(&mut out, "end_to_end", &end_to_end, false);

    let per_layer: Vec<String> = SPAN_METRICS
        .into_iter()
        .chain(EXACT_METRICS)
        .chain(KERNEL_METRICS)
        .map(|(name, unit, better)| {
            object(
                &[("name", name), ("unit", unit), ("better", better.name())],
                None,
            )
        })
        .collect();
    object_array(&mut out, "per_layer", &per_layer, true);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whys_fit_the_contract() {
        for w in Workload::ALL {
            let why = why(w);
            assert!(why.len() <= 200, "{}: {} chars", w.name(), why.len());
            assert!(!why.contains('\n'));
        }
    }

    /// The committed `BENCHMARK.json` is exactly what the code says.
    /// Regenerate with `ledger spec > BENCHMARK.json`.
    #[test]
    fn committed_benchmark_json_matches_the_code() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest directory");
        let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("readable");
        assert_eq!(committed, benchmark_json());
    }
}

//! All six workloads at `--smoke` size (1/50 of every op count), through
//! the same harness the `run` command uses: every self-check must pass, no
//! op may fail, and the simulated side must not depend on tracing.

use flexbench::harness::{contract_line, measure, set_up, RunSpec, SMOKE_SCALE};
use flexbench::json::Json;
use flexbench::metrics::spec;

fn smoke(workload: &str, traced: bool) -> flexbench::harness::Report {
    let spec = RunSpec {
        workload: workload.to_string(),
        seed: 1,
        // Zero seconds: exactly one window.
        seconds: 0.0,
        traced,
        scale: SMOKE_SCALE,
    };
    // A warm set-up in this process stands in for the cold sibling process.
    let mut warm_setup = || set_up(&spec).map(|(_, seconds)| seconds);
    let report = measure(&spec, &mut warm_setup).expect("workload builds");
    assert!(report.errors.is_empty(), "{workload}: {:?}", report.errors);
    assert_eq!(report.failed, 0, "{workload}: failed ops");
    assert!(report.attempted > 0 && report.correct());
    assert_eq!(report.segment_seconds.len(), report.window_segments);
    assert_eq!(report.window_ops, report.attempted);
    report
}

#[test]
fn every_workload_runs_checks_itself_and_reports_every_metric() {
    let spec = spec();
    for (workload, _) in &spec.workloads {
        let untraced = smoke(workload, false);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        let expect: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, expect, "{workload}");
        for m in &untraced.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload}: {} = {}",
                m.name,
                m.value
            );
        }

        // The line the driver reads: exactly four keys, every metric with
        // exactly a value and a unit.
        let line = Json::parse(&contract_line(&untraced)).expect("one JSON object");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for (_, metric) in line.get("metrics").unwrap().as_obj().unwrap() {
            let fields: Vec<&str> = metric
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(fields, ["value", "unit"]);
        }

        let traced = smoke(workload, true);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let expect: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, expect, "{workload}");
        assert!(
            traced.metrics.iter().all(|m| m.value.is_finite()),
            "{workload}"
        );
        let layer = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(layer("flexbench.run.failed_ops_ppm"), 0.0);

        // Tracing must not move the model.
        assert_eq!(
            traced.sim_digest, untraced.sim_digest,
            "{workload}: sim_digest"
        );
        assert_eq!(
            traced.sim_latency, untraced.sim_latency,
            "{workload}: sim latency"
        );

        // Each family's own layers are on its path, the others' are not.
        let on_path = |name: &str| layer(name) > 0.0;
        match workload.split('_').next().unwrap() {
            "dev" => {
                assert!(on_path("dataplane.graph.run_ns_per_pkt"));
                assert_eq!(
                    on_path("dataplane.table.lookup_ns_per_key"),
                    workload == "dev_acl"
                );
                assert!(
                    !on_path("sim.engine.run_ns_per_hop") && !on_path("controller.txn.ns_per_op")
                );
            }
            "fabric" => {
                assert!(
                    on_path("sim.engine.run_ns_per_hop")
                        && on_path("dataplane.device.process_ns_per_hop")
                );
                assert_eq!(
                    on_path("dataplane.table.add_entry_ns"),
                    workload == "fabric_reconfig"
                );
                assert!(
                    !on_path("dataplane.graph.run_ns_per_pkt")
                        && !on_path("controller.txn.ns_per_op")
                );
            }
            _ => {
                assert!(on_path("controller.txn.ns_per_op"));
                assert_eq!(on_path("lang.frontend.ns_per_op"), workload == "ctl_txn");
                assert_eq!(
                    on_path("controller.recovery.recover_ns"),
                    workload == "ctl_recover"
                );
                assert!(
                    !on_path("sim.engine.run_ns_per_hop")
                        && !on_path("dataplane.graph.run_ns_per_pkt")
                );
            }
        }
    }
}

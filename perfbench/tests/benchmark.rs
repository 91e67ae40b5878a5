//! The benchmark's own tests: the timing wrapper is transparent, every
//! name is well-formed and matches `BENCHMARK.json`, and every workload
//! completes and passes its output check at a tiny size.

use std::sync::Arc;

use hawk_core::scheduler::{Hawk, Scheduler, Sparrow};
use hawk_core::{Experiment, MetricsReport};
use hawk_proto::ProtoBackend;
use hawk_workload::google::GOOGLE_SHORT_PARTITION;
use perfbench::check::{check_report, check_same};
use perfbench::runner::{self, Options, TRACED_PAIRS, TRACES};
use perfbench::spec::{valid_name, END_TO_END, PER_LAYER};
use perfbench::timed::TimedScheduler;
use perfbench::workloads::{trace_for, Workload};

/// A small Google-like cell: 100 nodes at ~90 % load.
fn small_cell(policy: Arc<dyn Scheduler>) -> Experiment {
    Experiment::builder()
        .trace(trace_for(100, 400, 7))
        .scheduler_shared(policy)
        .nodes(100)
        .seed(7)
        .build()
}

fn assert_identical(wrapped: &MetricsReport, plain: &MetricsReport) {
    assert_eq!(wrapped.scheduler, plain.scheduler);
    assert!(check_same(wrapped, plain).is_ok());
    assert_eq!(wrapped.steal_attempts, plain.steal_attempts);
    assert_eq!(wrapped.utilization_samples, plain.utilization_samples);
    assert_eq!(wrapped.network, plain.network);
}

#[test]
fn timing_wrapper_is_transparent_in_both_backends() {
    let policies: [Arc<dyn Scheduler>; 2] = [
        Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)),
        Arc::new(Sparrow::new()),
    ];
    for policy in policies {
        let timed = Arc::new(TimedScheduler::new(Arc::clone(&policy)));
        let plain = small_cell(Arc::clone(&policy));
        let wrapped = small_cell(Arc::clone(&timed) as Arc<dyn Scheduler>);

        let (sim_plain, sim_wrapped) = (plain.run(), wrapped.run());
        assert_identical(&sim_wrapped, &sim_plain);
        let proto = ProtoBackend::deterministic();
        let (proto_plain, proto_wrapped) = (plain.run_on(&proto), wrapped.run_on(&proto));
        assert_identical(&proto_wrapped, &proto_plain);

        // The wrapper saw the policy's calls in both backends.
        assert!(timed.probe().calls > 0, "{}: no probe calls", policy.name());
        if policy.steal().is_some() {
            assert!(sim_plain.steal_attempts > 0 && proto_plain.steal_attempts > 0);
            assert!(
                timed.victim().calls >= sim_plain.steal_attempts + proto_plain.steal_attempts,
                "hawk: victim calls were missed"
            );
        } else {
            assert_eq!(timed.victim().calls, 0);
        }
    }
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "bad name {name:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !metric.unit.is_empty()
                && metric.unit.len() <= 16
                && metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?}",
            metric.unit
        );
    }
    assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b"));
}

/// The values of every `"key": "value"` pair in `json`, in order.
fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    json.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &json[at + pattern.len()..];
            &rest[..rest.find('"').expect("closed string")]
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let metrics: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(metrics.iter().map(|m| m.name));
    assert_eq!(string_values(&json, "name"), names);
    let units: Vec<&str> = metrics.iter().map(|m| m.unit).collect();
    assert_eq!(string_values(&json, "unit"), units);
    let better: Vec<&str> = metrics.iter().map(|m| m.better.as_str()).collect();
    assert_eq!(string_values(&json, "better"), better);
}

#[test]
fn the_check_rejects_wrong_output() {
    let cell = small_cell(Arc::new(Hawk::new(GOOGLE_SHORT_PARTITION)));
    let report = cell.run();
    assert!(check_report(&report, cell.trace()).is_ok());

    let mut missing = report.clone();
    missing.results.pop();
    assert!(check_report(&missing, cell.trace()).is_err());

    let mut drifted = report.clone();
    drifted.streaming.short.p50 = drifted.streaming.short.p50.map(|p| p * 1.1);
    assert!(check_report(&drifted, cell.trace()).is_err());

    let mut more_events = report.clone();
    more_events.events += 1;
    assert!(check_same(&more_events, &report).is_err());
    let mut fewer_steals = report.clone();
    fewer_steals.steals -= 1;
    assert!(check_same(&fewer_steals, &report).is_err());
}

#[test]
fn every_workload_passes_its_check_at_a_tiny_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = Options {
                workload,
                seed: 5,
                seconds: 0.0,
                trace,
                jobs: 200,
            };
            let outcome = runner::run(&options);
            let name = workload.name();
            assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.notes);
            let cells = if trace { 2 * TRACED_PAIRS } else { TRACES };
            assert_eq!(outcome.attempted, cells as u64, "{name}");
            let spec = if trace { PER_LAYER } else { END_TO_END };
            let reported: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            let expected: Vec<&str> = spec.iter().map(|m| m.name).collect();
            assert_eq!(reported, expected, "{name}");
            for (metric, value) in &outcome.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            let value = |n: &str| outcome.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
            if trace {
                assert!(!outcome.spans.spans().is_empty(), "{name}: no spans");
                assert!(value("core.scheduler.probe_calls") > 0.0, "{name}");
                if workload.is_proto() {
                    assert!(value("proto.messages") > 0.0, "{name}");
                } else {
                    assert!(value("core.driver.events") > 0.0, "{name}");
                }
            } else {
                assert!(
                    value("jobs_per_s") > 0.0 && value("setup_s") > 0.0,
                    "{name}"
                );
            }
        }
    }
}

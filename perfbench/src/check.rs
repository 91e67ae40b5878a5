//! The output check every timed run must pass. A run that fails it counts
//! as a failed operation, never as a slow success.

use hawk_core::MetricsReport;
use hawk_simcore::stats::StreamingQuantiles;
use hawk_workload::{JobClass, Trace};

/// Checks one run's report against its trace:
///
/// * every job completed, once, no earlier than it was submitted;
/// * the streaming percentiles (p50/p90/p99 of both classes) are within
///   [`StreamingQuantiles::RELATIVE_ERROR`] of the exact sorted values.
pub fn check_report(report: &MetricsReport, trace: &Trace) -> Result<(), String> {
    if report.results.len() != trace.len() {
        return Err(format!(
            "{} of {} jobs reported",
            report.results.len(),
            trace.len()
        ));
    }
    for (index, result) in report.results.iter().enumerate() {
        if result.job.index() != index {
            return Err(format!("result {index} belongs to job {}", result.job.0));
        }
        if result.completion < result.submission {
            return Err(format!("job {index} completed before it was submitted"));
        }
    }
    let drift = streaming_drift(report);
    if drift > StreamingQuantiles::RELATIVE_ERROR + 1e-9 {
        return Err(format!(
            "streaming percentiles drifted {drift:.3e} from the exact values (budget {:.3e})",
            StreamingQuantiles::RELATIVE_ERROR
        ));
    }
    Ok(())
}

/// The largest relative error of the streaming p50/p90/p99 against the
/// exact sorted reads, over both job classes.
fn streaming_drift(report: &MetricsReport) -> f64 {
    let mut worst = 0.0f64;
    for class in [JobClass::Short, JobClass::Long] {
        let streamed = report.streaming.class(class);
        let sorted = report.sorted_runtimes(class);
        if sorted.is_empty() {
            continue;
        }
        for (p, estimate) in [
            (50.0, streamed.p50),
            (90.0, streamed.p90),
            (99.0, streamed.p99),
        ] {
            let exact = hawk_simcore::stats::percentile_of_sorted(&sorted, p);
            let Some(estimate) = estimate else {
                return f64::INFINITY;
            };
            worst = worst.max((estimate - exact).abs() / exact.abs().max(1e-12));
        }
    }
    worst
}

/// Checks that two runs of the same cell computed the same thing: same
/// per-job results, event count and steal count.
pub fn check_same(report: &MetricsReport, reference: &MetricsReport) -> Result<(), String> {
    if report.results != reference.results {
        return Err("per-job results differ from the reference run".to_string());
    }
    if report.events != reference.events {
        return Err(format!(
            "{} events against the reference run's {}",
            report.events, reference.events
        ));
    }
    if report.steals != reference.steals {
        return Err(format!(
            "{} steals against the reference run's {}",
            report.steals, reference.steals
        ));
    }
    Ok(())
}

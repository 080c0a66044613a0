//! Property-based tests for the monitoring layer.

use std::sync::Arc;

use cgsim_monitor::{
    MetricsReport, MonitoringCollector, MonitoringConfig, OutcomeRow, OutcomeTable, Table,
};
use cgsim_workload::{JobId, JobKind, JobRecord, JobState, Trace};
use proptest::prelude::*;

/// Outcomes at up to five sites, each a record and a row.
fn arb_outcomes() -> impl Strategy<Value = OutcomeTable> {
    let outcome = (
        any::<u64>(),
        0u16..5,
        1u32..9,
        0.0f64..1e5,
        0.0f64..1e4,
        0.0f64..1e5,
        any::<bool>(),
    );
    prop::collection::vec(outcome, 0..200).prop_map(|outcomes| {
        let mut trace = Trace::default();
        let mut rows = Vec::new();
        for (id, site, cores, submit, queue, wall, failed) in outcomes {
            let kind = if cores > 1 {
                JobKind::MultiCore
            } else {
                JobKind::SingleCore
            };
            let mut record = JobRecord::new(id, kind, cores, wall * cores as f64);
            record.submit_time = submit;
            let start = submit + queue;
            rows.push(OutcomeRow {
                job: trace.jobs.len() as u32,
                site,
                final_state: if failed {
                    JobState::Failed
                } else {
                    JobState::Finished
                },
                available_cores_at_assign: 0,
                queue_at_assign: 0,
                start_time: start,
                end_time: start + wall,
                staged_bytes: 1_000,
            });
            trace.jobs.push(record);
        }
        let sites: Vec<Arc<str>> = (0..5).map(|s| format!("SITE-{s}").into()).collect();
        OutcomeTable::new(rows, Arc::new(trace), sites.into())
    })
}

proptest! {
    /// The metrics report is internally consistent for arbitrary outcome sets.
    #[test]
    fn metrics_report_is_consistent(outcomes in arb_outcomes()) {
        let report = MetricsReport::from_outcomes(&outcomes);
        prop_assert_eq!(report.total_jobs as usize, outcomes.len());
        prop_assert_eq!(report.finished_jobs + report.failed_jobs, report.total_jobs);
        prop_assert!(report.failure_rate >= 0.0 && report.failure_rate <= 1.0);
        prop_assert!(report.makespan_s >= 0.0);
        let per_site_total: u64 = report
            .per_site
            .values()
            .map(|s| s.finished_jobs + s.failed_jobs)
            .sum();
        prop_assert_eq!(per_site_total, report.total_jobs);
        prop_assert!(report.cpu_utilisation(10_000) >= 0.0);
        prop_assert!(report.cpu_utilisation(10_000) <= 1.0);
    }

    /// The collector's counters always match the transitions it was fed, and
    /// sampling only thins the event rows, never the counters.
    #[test]
    fn collector_counters_match_transitions(
        transitions in prop::collection::vec((0usize..3, 0u8..5), 0..300),
        stride in 1u64..10,
    ) {
        let mut collector = MonitoringCollector::new(
            vec!["A".into(), "B".into(), "C".into()],
            MonitoringConfig { sample_stride: stride, ..MonitoringConfig::default() },
        );
        let mut expected_finished = [0u64; 3];
        let mut expected_assigned = [0u64; 3];
        for (i, (site, state_code)) in transitions.iter().enumerate() {
            let state = match state_code {
                0 => JobState::Pending,
                1 => JobState::Assigned,
                2 => JobState::Running,
                3 => JobState::Finished,
                _ => JobState::Failed,
            };
            if state == JobState::Assigned {
                expected_assigned[*site] += 1;
            }
            if state == JobState::Finished {
                expected_finished[*site] += 1;
            }
            collector.record_transition(i as f64, JobId(i as u64), state, Some(*site), 10, 0);
        }
        for site in 0..3 {
            prop_assert_eq!(collector.site_counters(site).finished, expected_finished[site]);
            prop_assert_eq!(collector.site_counters(site).assigned, expected_assigned[site]);
        }
        prop_assert_eq!(collector.transitions_seen(), transitions.len() as u64);
        prop_assert!(collector.events().len() <= transitions.len());
        // The exported table always has a header plus one row per event.
        let mut csv = Vec::new();
        Table::Events(collector.events()).write_csv(&mut csv).unwrap();
        let rows = csv.iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(rows, collector.events().len() + 1);
    }
}

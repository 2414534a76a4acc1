//! The capability matrix of every scenario: which checking modes it
//! supports, which of them it can shard over a verifier pool, which it
//! can checkpoint for the continuous service, and how it refuses a mode
//! it does not support.

use vyrd_core::violation::Report;
use vyrd_core::Event;
use vyrd_harness::scenario::{record_run, CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;

const KINDS: [CheckKind; 3] = [CheckKind::Io, CheckKind::View, CheckKind::Lin];

/// Scenarios with a checkpointable view replayer.
const VIEW_STEPPING: [&str; 3] = ["Multiset-Vector", "Multiset-BinaryTree", "Cache"];

/// One scenario's expected row: (supports, shard factory, stepping
/// factory) per mode.
fn expected(name: &str, table_row: bool, kind: CheckKind) -> (bool, bool, bool) {
    match kind {
        CheckKind::Io | CheckKind::Lin => (true, true, true),
        CheckKind::View if table_row => (true, true, VIEW_STEPPING.contains(&name)),
        CheckKind::View => (false, false, false),
    }
}

fn every_scenario() -> Vec<(Box<dyn Scenario>, bool)> {
    let rows = scenarios::all().into_iter().map(|s| (s, true));
    rows.chain(scenarios::lockfree().into_iter().map(|s| (s, false)))
        .collect()
}

fn small() -> WorkloadConfig {
    WorkloadConfig {
        threads: 2,
        calls_per_thread: 20,
        key_pool: 8,
        shrink_pool: true,
        internal_task: false,
        seed: 7,
        pace: None,
    }
}

fn assert_unsupported(report: &Report, what: &str) {
    assert!(!report.passed(), "{what}: {report}");
    let v = report.violation.as_ref().expect("violation");
    assert_eq!(v.category(), "unsupported-mode", "{what}: {v}");
}

#[test]
fn every_scenario_reports_its_capability_matrix() {
    let all = every_scenario();
    assert_eq!(all.len(), 8);
    for (s, table_row) in &all {
        for kind in KINDS {
            let got = (
                s.supports(kind),
                s.shard_factory(kind).is_some(),
                s.stepping_factory(kind).is_some(),
            );
            assert_eq!(
                got,
                expected(s.name(), *table_row, kind),
                "{} {kind:?}: (supports, shard, stepping)",
                s.name()
            );
        }
    }
}

#[test]
fn unsupported_modes_fail_on_every_check_path() {
    let mut refused = 0;
    for (s, _) in every_scenario() {
        for kind in KINDS.into_iter().filter(|&k| !s.supports(k)) {
            refused += 1;
            let events: Vec<Event> =
                record_run(s.as_ref(), &small(), kind.log_mode(), Variant::Correct).events;
            assert!(!events.is_empty(), "{}: nothing was logged", s.name());
            let what = format!("{} {kind:?}", s.name());
            assert_unsupported(&s.check(kind, events.clone()), &what);
            assert_unsupported(&s.check_full(kind, events.clone()), &what);

            // The stream path drains the channel before it reports, so a
            // producer never blocks on an abandoned channel.
            let (tx, rx) = vyrd_rt::channel::unbounded();
            for e in events {
                tx.send(e).expect("send");
            }
            drop(tx);
            assert_unsupported(&s.check_stream(kind, &rx), &what);
            assert!(rx.is_empty(), "{what}: check_stream left events queued");
            assert!(rx.recv().is_err(), "{what}: channel not drained");
        }
    }
    // View on both lock-free scenarios.
    assert_eq!(refused, 2);
}

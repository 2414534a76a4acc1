//! Turning rounds into metrics, and metrics into the result line, the
//! readable table and the history record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::stats::{median, relative_iqr, summarize, Summary};
use crate::workloads::{Round, Workload};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("calls_per_s", "calls/s"),
    ("events_per_s", "events/s"),
    ("program_ms", "ms"),
    ("verdict_lag_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("clean_share", "share"),
];

/// End-to-end figures reported on standard error and in the history but
/// not in `BENCHMARK.json`: on the sharded workload the pool keeps up, so
/// the lag is a worker's wake-up latency, and scheduling noise moves it
/// from run to run by more than any bound allows.
pub const UNGATED: [(&str, &str); 2] = [("lag_p50_ms", "ms"), ("lag_p99_ms", "ms")];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("log.off_ms", "ms"),
    ("log.append_ns_per_event", "ns/event"),
    ("log.sink_ns_per_event", "ns/event"),
    ("log.events", "count"),
    ("log.writes_share", "share"),
    ("log.bytes_per_event", "B/event"),
    ("log.close_ms", "ms"),
    ("shard.dispatch_ns_per_event", "ns/event"),
    ("shard.skew", "ratio"),
    ("channel.recv_wait_ms", "ms"),
    ("channel.recv_calls", "count"),
    ("channel.batch_events_mean", "events/batch"),
    ("checker.busy_ms", "ms"),
    ("checker.io_ns_per_event", "ns/event"),
    ("checker.view_ns_per_event", "ns/event"),
    ("checker.lin_ns_per_event", "ns/event"),
    ("checker.commits_applied", "count"),
    ("checker.observers_checked", "count"),
    ("checker.snapshots_taken", "count"),
    ("checker.snapshot_replays", "count"),
    ("checker.view_keys_compared", "count"),
    ("checker.writes_replayed", "count"),
    ("checker.lin_windows_searched", "count"),
    ("checker.lin_fastpath_ratio", "share"),
    ("checker.lin_witness_backtracks", "count"),
    ("pool.finish_ms", "ms"),
    ("codec.encode_ns_per_event", "ns/event"),
    ("codec.decode_ns_per_event", "ns/event"),
    ("codec.bytes_per_event", "B/event"),
    ("segment.step_ms", "ms"),
    ("segment.idle_step_ratio", "share"),
    ("segment.checkpoint_ms", "ms"),
    ("segment.sealed", "count"),
    ("segment.live_peak", "count"),
    ("segment.finish_ms", "ms"),
    ("segment.finalize_ms", "ms"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("program.traced_ms", "ms"),
];

/// The end-to-end metrics of a run, [`UNGATED`] ones last — from `setups`
/// in seconds, the offline corpus recordings' program walls in ms, the
/// measured (untraced) rounds and the failed share — and, for each metric
/// taken per round, its spread over the run's rounds (for the history).
pub fn end_to_end(
    workload: Workload,
    setups: &[f64],
    corpus_programs_ms: &[f64],
    rounds: &[Round],
    failed_share: f64,
) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    // Lag percentiles per round, then the median over rounds: a few rounds
    // caught in an fsync or scheduling stall move a pooled p99 far more.
    let lags: Vec<Summary> = rounds
        .iter()
        .map(|r| summarize(&r.lags.iter().map(|l| l * 1e3).collect::<Vec<_>>(), 0.99))
        .collect();
    if let Some(short) = lags.iter().find(|s| s.tail_pct < 0.99) {
        eprintln!(
            "pipebench: a round had only {} lag samples, so its lag_p99_ms is a p{}",
            short.count,
            short.tail_pct * 100.0
        );
    }
    let each = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per_round: [(&'static str, Vec<f64>); 7] = [
        (
            "calls_per_s",
            each(&|r| r.calls() as f64 / r.wall.as_secs_f64()),
        ),
        (
            "events_per_s",
            each(&|r| r.checked() as f64 / r.wall.as_secs_f64()),
        ),
        (
            "program_ms",
            if workload == Workload::OfflineCheck {
                corpus_programs_ms.to_vec()
            } else {
                each(&|r| ms(r.program))
            },
        ),
        ("verdict_lag_ms", each(&|r| ms(r.verdict_lag))),
        ("lag_p50_ms", lags.iter().map(|s| s.p50).collect()),
        ("lag_p99_ms", lags.iter().map(|s| s.tail).collect()),
        ("peak_rss_mb", each(&|r| r.rss_peak_mb)),
    ];
    let mut values: BTreeMap<&str, f64> = per_round.iter().map(|(n, v)| (*n, median(v))).collect();
    values.insert("setup_s", median(setups));
    values.insert("clean_share", 1.0 - failed_share);
    let metrics = END_TO_END
        .iter()
        .chain(&UNGATED)
        .map(|&(name, unit)| Metric {
            name,
            value: values[name],
            unit,
        })
        .collect();
    (
        metrics,
        per_round
            .iter()
            .map(|(n, v)| (*n, relative_iqr(v)))
            .collect(),
    )
}

/// The per-layer metrics: the median of each over the traced iterations.
pub fn per_layer(rows: &[BTreeMap<&'static str, f64>]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: median(
                &rows
                    .iter()
                    .map(|r| r.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
            unit,
        })
        .collect()
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// A readable table of `metrics`.
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{workload}\n");
    for m in metrics {
        let ungated = UNGATED.iter().any(|(n, _)| *n == m.name);
        let note = if ungated { " (no bound)" } else { "" };
        let _ = writeln!(out, "  {:<32} {:>16.4} {}{note}", m.name, m.value, m.unit);
    }
    out
}

/// How the program wall splits into the log layers, and what ran beside
/// it, from a traced run's medians and its untraced rounds.
pub fn breakdown(layers: &[Metric], end_to_end: &[Metric]) -> String {
    let v = |n| value_of(layers, n);
    let events = v("log.events");
    let off = v("log.off_ms");
    let append = v("log.append_ns_per_event") * events / 1e6;
    let sink = v("log.sink_ns_per_event") * events / 1e6;
    format!(
        "log probes per round: program alone {off:.1} + log append {append:.1} + sink {sink:.1} \
         = {:.1} ms over {events:.0} events (untraced program_ms {:.1})\n\
         beside it: checker busy {:.1} ms, channel wait {:.1} ms, pool finish {:.1} ms, \
         segment steps {:.1} ms; tracing overhead {:+.1}%\n",
        off + append + sink,
        value_of(end_to_end, "program_ms"),
        v("checker.busy_ms"),
        v("channel.recv_wait_ms"),
        v("pool.finish_ms"),
        v("segment.step_ms"),
        v("trace.overhead_share") * 100.0,
    )
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Where and how a result was produced.
#[derive(Debug)]
pub struct Stamp {
    /// Git commit of the tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the sources the benchmark builds (the repository's
    /// crates and the benchmark), so results from a tree without git
    /// metadata can still be told apart.
    pub source_digest: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// Build profile.
    pub profile: &'static str,
    /// The run's `--seed`.
    pub seed: u64,
    /// UTC time of the run, ISO 8601.
    pub date: String,
    /// Share of the host's CPU time stolen by the hypervisor while the run
    /// measured (`/proc/stat`), for telling a noisy neighbour from a slow
    /// change; `NaN` where the counter is missing.
    pub steal_share: f64,
}

impl Stamp {
    /// Collects the stamp for a run of the benchmark in `bench_dir`;
    /// `cpu_at_start` is [`cpu_times`] when the run started measuring.
    pub fn collect(bench_dir: &Path, seed: u64, cpu_at_start: Option<(u64, u64)>) -> Stamp {
        let root = bench_dir.parent().unwrap_or(bench_dir);
        Stamp {
            commit: git_commit(&root.join(".git")).unwrap_or_else(|| "unknown".to_owned()),
            source_digest: format!(
                "{:016x}",
                source_digest(&[root.join("crates"), bench_dir.join("src")])
            ),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            date: utc_now(),
            steal_share: match (cpu_at_start, cpu_times()) {
                (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
                    (steal1 - steal0) as f64 / (total1 - total0) as f64
                }
                _ => f64::NAN,
            },
        }
    }
}

/// The host's stolen and total CPU ticks so far, from `/proc/stat`.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Reads the commit `HEAD` names, following one symbolic ref through the
/// loose ref file or `packed-refs`.
fn git_commit(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

fn source_digest(dirs: &[std::path::PathBuf]) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        walk(dir, &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        for byte in fs::read(&file).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Civil date from days since 1970-01-01 (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// One history record: the stamp, the run's shape and every metric.
#[allow(clippy::too_many_arguments)]
pub fn history_line(
    stamp: &Stamp,
    workload: &str,
    first_round_legs: &str,
    traced: bool,
    seconds: u64,
    rounds: usize,
    end_to_end: &[Metric],
    per_layer: &[Metric],
    round_spread: &[(&'static str, f64)],
    (attempted, failed, failed_share): (u64, u64, f64),
    correct: bool,
) -> String {
    let spread: Vec<String> = round_spread
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", number(*v)))
        .collect();
    format!(
        "{{\"commit\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \
         \"seed\": {}, \"date\": \"{}\", \"workload\": \"{workload}\", \"trace\": {traced}, \
         \"seconds\": {seconds}, \"rounds\": {rounds}, \"first_round_legs\": [{first_round_legs}], \
         \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"failed_share\": {}, \
         \"steal_share\": {}, \"end_to_end\": {}, \"round_spread\": {{{}}}, \"per_layer\": {}}}",
        stamp.commit,
        stamp.source_digest,
        stamp.nproc,
        stamp.profile,
        stamp.seed,
        stamp.date,
        number(failed_share),
        number(stamp.steal_share),
        metrics_json(end_to_end),
        spread.join(", "),
        metrics_json(per_layer),
    )
}

/// Appends one line to the history file, creating it if needed.
pub fn append(path: &Path, line: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{line}")?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_match_the_benchmark_definition() {
        let spec =
            fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let names: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let listed: Vec<&str> = names.iter().copied().filter(|n| ours.contains(n)).collect();
        assert_eq!(
            listed, ours,
            "BENCHMARK.json lists the metrics in this order"
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_field = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&unit_field),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn end_to_end_lists_gated_metrics_first_then_the_ungated_lags() {
        let round = Round {
            legs: Vec::new(),
            wall: Duration::from_millis(100),
            program: Duration::from_millis(60),
            verdict_lag: Duration::from_millis(40),
            lags: (1..=2000).map(|i| f64::from(i) / 1e5).collect(),
            rss_peak_mb: 9.0,
        };
        let (metrics, spreads) = end_to_end(Workload::OnlineView, &[0.5], &[], &[round], 0.0);
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().chain(&UNGATED).map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        let value = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("program_ms"), 60.0);
        assert_eq!(value("clean_share"), 1.0);
        assert!(
            (value("lag_p99_ms") - 19.8).abs() < 0.01,
            "{}",
            value("lag_p99_ms")
        );
        assert_eq!(spreads.len(), 7);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn civil_dates_and_packed_refs() {
        assert!(utc_now().starts_with("20"));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-git-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(dir.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&dir).as_deref(), Some("abc123"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

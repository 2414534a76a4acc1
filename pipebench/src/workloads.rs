//! The four workloads. Each is closed-loop: two producer threads (the
//! §7.1 harness), each issuing its next call when the previous one
//! returns, plus the data structure's internal task where it has one.
//! A *round* is one pass over a workload's legs; a run repeats rounds
//! with fresh seeds until its time is up and reports medians over them.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vyrd_core::codec::{write_log, LogReader};
use vyrd_core::log::{LogMode, LogStats};
use vyrd_core::violation::Verdict;
use vyrd_core::Event;
use vyrd_harness::scenario::{record_run, CheckKind, Scenario, Variant};
use vyrd_harness::scenarios;
use vyrd_harness::workload::WorkloadConfig;

use crate::legs::{self, kind_span, Leg, SHARD_OBJECTS};
use crate::stats::{lag_curve, median, CurveSample};
use crate::trace::{self, Span};

/// Calls per producer thread on the online-view leg.
pub const ONLINE_VIEW_CALLS: usize = 10_000;
/// Calls per producer thread on each sharded-lin leg.
pub const SHARDED_LIN_CALLS: usize = 25_000;
/// Calls per producer thread on the continuous-io leg.
pub const CONTINUOUS_IO_CALLS: usize = 4_000;
/// Corpora each offline set-up records, each with its own seeds. Every
/// round checks them all: at table sizes one corpus's checking cost varies
/// by a third with its content, so a run must average over many.
pub const CORPUS_RECORDINGS: usize = 32;
/// Scenarios in one offline corpus (the six table rows and the lock-free
/// pair).
const CORPUS_SCENARIOS: usize = 8;
/// Producer threads on every workload (the host's core count when the
/// benchmark was defined).
pub const THREADS: usize = 2;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// BLinkTree, view mode, one object, one online verifier thread.
    OnlineView,
    /// Treiber-Stack and MS-Queue, Lin mode, four objects, verifier pool.
    ShardedLin,
    /// Multiset-Vector, I/O mode, fsynced segments, continuous verifier.
    ContinuousIo,
    /// All eight scenarios recorded at set-up, checked offline.
    OfflineCheck,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::OnlineView,
        Workload::ShardedLin,
        Workload::ContinuousIo,
        Workload::OfflineCheck,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineView => "online-view",
            Workload::ShardedLin => "sharded-lin",
            Workload::ContinuousIo => "continuous-io",
            Workload::OfflineCheck => "offline-check",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn legs(self) -> (&'static [&'static str], CheckKind) {
        match self {
            Workload::OnlineView => (&["BLinkTree"], CheckKind::View),
            Workload::ShardedLin => (&["Treiber-Stack", "MS-Queue"], CheckKind::Lin),
            Workload::ContinuousIo => (&["Multiset-Vector"], CheckKind::Io),
            Workload::OfflineCheck => (&[], CheckKind::Io),
        }
    }

    /// Objects per leg when the workload is multi-object.
    fn objects(self) -> Option<u32> {
        (self == Workload::ShardedLin).then_some(SHARD_OBJECTS)
    }

    /// The workload configuration of one leg.
    pub fn config(self, scenario: &str, seed: u64) -> WorkloadConfig {
        let (calls, key_pool, internal_task) = match self {
            Workload::OnlineView => (ONLINE_VIEW_CALLS, 32, true),
            Workload::ShardedLin => (SHARDED_LIN_CALLS, 64, false),
            // Without the compressor, as the `continuous` binary runs it:
            // with it, the leg's event count varies run to run at one
            // seed, and the drift guard needs it exact.
            Workload::ContinuousIo => (CONTINUOUS_IO_CALLS, 16, false),
            Workload::OfflineCheck => return vyrd_bench::table_config(scenario, THREADS, seed),
        };
        WorkloadConfig {
            threads: THREADS,
            calls_per_thread: calls,
            key_pool,
            shrink_pool: true,
            internal_task,
            seed,
            pace: None,
        }
    }
}

/// splitmix64: derives independent, reproducible seeds from one.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One recorded trace of the offline corpus.
pub struct Trace {
    scenario: Box<dyn Scenario>,
    cfg: WorkloadConfig,
    mode: LogMode,
    kinds: [CheckKind; 2],
    log: LogStats,
    events: Vec<Event>,
}

/// One pass over a workload's legs.
pub struct Round {
    /// The legs, in order.
    pub legs: Vec<Leg>,
    /// From the first leg's first call to the last leg's verdict (offline:
    /// from the corpus being ready to the last verdict).
    pub wall: Duration,
    /// Instrumented workload threads' wall, summed over the legs.
    pub program: Duration,
    /// From the last call returning to the verdict, summed over the legs.
    pub verdict_lag: Duration,
    /// Commit→checked lag samples, seconds.
    pub lags: Vec<f64>,
    /// Largest resident set sampled during the round, MB.
    pub rss_peak_mb: f64,
}

impl Round {
    /// Calls the round's legs issued (offline: per check, so each trace
    /// counts once per mode it is checked in).
    pub fn calls(&self) -> u64 {
        self.legs.iter().map(|l| l.calls).sum()
    }

    /// Events the round's checkers consumed.
    pub fn checked(&self) -> u64 {
        self.legs.iter().map(|l| l.checked.events).sum()
    }
}

/// What the log, codec and program baselines measured for one round's
/// configurations (the traced run's probes, outside any trace).
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// Program with `LogMode::Off`.
    pub off: Duration,
    /// Program logging in the workload's mode to a discarding sink.
    pub discard: Duration,
    /// Events the discarding runs appended.
    pub discard_events: u64,
    /// Program recording into memory.
    pub record: Duration,
    /// Closing the in-memory logs.
    pub close: Duration,
    /// `write_log` over the recorded events.
    pub encode: Duration,
    /// `LogReader` over the encoded bytes.
    pub decode: Duration,
    /// Events encoded and decoded.
    pub codec_events: u64,
    /// Encoded bytes.
    pub codec_bytes: u64,
}

/// A workload ready to run rounds.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    scenarios: Vec<Box<dyn Scenario>>,
    kind: CheckKind,
    corpora: Vec<Vec<Trace>>,
    run_dir: PathBuf,
    /// Program wall of recording each corpus (offline set-up only).
    pub corpus_programs: Vec<Duration>,
    /// Legs of the warm-up round (live workloads).
    pub warmup: Vec<Leg>,
}

impl Bench {
    /// Sets the workload up: resolves its scenarios, and either records
    /// the offline corpus or runs one unmeasured warm-up round (whose
    /// verdicts still count toward correctness). `run_dir` is scratch
    /// space for segment directories.
    pub fn setup(workload: Workload, seed: u64, run_dir: &Path) -> io::Result<Bench> {
        let (names, kind) = workload.legs();
        let find = |name: &str| {
            scenarios::by_name(name)
                .ok_or_else(|| io::Error::other(format!("unknown scenario {name}")))
        };
        let mut bench = Bench {
            workload,
            scenarios: names.iter().map(|n| find(n)).collect::<io::Result<_>>()?,
            kind,
            corpora: Vec::new(),
            run_dir: run_dir.to_owned(),
            corpus_programs: Vec::new(),
            warmup: Vec::new(),
        };
        if workload == Workload::OfflineCheck {
            for rec in 0..CORPUS_RECORDINGS as u64 {
                let mut corpus = Vec::new();
                let mut program = Duration::ZERO;
                let all = scenarios::all().into_iter().chain(scenarios::lockfree());
                for (i, scenario) in all.enumerate() {
                    let cfg = workload.config(scenario.name(), mix(seed, rec << 8 | i as u64));
                    let (mode, kinds) = if scenario.supports(CheckKind::View) {
                        (LogMode::View, [CheckKind::Io, CheckKind::View])
                    } else {
                        (LogMode::Io, [CheckKind::Io, CheckKind::Lin])
                    };
                    let run = record_run(scenario.as_ref(), &cfg, mode, Variant::Correct);
                    program += run.wall;
                    corpus.push(Trace {
                        scenario,
                        cfg,
                        mode,
                        kinds,
                        log: run.log_stats,
                        events: run.events,
                    });
                }
                bench.corpus_programs.push(program);
                bench.corpora.push(corpus);
            }
        } else {
            bench.warmup = bench.round(mix(seed, u64::MAX), false)?.legs;
        }
        Ok(bench)
    }

    /// Every trace of every offline corpus.
    fn traces(&self) -> impl Iterator<Item = &Trace> {
        self.corpora.iter().flatten()
    }

    fn configs(&self, seed: u64) -> Vec<WorkloadConfig> {
        if self.workload == Workload::OfflineCheck {
            return self.traces().map(|t| t.cfg).collect();
        }
        self.scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| self.workload.config(s.name(), mix(seed, i as u64)))
            .collect()
    }

    /// Runs one round with legs seeded from `seed` — traced legs when
    /// `traced` (recording spans is switched separately, see
    /// [`trace::set_enabled`]).
    pub fn round(&self, seed: u64, traced: bool) -> io::Result<Round> {
        if self.workload == Workload::OfflineCheck {
            return Ok(self.offline_round());
        }
        let _round = trace::span("round", "unattributed");
        let mut legs = Vec::new();
        for (i, (scenario, cfg)) in self.scenarios.iter().zip(self.configs(seed)).enumerate() {
            let (s, kind, v) = (scenario.as_ref(), self.kind, Variant::Correct);
            legs.push(match self.workload {
                Workload::OnlineView => legs::online(s, &cfg, kind, v, traced),
                Workload::ShardedLin => legs::sharded(s, &cfg, kind, v, traced),
                _ => legs::continuous(
                    s,
                    &cfg,
                    kind,
                    v,
                    &self.run_dir.join(format!("seg-{i}")),
                    traced,
                )?,
            });
        }
        Ok(Round {
            wall: legs.iter().map(|l| l.wall).sum(),
            program: legs.iter().map(|l| l.program).sum(),
            verdict_lag: legs.iter().map(|l| l.verdict_lag).sum(),
            lags: legs.iter().flat_map(|l| lag_curve(&l.curve)).collect(),
            rss_peak_mb: legs.iter().map(|l| l.rss_peak_mb).fold(0.0, f64::max),
            legs,
        })
    }

    /// Checks every trace of every corpus in each of its two modes with
    /// `Scenario::check_full`, single-threaded. Only the checks are timed
    /// (each input is copied just before its check); the round's wall is
    /// their sum. All of it counts as appended when the round starts, so an
    /// event's lag is the checking time until the check covering it returns.
    fn offline_round(&self) -> Round {
        let inputs: Vec<(&Trace, CheckKind)> = self
            .traces()
            .flat_map(|t| t.kinds.iter().map(move |&k| (t, k)))
            .collect();
        let total: u64 = inputs.iter().map(|(t, _)| t.events.len() as u64).sum();
        let _round = trace::span("round", "unattributed");
        let mut elapsed = Duration::ZERO;
        let mut curve = vec![CurveSample {
            t: 0.0,
            appended: total,
            checked: 0,
        }];
        let mut legs = Vec::new();
        let mut rss_peak_mb = 0.0f64;
        for (i, (t, kind)) in inputs.into_iter().enumerate() {
            let events = {
                let _s = trace::span("bench.copy", "bench");
                t.events.clone()
            };
            let n = events.len() as u64;
            let start = Instant::now();
            let report = {
                let _s = trace::span(kind_span(kind), "checker");
                t.scenario.check_full(kind, events)
            };
            let wall = start.elapsed();
            elapsed += wall;
            let checked = curve.last().map_or(0, |c| c.checked) + report.stats.events;
            curve.push(CurveSample {
                t: elapsed.as_secs_f64(),
                appended: total,
                checked,
            });
            // Once per corpus: reading /proc costs more than a small check.
            if i % (2 * CORPUS_SCENARIOS) == 0 {
                let _s = trace::span("bench.sample", "bench");
                rss_peak_mb = rss_peak_mb.max(legs::rss_mb());
            }
            legs.push(Leg {
                scenario: t.scenario.name(),
                kind,
                calls: t.cfg.total_calls() as u64,
                log: LogStats { events: n, ..t.log },
                checked: report.stats,
                verdict: report.verdict(),
                expected: Verdict::Pass,
                wall,
                program: Duration::ZERO,
                verdict_lag: elapsed,
                finish: Duration::ZERO,
                curve: Vec::new(),
                per_object: Vec::new(),
                segments: Default::default(),
                degraded: report.is_degraded(),
                rss_peak_mb,
            });
        }
        Round {
            wall: elapsed,
            program: Duration::ZERO,
            verdict_lag: elapsed,
            lags: lag_curve(&curve),
            rss_peak_mb,
            legs,
        }
    }

    /// The log, codec and program baselines for the round seeded `seed`:
    /// each leg's workload with logging off, logging to a discarding
    /// sink, and recording into memory; then the recorded events through
    /// the codec. Run with tracing off.
    pub fn probes(&self, seed: u64) -> io::Result<Probes> {
        let mut p = Probes::default();
        let objects = self.workload.objects();
        let mut encode_input: Vec<Vec<Event>> = Vec::new();
        for (i, cfg) in self.configs(seed).iter().enumerate() {
            let (scenario, mode) = match self.workload {
                Workload::OfflineCheck => {
                    let trace = self.traces().nth(i).expect("one config per trace");
                    (trace.scenario.as_ref(), trace.mode)
                }
                _ => (self.scenarios[i].as_ref(), self.kind.log_mode()),
            };
            p.off += legs::discarding(scenario, cfg, LogMode::Off, objects).0;
            let (d, stats) = legs::discarding(scenario, cfg, mode, objects);
            p.discard += d;
            p.discard_events += stats.events;
            let (record, close, events) = legs::recorded(scenario, cfg, mode, objects);
            p.record += record;
            p.close += close;
            encode_input.push(events);
        }
        for events in &encode_input {
            let mut bytes = Vec::new();
            let t = Instant::now();
            write_log(&mut bytes, events)?;
            p.encode += t.elapsed();
            let t = Instant::now();
            let mut reader = LogReader::new(&bytes[..])?;
            let mut decoded = 0u64;
            while reader.next_event()?.is_some() {
                decoded += 1;
            }
            p.decode += t.elapsed();
            if decoded != events.len() as u64 {
                return Err(io::Error::other(format!(
                    "codec round trip decoded {decoded} of {} events",
                    events.len()
                )));
            }
            p.codec_events += decoded;
            p.codec_bytes += bytes.len() as u64;
        }
        Ok(p)
    }

    /// The per-layer metrics of one traced iteration: `untraced` and
    /// `traced` ran the same seeds, `spans`/`counts` are the traced
    /// round's, `p` the probes for those seeds. A layer the workload does
    /// not pass through reports 0.
    pub fn layers(
        &self,
        untraced: &Round,
        traced: &Round,
        spans: &[Span],
        counts: &BTreeMap<&'static str, u64>,
        p: &Probes,
    ) -> BTreeMap<&'static str, f64> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let ns_ms = |ns: u64| ns as f64 / 1e6;
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let nanos = |d: Duration| d.as_secs_f64() * 1e9;
        let offline = self.workload == Workload::OfflineCheck;
        // Program-side log counters: the corpus once (offline), else the
        // traced legs.
        let logs: Vec<LogStats> = if offline {
            self.traces().map(|t| t.log).collect()
        } else {
            traced.legs.iter().map(|l| l.log).collect()
        };
        let appended: u64 = logs.iter().map(|l| l.events).sum();
        let live_program = if offline { p.record } else { untraced.program };
        let sink_ns = per(nanos(live_program) - nanos(p.discard), p.discard_events);
        let sharded = self.workload == Workload::ShardedLin;
        let c = |f: fn(&vyrd_core::violation::CheckStats) -> u64| -> f64 {
            traced.legs.iter().map(|l| f(&l.checked)).sum::<u64>() as f64
        };
        let events_of = |kind: CheckKind| -> u64 {
            traced
                .legs
                .iter()
                .filter(|l| l.kind == kind)
                .map(|l| l.checked.events)
                .sum()
        };
        let by_layer = trace::self_by_layer(spans);
        let segments = traced.legs.iter().map(|l| l.segments);
        let (steps, idle): (u64, u64) = segments
            .clone()
            .map(|s| (s.steps, s.idle_steps))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let skew = median(
            &traced
                .legs
                .iter()
                .filter(|l| !l.per_object.is_empty())
                .map(|l| {
                    let max = *l.per_object.iter().max().unwrap_or(&0) as f64;
                    let mean = l.per_object.iter().sum::<u64>() as f64 / l.per_object.len() as f64;
                    max / mean
                })
                .collect::<Vec<_>>(),
        );
        let recv_calls = counts.get("channel.recv_calls").copied().unwrap_or(0);
        let mut m = BTreeMap::new();
        m.insert("log.off_ms", ms(p.off));
        m.insert(
            "log.append_ns_per_event",
            per(nanos(p.discard) - nanos(p.off), p.discard_events),
        );
        m.insert("log.sink_ns_per_event", sink_ns);
        m.insert("log.events", appended as f64);
        m.insert(
            "log.writes_share",
            per(logs.iter().map(|l| l.writes).sum::<u64>() as f64, appended),
        );
        m.insert(
            "log.bytes_per_event",
            per(logs.iter().map(|l| l.bytes).sum::<u64>() as f64, appended),
        );
        m.insert(
            "log.close_ms",
            if offline {
                ms(p.close)
            } else {
                ns_ms(trace::total(spans, "log.close"))
            },
        );
        m.insert(
            "shard.dispatch_ns_per_event",
            if sharded { sink_ns } else { 0.0 },
        );
        m.insert("shard.skew", if sharded { skew } else { 0.0 });
        m.insert(
            "channel.recv_wait_ms",
            ns_ms(trace::total(spans, "channel.recv_wait")),
        );
        m.insert("channel.recv_calls", recv_calls as f64);
        m.insert(
            "channel.batch_events_mean",
            per(
                counts.get("channel.recv_events").copied().unwrap_or(0) as f64,
                recv_calls,
            ),
        );
        m.insert(
            "checker.busy_ms",
            ns_ms(by_layer.get("checker").copied().unwrap_or(0)),
        );
        for (name, kind) in [
            ("checker.io_ns_per_event", CheckKind::Io),
            ("checker.view_ns_per_event", CheckKind::View),
            ("checker.lin_ns_per_event", CheckKind::Lin),
        ] {
            m.insert(
                name,
                per(trace::total(spans, kind_span(kind)) as f64, events_of(kind)),
            );
        }
        m.insert("checker.commits_applied", c(|s| s.commits_applied));
        m.insert("checker.observers_checked", c(|s| s.observers_checked));
        m.insert("checker.snapshots_taken", c(|s| s.snapshots_taken));
        m.insert("checker.snapshot_replays", c(|s| s.snapshot_replays));
        m.insert("checker.view_keys_compared", c(|s| s.view_keys_compared));
        m.insert("checker.writes_replayed", c(|s| s.writes_replayed));
        m.insert(
            "checker.lin_windows_searched",
            c(|s| s.lin_windows_searched),
        );
        m.insert(
            "checker.lin_fastpath_ratio",
            per(
                c(|s| s.lin_fastpath_hits),
                c(|s| s.lin_windows_searched) as u64,
            ),
        );
        m.insert(
            "checker.lin_witness_backtracks",
            c(|s| s.lin_witness_backtracks),
        );
        m.insert(
            "pool.finish_ms",
            if sharded {
                ms(traced.legs.iter().map(|l| l.finish).sum())
            } else {
                0.0
            },
        );
        m.insert(
            "codec.encode_ns_per_event",
            per(nanos(p.encode), p.codec_events),
        );
        m.insert(
            "codec.decode_ns_per_event",
            per(nanos(p.decode), p.codec_events),
        );
        m.insert(
            "codec.bytes_per_event",
            per(p.codec_bytes as f64, p.codec_events),
        );
        m.insert(
            "segment.step_ms",
            ns_ms(trace::total(spans, "segment.step")),
        );
        m.insert("segment.idle_step_ratio", per(idle as f64, steps));
        m.insert(
            "segment.checkpoint_ms",
            ns_ms(trace::total(spans, "segment.checkpoint")),
        );
        m.insert(
            "segment.sealed",
            segments.clone().map(|s| s.sealed).sum::<u64>() as f64,
        );
        m.insert(
            "segment.live_peak",
            segments.clone().map(|s| s.live_peak).max().unwrap_or(0) as f64,
        );
        m.insert(
            "segment.finish_ms",
            ns_ms(trace::total(spans, "segment.finish")),
        );
        m.insert(
            "segment.finalize_ms",
            ns_ms(trace::total(spans, "segment.finalize")),
        );
        m.insert("trace.unattributed_share", trace::unattributed_share(spans));
        m.insert("program.traced_ms", ns_ms(trace::total(spans, "program")));
        m.insert(
            "trace.overhead_share",
            traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
        );
        m
    }
}

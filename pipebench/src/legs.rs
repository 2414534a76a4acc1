//! One *leg* is one scenario run from its first instrumented call to its
//! merged verdict, through one of the harness's verification paths. The
//! benchmark sees inside a harness entry point only through the
//! [`Observed`] scenario wrapper it passes in: the wrapper notes the log
//! and each checker's channel, and in the traced run it swaps the checker
//! for one built from the scenario's stepping factory, driven by a
//! `recv_up_to`/`feed` loop whose calls are timed.

use std::cell::Cell;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use vyrd_blinktree::{BLinkReplayer, BLinkSpec};
use vyrd_core::checker::{Checker, BOUNDED_CONSUME_BATCH_MAX, CONSUME_BATCH_MAX};
use vyrd_core::log::{EventLog, LogMode, LogStats};
use vyrd_core::pool::{ObjectChecker, SupervisorConfig};
use vyrd_core::segment::{
    scan_segments, ContinuousOptions, ContinuousVerifier, SegmentConfig, SteppingChecker,
    SteppingFactory,
};
use vyrd_core::shard::ShardConfig;
use vyrd_core::value::Value;
use vyrd_core::violation::{CheckStats, Report, Verdict};
use vyrd_core::{Event, ObjectId};
use vyrd_harness::scenario::{
    run_online, run_online_sharded_with, CheckKind, Scenario, ShardFactory, Variant,
};
use vyrd_harness::workload::WorkloadConfig;
use vyrd_rt::channel::{Monitor, Receiver};

use crate::stats::CurveSample;
use crate::trace;

/// How often the online legs' sampler reads the channel counters. The
/// sharded legs' lag is around a millisecond, so a coarser grid would
/// measure mostly itself.
pub const SAMPLE_EVERY: Duration = Duration::from_micros(500);

/// The continuous verifier's poll interval, as `run_continuous` has it.
pub const POLL_EVERY: Duration = Duration::from_millis(2);

/// Objects (= log shards = pool workers) of the sharded legs.
pub const SHARD_OBJECTS: u32 = 4;

/// Segment-directory extras a continuous leg reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentLeg {
    /// Segments the writer sealed.
    pub sealed: u64,
    /// Verifier steps taken.
    pub steps: u64,
    /// Steps that checked no event.
    pub idle_steps: u64,
    /// Most segment files alive at once (traced legs only; 0 otherwise).
    pub live_peak: u64,
}

/// What one leg did and how long it took.
#[derive(Clone, Debug)]
pub struct Leg {
    /// Scenario name.
    pub scenario: &'static str,
    /// Checking mode.
    pub kind: CheckKind,
    /// Calls the workload issued.
    pub calls: u64,
    /// Program-side log counters (events appended, writes, bytes…).
    pub log: LogStats,
    /// The merged report's checker counters.
    pub checked: CheckStats,
    /// The merged verdict.
    pub verdict: Verdict,
    /// The verdict the variant should produce.
    pub expected: Verdict,
    /// From the first call to the merged verdict.
    pub wall: Duration,
    /// Wall of the instrumented workload threads.
    pub program: Duration,
    /// From the last call returning to the merged verdict.
    pub verdict_lag: Duration,
    /// From the harness's workload call returning to the verdict (the
    /// pool's `finish_all` on sharded legs).
    pub finish: Duration,
    /// Sampled appended/checked curve for the lag metrics.
    pub curve: Vec<CurveSample>,
    /// Events checked per object (sharded legs).
    pub per_object: Vec<u64>,
    /// Segment extras (continuous legs).
    pub segments: SegmentLeg,
    /// Degraded coverage of any kind (sheds, losses, restarts…).
    pub degraded: bool,
    /// Largest resident set sampled during the leg, MB.
    pub rss_peak_mb: f64,
}

impl Leg {
    /// A clean leg: the expected PASS, every appended event checked, and
    /// nothing shed, stranded, lost or discarded after close.
    pub fn clean(&self) -> bool {
        self.verdict == Verdict::Pass
            && !self.degraded
            && self.log.events == self.checked.events
            && self.log.events_discarded_after_close == 0
            && self.log.events_dropped_injected == 0
            && self.checked.events_discarded_after_close == 0
    }

    /// The verdict is not the one the variant should produce.
    pub fn wrong(&self) -> bool {
        self.verdict != self.expected
    }
}

/// This process's resident set now, MB (`VmRSS`; 0 where `/proc` has no
/// such line).
pub fn rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn expected(variant: Variant) -> Verdict {
    match variant {
        Variant::Correct => Verdict::Pass,
        Variant::Buggy => Verdict::Fail,
    }
}

/// Mode name used for the checker spans.
pub fn kind_span(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::Io => "checker.io",
        CheckKind::View => "checker.view",
        CheckKind::Lin => "checker.lin",
    }
}

/// What the benchmark learns about a leg running inside a harness call.
#[derive(Default)]
struct Probe {
    log: Mutex<Option<EventLog>>,
    monitors: Mutex<Vec<Monitor<Event>>>,
    program_end: Mutex<Option<Instant>>,
    returned: Mutex<Option<Instant>>,
}

impl Probe {
    /// Events delivered to the checkers' channels so far, and events the
    /// checkers have taken off them. Read through channel monitors only:
    /// sampling `EventLog::stats` instead would flush the producers'
    /// batches on every sample, and on the sharded path that alone
    /// stretches the verdict from milliseconds to seconds.
    fn delivered_consumed(&self) -> Option<(u64, u64)> {
        let monitors = lock(&self.monitors);
        (!monitors.is_empty()).then(|| {
            monitors.iter().fold((0, 0), |(d, c), m| {
                let popped = m.popped();
                (d + popped + m.len() as u64, c + popped)
            })
        })
    }

    fn watch(&self, receiver: &Receiver<Event>) {
        lock(&self.monitors).push(receiver.monitor());
    }
}

/// The checker factory the traced legs wrap: the scenario's stepping
/// factory, or for BLinkTree view mode (which has no checkpointable
/// replayer, so no stepping factory) the same checker its `check_stream`
/// builds.
pub fn stepping(scenario: &dyn Scenario, kind: CheckKind) -> Option<SteppingFactory> {
    scenario.stepping_factory(kind).or_else(|| {
        (scenario.name() == "BLinkTree" && kind == CheckKind::View).then(|| {
            Arc::new(|_object| {
                Box::new(Checker::view(BLinkSpec::new(), BLinkReplayer::new()))
                    as Box<dyn SteppingChecker>
            }) as SteppingFactory
        })
    })
}

/// Delegates to a scenario, noting what the benchmark needs to see.
struct Observed<'a> {
    inner: &'a dyn Scenario,
    probe: Arc<Probe>,
    traced: bool,
}

impl Observed<'_> {
    fn program(&self, log: &EventLog, run: impl FnOnce()) {
        *lock(&self.probe.log) = Some(log.clone());
        {
            let _s = trace::span("program", "program");
            run();
        }
        *lock(&self.probe.program_end) = Some(Instant::now());
        if self.traced {
            // The harness closes the log as soon as this returns; closing
            // it here puts the close on the trace as its own span (the
            // harness's second close finds nothing left to do).
            let _s = trace::span("log.close", "log");
            log.close();
        }
        *lock(&self.probe.returned) = Some(Instant::now());
    }
}

impl Scenario for Observed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bug(&self) -> &'static str {
        self.inner.bug()
    }

    fn supports(&self, kind: CheckKind) -> bool {
        self.inner.supports(kind)
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        self.program(log, || self.inner.run(cfg, log, variant));
    }

    fn run_multi(
        &self,
        cfg: &WorkloadConfig,
        log: &EventLog,
        variant: Variant,
        objects: u32,
    ) -> bool {
        let mut supported = false;
        self.program(log, || {
            supported = self.inner.run_multi(cfg, log, variant, objects)
        });
        supported
    }

    fn check(&self, kind: CheckKind, events: Vec<Event>) -> Report {
        self.inner.check(kind, events)
    }

    fn check_full(&self, kind: CheckKind, events: Vec<Event>) -> Report {
        self.inner.check_full(kind, events)
    }

    fn check_stream(&self, kind: CheckKind, receiver: &Receiver<Event>) -> Report {
        self.probe.watch(receiver);
        match stepping(self.inner, kind).filter(|_| self.traced) {
            Some(factory) => traced_stream(factory(ObjectId::DEFAULT), kind, receiver),
            None => self.inner.check_stream(kind, receiver),
        }
    }

    fn shard_factory(&self, kind: CheckKind) -> Option<ShardFactory> {
        let probe = Arc::clone(&self.probe);
        if self.traced {
            let factory = stepping(self.inner, kind)?;
            Some(Arc::new(move |object| {
                Box::new(TracedShard {
                    checker: factory(object),
                    kind,
                    probe: Arc::clone(&probe),
                }) as Box<dyn ObjectChecker>
            }))
        } else {
            let factory = self.inner.shard_factory(kind)?;
            Some(Arc::new(move |object| {
                Box::new(WatchedShard {
                    checker: factory(object),
                    probe: Arc::clone(&probe),
                }) as Box<dyn ObjectChecker>
            }))
        }
    }

    fn stepping_factory(&self, kind: CheckKind) -> Option<SteppingFactory> {
        self.inner.stepping_factory(kind)
    }
}

/// The scenario's own shard checker, with its channel watched.
struct WatchedShard {
    checker: Box<dyn ObjectChecker>,
    probe: Arc<Probe>,
}

impl ObjectChecker for WatchedShard {
    fn check(self: Box<Self>, receiver: &Receiver<Event>) -> Report {
        self.probe.watch(receiver);
        self.checker.check(receiver)
    }
}

/// A stepping checker driven by the traced receive/feed loop.
struct TracedShard {
    checker: Box<dyn SteppingChecker>,
    kind: CheckKind,
    probe: Arc<Probe>,
}

impl ObjectChecker for TracedShard {
    fn check(self: Box<Self>, receiver: &Receiver<Event>) -> Report {
        self.probe.watch(receiver);
        traced_stream(self.checker, self.kind, receiver)
    }
}

/// The traced stand-in for `Checker::check_receiver`: the same capped
/// batched receive, with the wait for each batch timed as the channel
/// layer and feeding it timed as the checker layer.
fn traced_stream(
    mut checker: Box<dyn SteppingChecker>,
    kind: CheckKind,
    receiver: &Receiver<Event>,
) -> Report {
    let _lane = trace::span("checker.stream", "unattributed");
    let cap = if receiver.capacity().is_some() {
        BOUNDED_CONSUME_BATCH_MAX
    } else {
        CONSUME_BATCH_MAX
    };
    let mut batch = Vec::new();
    while !checker.violation_found() {
        batch.clear();
        let received = {
            let _s = trace::span("channel.recv_wait", "channel");
            receiver.recv_up_to(&mut batch, cap)
        };
        let Ok(n) = received else { break };
        trace::count("channel.recv_calls", 1);
        trace::count("channel.recv_events", n as u64);
        let _s = trace::span(kind_span(kind), "checker");
        for event in batch.drain(..) {
            checker.feed(event);
        }
    }
    let _s = trace::span("checker.finish", "checker");
    checker.finish()
}

/// Runs `f` while a sampler thread reads the probe's delivered and
/// consumed counters every [`SAMPLE_EVERY`]; also returns when `f`
/// returned.
fn sampled<T>(
    probe: &Probe,
    t0: Instant,
    f: impl FnOnce() -> T,
) -> (T, Instant, Vec<CurveSample>, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut curve, mut rss) = (Vec::new(), 0.0f64);
            for i in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // Reading /proc costs far more than the counters.
                if i % 8 == 0 {
                    rss = rss.max(rss_mb());
                }
                if let Some((appended, checked)) = probe.delivered_consumed() {
                    curve.push(CurveSample {
                        t: t0.elapsed().as_secs_f64(),
                        appended,
                        checked,
                    });
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            (curve, rss)
        });
        let out = f();
        let end = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let (curve, rss) = sampler.join().expect("sampler thread panicked");
        (out, end, curve, rss.max(rss_mb()))
    })
}

fn since(later: Instant, earlier: Option<Instant>) -> Duration {
    earlier.map_or(Duration::ZERO, |e| later.saturating_duration_since(e))
}

/// An online leg: the scenario's workload logs to a channel that one
/// verifier thread checks (`run_online`, the paper's §4.2 online thread).
pub fn online(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    traced: bool,
) -> Leg {
    let probe = Arc::new(Probe::default());
    let observed = Observed {
        inner: scenario,
        probe: Arc::clone(&probe),
        traced,
    };
    let _leg = trace::span("leg", "unattributed");
    let t0 = Instant::now();
    let ((program, report), end, curve, rss) = sampled(&probe, t0, || {
        let _s = trace::span("online.run", "verdict");
        run_online(&observed, cfg, kind, variant)
    });
    finish_leg(
        scenario,
        cfg,
        kind,
        variant,
        &probe,
        (t0, end),
        program,
        report,
        (curve, rss),
        Vec::new(),
    )
}

/// A sharded leg: the multi-object workload logs through the shard router
/// to a verifier pool, one worker per object (`run_online_sharded_with`,
/// unbounded shards).
pub fn sharded(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    traced: bool,
) -> Leg {
    let probe = Arc::new(Probe::default());
    let observed = Observed {
        inner: scenario,
        probe: Arc::clone(&probe),
        traced,
    };
    let _leg = trace::span("leg", "unattributed");
    let t0 = Instant::now();
    let (out, end, curve, rss) = sampled(&probe, t0, || {
        let _s = trace::span("pool.run", "pool");
        run_online_sharded_with(
            &observed,
            cfg,
            kind,
            variant,
            SHARD_OBJECTS,
            SHARD_OBJECTS as usize,
            ShardConfig::unbounded(),
            SupervisorConfig::default(),
        )
    });
    let (program, all) = out.expect("scenario has a multi-object mode");
    let per_object = all.per_object.iter().map(|(_, r)| r.stats.events).collect();
    finish_leg(
        scenario,
        cfg,
        kind,
        variant,
        &probe,
        (t0, end),
        program,
        all.merged,
        (curve, rss),
        per_object,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish_leg(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    probe: &Probe,
    (t0, end): (Instant, Instant),
    program: Duration,
    report: Report,
    (mut curve, rss_peak_mb): (Vec<CurveSample>, f64),
    per_object: Vec<u64>,
) -> Leg {
    let log = lock(&probe.log)
        .take()
        .map(|log| log.stats())
        .unwrap_or_default();
    curve.push(CurveSample {
        t: (end - t0).as_secs_f64(),
        appended: log.events,
        checked: report.stats.events,
    });
    Leg {
        scenario: scenario.name(),
        kind,
        calls: cfg.total_calls() as u64,
        log,
        checked: report.stats,
        verdict: report.verdict(),
        expected: expected(variant),
        wall: end - t0,
        program,
        verdict_lag: since(end, *lock(&probe.program_end)),
        finish: since(end, *lock(&probe.returned)),
        curve,
        per_object,
        segments: SegmentLeg::default(),
        degraded: report.is_degraded(),
        rss_peak_mb,
    }
}

thread_local! {
    /// Time the traced continuous leg's checkers spent in `feed` since the
    /// last step ended (too many calls for one span each).
    static FEED: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Times every `feed` into the wrapped checker.
struct TimedFeed(Box<dyn SteppingChecker>);

impl SteppingChecker for TimedFeed {
    fn feed(&mut self, event: Event) {
        let t = Instant::now();
        self.0.feed(event);
        FEED.with(|f| f.set(f.get() + t.elapsed()));
    }

    fn violation_found(&self) -> bool {
        self.0.violation_found()
    }

    fn save_state(&self) -> Result<Value, vyrd_core::checker::state::StateError> {
        self.0.save_state()
    }

    fn restore_state(
        &mut self,
        state: &Value,
    ) -> Result<(), vyrd_core::checker::state::StateError> {
        self.0.restore_state(state)
    }

    fn mark_input_truncated(&mut self) {
        self.0.mark_input_truncated();
    }

    fn finish(self: Box<Self>) -> Report {
        self.0.finish()
    }
}

/// A continuous leg: the workload logs to fsynced segments in `dir` while
/// a `ContinuousVerifier` polls them every 2 ms, checkpointing and
/// deleting what it has checked (the `run_continuous` loop, with each
/// step's progress visible). The untraced leg checkpoints per sealed
/// segment as `run_continuous` does; the traced leg checkpoints once
/// after each step that checked a segment, so checkpoints get spans of
/// their own.
pub fn continuous(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    kind: CheckKind,
    variant: Variant,
    dir: &Path,
    traced: bool,
) -> std::io::Result<Leg> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    let factory = scenario.stepping_factory(kind).ok_or_else(|| {
        std::io::Error::other(format!("{} has no stepping checker", scenario.name()))
    })?;
    let (factory, options) = if traced {
        let timed: SteppingFactory = Arc::new(move |object| {
            Box::new(TimedFeed(factory(object))) as Box<dyn SteppingChecker>
        });
        let options = ContinuousOptions {
            checkpoint_every_segments: u64::MAX,
            ..ContinuousOptions::default()
        };
        (timed, options)
    } else {
        (factory, ContinuousOptions::default())
    };
    let _leg = trace::span("leg", "unattributed");
    let t0 = Instant::now();
    let (log, handle) = EventLog::to_segments(kind.log_mode(), SegmentConfig::new(dir))?;
    let stop = AtomicBool::new(false);
    let (program, program_end, summary, verified) = std::thread::scope(|scope| {
        let verifier = scope.spawn(|| {
            let _lane = trace::span("continuous.verifier", "unattributed");
            let mut v = ContinuousVerifier::open(dir, factory, options)?;
            let (mut curve, mut rss) = (Vec::new(), 0.0f64);
            let mut seg = SegmentLeg::default();
            while !stop.load(Ordering::Relaxed) {
                let progress = {
                    let _s = trace::span("segment.step", "segment");
                    let progress = v.step()?;
                    trace::record_aggregate(kind_span(kind), "checker", FEED.with(|f| f.take()));
                    progress
                };
                if traced && progress.segments_checked > 0 {
                    let _s = trace::span("segment.checkpoint", "segment");
                    v.checkpoint()?;
                }
                seg.steps += 1;
                seg.idle_steps += u64::from(progress.events_checked == 0);
                {
                    let _s = trace::span("bench.sample", "bench");
                    rss = rss.max(rss_mb());
                    curve.push(CurveSample {
                        t: t0.elapsed().as_secs_f64(),
                        appended: log.stats().events,
                        checked: v.next_seq(),
                    });
                    if traced {
                        seg.live_peak = seg.live_peak.max(scan_segments(dir)?.len() as u64);
                    }
                }
                let _s = trace::span("segment.poll_sleep", "segment");
                std::thread::sleep(POLL_EVERY);
            }
            let _s = trace::span("segment.finalize", "segment");
            let report = v.finalize()?;
            trace::record_aggregate(kind_span(kind), "checker", FEED.with(|f| f.take()));
            Ok::<_, std::io::Error>((report, curve, seg, rss.max(rss_mb())))
        });
        let t = Instant::now();
        {
            let _s = trace::span("program", "program");
            scenario.run(cfg, &log, variant);
        }
        let program_end = Instant::now();
        {
            let _s = trace::span("log.close", "log");
            log.close();
        }
        let summary = {
            let _s = trace::span("segment.finish", "segment");
            handle.finish()
        };
        stop.store(true, Ordering::Relaxed);
        let _s = trace::span("verdict.wait", "verdict");
        let verified = verifier
            .join()
            .expect("continuous verifier thread panicked");
        (program_end - t, program_end, summary, verified)
    });
    let end = Instant::now();
    let summary = summary?;
    let (report, mut curve, mut seg, rss_peak_mb) = verified?;
    seg.sealed = summary.segments_sealed;
    let stats = log.stats();
    curve.push(CurveSample {
        t: (end - t0).as_secs_f64(),
        appended: stats.events,
        checked: report.stats.events,
    });
    fs::remove_dir_all(dir)?;
    Ok(Leg {
        scenario: scenario.name(),
        kind,
        calls: cfg.total_calls() as u64,
        // Events the writer framed durably must be the events appended.
        degraded: report.is_degraded() || summary.events != stats.events,
        log: stats,
        checked: report.stats,
        verdict: report.verdict(),
        expected: expected(variant),
        wall: end - t0,
        program,
        verdict_lag: end - program_end,
        finish: end - program_end,
        curve,
        per_object: Vec::new(),
        segments: seg,
        rss_peak_mb,
    })
}

/// A program-only run for the log-layer baselines: the workload (single-
/// or multi-object) against a discarding log in `mode` (`Off` for the
/// program alone).
pub fn discarding(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    mode: LogMode,
    objects: Option<u32>,
) -> (Duration, LogStats) {
    match objects {
        None => vyrd_harness::scenario::run_discarding(scenario, cfg, mode, Variant::Correct),
        Some(k) => {
            let log = EventLog::discarding(mode);
            let t = Instant::now();
            scenario.run_multi(cfg, &log, Variant::Correct, k);
            (t.elapsed(), log.stats())
        }
    }
}

/// Records the workload into memory, timing the log's close; returns the
/// program wall, the close time and the events.
pub fn recorded(
    scenario: &dyn Scenario,
    cfg: &WorkloadConfig,
    mode: LogMode,
    objects: Option<u32>,
) -> (Duration, Duration, Vec<Event>) {
    let log = EventLog::in_memory(mode);
    let t = Instant::now();
    match objects {
        None => scenario.run(cfg, &log, Variant::Correct),
        Some(k) => {
            scenario.run_multi(cfg, &log, Variant::Correct, k);
        }
    }
    let program = t.elapsed();
    let t = Instant::now();
    log.close();
    let close = t.elapsed();
    (program, close, log.drain())
}

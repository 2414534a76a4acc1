//! Adaptive overload control: closing the loop on
//! [`OverloadPolicy::Shed`](crate::shard::OverloadPolicy::Shed).
//!
//! PR 5's `pool.lag_events` *quantifies* how far verification falls
//! behind the program; nothing acted on it, and the `Shed` budgets and
//! timeouts were hand-picked constants. This module makes the pipeline
//! self-protecting:
//!
//! * [`ShedControl`] is the shared state between the
//!   [`ShardRouter`](crate::shard::ShardRouter) (which reads the live
//!   timeout/budget on every overloaded dispatch and honors the
//!   quarantine set) and the controller (which moves them). It also
//!   collects one [`Monitor`] per announced
//!   shard, so lag can be computed from *live* channel consumption
//!   rather than the end-of-run checker counters.
//! * [`AdaptiveShed`] is the controller: on every tick it computes
//!
//!   ```text
//!   lag = appended − Σ consumed-by-shard-channels − shed − dropped
//!   ```
//!
//!   and applies an AIMD-flavored rule — lag past the **high watermark**
//!   tightens admission (halve the shed timeout so the program stalls
//!   less per overflow, double the budget so shards keep shedding
//!   per-event instead of being permanently abandoned mid-storm); lag
//!   draining below the **low watermark** relaxes both back toward the
//!   configured baseline. Every change is recorded as an
//!   [`AdaptiveDecision`] stamped with the dispatch-seq window it
//!   governed, and lands in the merged report's Degradation ledger.
//! * The same tick runs a **watchdog**: a shard with queued events whose
//!   consumption counter has not moved for a full deadline is *stuck*,
//!   not slow. An unclaimed stuck shard (announced, never picked up) is
//!   escalated to a freshly spawned supervised rescue worker; a
//!   claimed-but-stuck shard is quarantined — its future events shed at
//!   the router so producers can never block behind it. Both land in the
//!   ledger as [`WatchdogEvent`]s.
//!
//! The invariant the whole module defends: past saturation the pipeline
//! converges to a bounded-lag DEGRADED PASS with exact shed accounting —
//! never an unbounded queue, a deadlock, or a forged PASS/FAIL. A
//! quarantined or abandoned shard's events are *counted and windowed*,
//! so the verdict honestly says what it did not check.
//!
//! One in-process limit is documented rather than papered over: a
//! checker thread wedged in an infinite loop cannot be killed from
//! safe Rust. Escalation therefore bounds the *program's* exposure
//! (quarantine means producers never wait on the stuck shard again) and
//! accounts the loss; it does not reclaim the thread. Checker *panics*
//! are already handled by the pool's supervisor (catch_unwind +
//! bounded restarts), which is the common failure shape.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vyrd_rt::channel::Monitor;
use vyrd_rt::sync::Mutex;
use vyrd_rt::time::Ticker;

use crate::event::{Event, ObjectId};
use crate::metrics::pipeline;
use crate::violation::{
    AdaptiveAction, AdaptiveDecision, WatchdogAction, WatchdogEvent,
};

/// One announced shard as the controller sees it: the object, a passive
/// queue monitor, and whether any pool worker has claimed it yet.
struct ShardProbe {
    object: ObjectId,
    monitor: Monitor<Event>,
    claimed: bool,
}

/// Shared state between the router (reader) and the adaptive controller
/// (writer). All hot-path reads are single relaxed atomic loads.
pub struct ShedControl {
    /// Live shed timeout, ns.
    timeout_ns: AtomicU64,
    /// Live shed budget.
    budget: AtomicU64,
    /// Events dispatched so far (published by the router per event).
    dispatch_seq: AtomicU64,
    /// Bumped whenever `quarantined` changes; the router caches the set
    /// against this so the per-event cost stays one relaxed load.
    quarantine_epoch: AtomicU64,
    quarantined: Mutex<BTreeSet<u32>>,
    probes: Mutex<Vec<ShardProbe>>,
    decisions: Mutex<Vec<AdaptiveDecision>>,
    watchdog_events: Mutex<Vec<WatchdogEvent>>,
}

impl std::fmt::Debug for ShedControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShedControl")
            .field("timeout_ns", &self.timeout_ns.load(Ordering::Relaxed))
            .field("budget", &self.budget.load(Ordering::Relaxed))
            .field("dispatch_seq", &self.dispatch_seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ShedControl {
    /// Control state starting from the given static parameters.
    pub fn new(timeout: Duration, budget: u64) -> ShedControl {
        ShedControl {
            timeout_ns: AtomicU64::new(timeout.as_nanos() as u64),
            budget: AtomicU64::new(budget),
            dispatch_seq: AtomicU64::new(0),
            quarantine_epoch: AtomicU64::new(0),
            quarantined: Mutex::new(BTreeSet::new()),
            probes: Mutex::new(Vec::new()),
            decisions: Mutex::new(Vec::new()),
            watchdog_events: Mutex::new(Vec::new()),
        }
    }

    /// Current shed timeout.
    pub fn timeout(&self) -> Duration {
        Duration::from_nanos(self.timeout_ns.load(Ordering::Relaxed))
    }

    /// Current shed budget.
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Events dispatched through the router so far.
    pub fn dispatch_seq(&self) -> u64 {
        self.dispatch_seq.load(Ordering::Relaxed)
    }

    /// Router hook: publishes the running dispatch count.
    pub(crate) fn note_dispatch(&self, dispatched: u64) {
        self.dispatch_seq.store(dispatched, Ordering::Relaxed);
    }

    /// Router hook: registers a newly announced shard's queue monitor.
    pub(crate) fn register_shard(&self, object: ObjectId, monitor: Monitor<Event>) {
        self.probes.lock().push(ShardProbe {
            object,
            monitor,
            claimed: false,
        });
    }

    /// Pool hook: a worker took ownership of the object's shard.
    pub fn mark_claimed(&self, object: ObjectId) {
        let mut probes = self.probes.lock();
        if let Some(p) = probes.iter_mut().find(|p| p.object == object) {
            p.claimed = true;
        }
    }

    /// Events still sitting in shard channels right now. After the
    /// workers have been joined this is the *stranded* residue: events
    /// that were delivered to an abandoned or quarantined shard's queue
    /// but never consumed by its checker. The pool folds this into the
    /// merged Degradation so conservation stays exact:
    /// `appended == checked + shed + stranded (+ injected drops)`.
    pub fn stranded_events(&self) -> u64 {
        self.probes
            .lock()
            .iter()
            .map(|p| p.monitor.len() as u64)
            .sum()
    }

    /// Current quarantine epoch (see [`ShedControl::quarantined_objects`]).
    pub fn quarantine_epoch(&self) -> u64 {
        self.quarantine_epoch.load(Ordering::Relaxed)
    }

    /// The quarantined object ids. The router re-reads this only when
    /// the epoch moves.
    pub fn quarantined_objects(&self) -> HashSet<u32> {
        self.quarantined.lock().iter().copied().collect()
    }

    /// Adds an object to the quarantine set. Returns `false` if it was
    /// already quarantined.
    pub fn quarantine(&self, object: ObjectId) -> bool {
        let inserted = self.quarantined.lock().insert(object.0);
        if inserted {
            self.quarantine_epoch.fetch_add(1, Ordering::Release);
        }
        inserted
    }

    /// Records one admission change, closing the previous decision's seq
    /// window at this one's `first_seq`.
    fn push_decision(&self, mut decision: AdaptiveDecision) {
        let mut decisions = self.decisions.lock();
        if let Some(prev) = decisions.last_mut() {
            prev.last_seq = decision.first_seq;
        }
        decision.last_seq = decision.first_seq;
        decisions.push(decision);
    }

    fn push_watchdog_event(&self, event: WatchdogEvent) {
        self.watchdog_events.lock().push(event);
    }

    /// Drains the ledger entries at end of run, closing the last
    /// decision's window at the final dispatch seq.
    pub fn finalize(&self) -> (Vec<AdaptiveDecision>, Vec<WatchdogEvent>) {
        let final_seq = self.dispatch_seq();
        let mut decisions = std::mem::take(&mut *self.decisions.lock());
        if let Some(last) = decisions.last_mut() {
            last.last_seq = final_seq;
        }
        let watchdog = std::mem::take(&mut *self.watchdog_events.lock());
        (decisions, watchdog)
    }

    /// Sums live consumption and occupancy over all registered shards:
    /// `(Σ popped, Σ len, max len)`.
    fn sample_queues(&self) -> (u64, u64, u64) {
        let probes = self.probes.lock();
        let mut consumed = 0u64;
        let mut queued = 0u64;
        let mut max_len = 0u64;
        for p in probes.iter() {
            consumed += p.monitor.popped();
            let len = p.monitor.len() as u64;
            queued += len;
            max_len = max_len.max(len);
        }
        (consumed, queued, max_len)
    }
}

/// Tuning for [`AdaptiveShed`]. Durations are wall-clock; watermarks are
/// in *events of live lag*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Per-shard channel capacity.
    pub capacity: usize,
    /// Starting (and recovery-floor) shed timeout.
    pub initial_timeout: Duration,
    /// Starting (and recovery-floor) shed budget.
    pub initial_budget: u64,
    /// Controller tick period.
    pub tick: Duration,
    /// Lag above this tightens admission.
    pub high_watermark: u64,
    /// Lag below this relaxes admission back toward the baseline.
    pub low_watermark: u64,
    /// Decrease never pushes the timeout below this.
    pub min_timeout: Duration,
    /// Recovery never pushes the timeout above this.
    pub max_timeout: Duration,
    /// Decrease never pushes the budget above this.
    pub max_budget: u64,
    /// A shard with queued events and no consumption for this long is
    /// declared stuck and escalated.
    pub watchdog_deadline: Duration,
}

impl AdaptiveConfig {
    /// Reasonable defaults for `objects` shards of `capacity` slots
    /// each: watermarks bracket the total queue space (tighten when the
    /// queues are three-quarters full in aggregate, relax below one
    /// quarter), a 5 ms tick, and a 250 ms stall deadline.
    pub fn for_pool(capacity: usize, objects: usize) -> AdaptiveConfig {
        let space = (capacity.max(1) * objects.max(1)) as u64;
        AdaptiveConfig {
            capacity,
            initial_timeout: Duration::from_millis(2),
            initial_budget: 64,
            tick: Duration::from_millis(5),
            high_watermark: space * 3 / 4,
            low_watermark: (space / 4).max(1),
            min_timeout: Duration::from_micros(50),
            max_timeout: Duration::from_millis(20),
            max_budget: 1 << 20,
            watchdog_deadline: Duration::from_millis(250),
        }
    }
}

/// Per-shard stall bookkeeping between ticks.
struct StallState {
    object: ObjectId,
    last_popped: u64,
    stalled_ticks: u64,
    escalated: bool,
}

/// The AIMD controller + watchdog. Construct with [`AdaptiveShed::new`],
/// then either drive [`tick`](AdaptiveShed::tick) manually (tests do —
/// the control law is pure state, no hidden clock) or hand it to a
/// background [`Ticker`] via [`into_ticker`](AdaptiveShed::into_ticker).
pub struct AdaptiveShed {
    control: Arc<ShedControl>,
    cfg: AdaptiveConfig,
    ticks: u64,
    stalls: Vec<StallState>,
    /// Spawns one supervised rescue worker; returns `false` if the
    /// spawn failed. Installed by the pool.
    rescue: Option<Box<dyn FnMut() -> bool + Send>>,
}

impl std::fmt::Debug for AdaptiveShed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveShed")
            .field("cfg", &self.cfg)
            .field("ticks", &self.ticks)
            .finish_non_exhaustive()
    }
}

impl AdaptiveShed {
    /// A controller over the given shared control state.
    pub fn new(control: Arc<ShedControl>, cfg: AdaptiveConfig) -> AdaptiveShed {
        if vyrd_rt::metrics::enabled() {
            let pm = pipeline();
            pm.overload_timeout_ns.set(cfg.initial_timeout.as_nanos() as u64);
            pm.overload_budget.set(cfg.initial_budget);
        }
        AdaptiveShed {
            control,
            cfg,
            ticks: 0,
            stalls: Vec::new(),
            rescue: None,
        }
    }

    /// Installs the watchdog's escalation path for unclaimed shards.
    pub fn with_rescue<F>(mut self, rescue: F) -> AdaptiveShed
    where
        F: FnMut() -> bool + Send + 'static,
    {
        self.rescue = Some(Box::new(rescue));
        self
    }

    /// Moves the controller onto a background ticker thread firing every
    /// `cfg.tick`.
    pub fn into_ticker(mut self) -> std::io::Result<Ticker> {
        let period = self.cfg.tick;
        Ticker::spawn(period, move || self.tick())
    }

    /// One control-loop iteration: sample, decide, escalate. Safe to
    /// call from any thread; also safe to call after the run finished
    /// (the samples just stop moving).
    pub fn tick(&mut self) {
        self.ticks += 1;
        let pm = pipeline();
        pm.overload_ticks.inc();

        // -- sample --------------------------------------------------
        let appended = pm.log_events_appended.get();
        let shed = pm.shard_events_shed.get();
        let dropped = pm.log_events_dropped_injected.get();
        let discarded = pm.log_events_discarded.get();
        let (consumed, _queued, max_occupancy) = self.control.sample_queues();
        // Live lag: events the program has logged that verification has
        // neither consumed nor already written off. (Counter reads are
        // not one atomic snapshot; `saturating_sub` absorbs the skew,
        // which is at most a few in-flight events per tick.)
        let lag = appended.saturating_sub(consumed + shed + dropped + discarded);
        pm.overload_lag_events.set(lag);
        pm.overload_lag_peak.set_max(lag);
        pm.overload_occupancy_peak.set_max(max_occupancy);

        // -- AIMD on (timeout, budget) --------------------------------
        let timeout = self.control.timeout();
        let budget = self.control.budget();
        let seq = self.control.dispatch_seq();
        if lag > self.cfg.high_watermark {
            // Overloaded: stall the program less per overflow (shorter
            // timeout) and raise the budget so shards shed per-event
            // instead of being abandoned for the rest of the run by a
            // transient storm.
            let new_timeout = (timeout / 2).max(self.cfg.min_timeout);
            let new_budget = budget.saturating_mul(2).min(self.cfg.max_budget);
            if new_timeout != timeout || new_budget != budget {
                self.apply(AdaptiveAction::Decrease, lag, new_timeout, new_budget, seq);
            }
        } else if lag < self.cfg.low_watermark {
            // Drained: relax back toward the configured baseline.
            let new_timeout = (timeout * 2).min(self.cfg.max_timeout);
            let new_budget = (budget / 2).max(self.cfg.initial_budget);
            if new_timeout != timeout || new_budget != budget {
                self.apply(AdaptiveAction::Recover, lag, new_timeout, new_budget, seq);
            }
        }

        // -- watchdog -------------------------------------------------
        self.watchdog(seq);
    }

    fn apply(
        &mut self,
        action: AdaptiveAction,
        lag: u64,
        timeout: Duration,
        budget: u64,
        seq: u64,
    ) {
        self.control
            .timeout_ns
            .store(timeout.as_nanos() as u64, Ordering::Relaxed);
        self.control.budget.store(budget, Ordering::Relaxed);
        let pm = pipeline();
        pm.overload_timeout_ns.set(timeout.as_nanos() as u64);
        pm.overload_budget.set(budget);
        match action {
            AdaptiveAction::Decrease => pm.overload_decisions_decrease.inc(),
            AdaptiveAction::Recover => pm.overload_decisions_recover.inc(),
        }
        self.control.push_decision(AdaptiveDecision {
            tick: self.ticks,
            action,
            lag_events: lag,
            timeout_ns: timeout.as_nanos() as u64,
            budget,
            first_seq: seq,
            last_seq: seq,
        });
    }

    fn watchdog(&mut self, seq: u64) {
        let deadline_ticks = {
            let tick_ns = self.cfg.tick.as_nanos().max(1);
            (self.cfg.watchdog_deadline.as_nanos().div_ceil(tick_ns)) as u64
        };
        // Snapshot probe state under the lock, then decide outside it.
        struct Sample {
            object: ObjectId,
            popped: u64,
            len: u64,
            claimed: bool,
        }
        let samples: Vec<Sample> = {
            let probes = self.control.probes.lock();
            probes
                .iter()
                .map(|p| Sample {
                    object: p.object,
                    popped: p.monitor.popped(),
                    len: p.monitor.len() as u64,
                    claimed: p.claimed,
                })
                .collect()
        };
        for s in samples {
            let stall = match self.stalls.iter_mut().find(|st| st.object == s.object) {
                Some(st) => st,
                None => {
                    self.stalls.push(StallState {
                        object: s.object,
                        last_popped: s.popped,
                        stalled_ticks: 0,
                        escalated: false,
                    });
                    continue;
                }
            };
            if s.popped != stall.last_popped || s.len == 0 {
                // Progressing, or idle with nothing queued — not stuck.
                stall.last_popped = s.popped;
                stall.stalled_ticks = 0;
                continue;
            }
            stall.stalled_ticks += 1;
            if stall.escalated || stall.stalled_ticks < deadline_ticks {
                continue;
            }
            stall.escalated = true;
            let pm = pipeline();
            let action = if !s.claimed {
                // Announced but never picked up: give it a worker.
                let rescued = match self.rescue.as_mut() {
                    Some(rescue) => rescue(),
                    None => false,
                };
                if rescued {
                    pm.overload_watchdog_rescues.inc();
                    WatchdogAction::RescueWorker
                } else {
                    self.control.quarantine(s.object);
                    pm.overload_watchdog_quarantines.inc();
                    WatchdogAction::Quarantine
                }
            } else {
                // A worker owns it and stopped consuming: wall it off so
                // the program never waits on it again.
                self.control.quarantine(s.object);
                pm.overload_watchdog_quarantines.inc();
                WatchdogAction::Quarantine
            };
            self.control.push_watchdog_event(WatchdogEvent {
                object: s.object,
                tick: self.ticks,
                queued: s.len,
                action,
                at_seq: seq,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn quarantine_bumps_epoch_once_per_object() {
        let c = ShedControl::new(Duration::from_millis(1), 4);
        assert_eq!(c.quarantine_epoch(), 0);
        assert!(c.quarantine(ObjectId(7)));
        assert_eq!(c.quarantine_epoch(), 1);
        assert!(!c.quarantine(ObjectId(7)), "re-quarantine is a no-op");
        assert_eq!(c.quarantine_epoch(), 1);
        assert!(c.quarantined_objects().contains(&7));
    }

    #[test]
    fn decisions_partition_the_dispatch_order() {
        let c = ShedControl::new(Duration::from_millis(1), 4);
        c.note_dispatch(100);
        c.push_decision(AdaptiveDecision {
            tick: 1,
            action: AdaptiveAction::Decrease,
            lag_events: 50,
            timeout_ns: 500_000,
            budget: 8,
            first_seq: 100,
            last_seq: 100,
        });
        c.note_dispatch(250);
        c.push_decision(AdaptiveDecision {
            tick: 4,
            action: AdaptiveAction::Recover,
            lag_events: 2,
            timeout_ns: 1_000_000,
            budget: 4,
            first_seq: 250,
            last_seq: 250,
        });
        c.note_dispatch(400);
        let (decisions, _) = c.finalize();
        assert_eq!(decisions.len(), 2);
        assert_eq!((decisions[0].first_seq, decisions[0].last_seq), (100, 250));
        assert_eq!((decisions[1].first_seq, decisions[1].last_seq), (250, 400));
    }

    /// The control law, driven by hand: lag past the high watermark
    /// tightens admission, lag below the low watermark recovers it, and
    /// a shard with queued events and frozen consumption is escalated
    /// after the deadline — rescue worker if unclaimed, quarantine if a
    /// worker owns it and stopped.
    #[test]
    fn manual_ticks_drive_aimd_and_watchdog() {
        use crate::event::ThreadId;
        use std::sync::atomic::AtomicBool;
        use vyrd_rt::channel;

        vyrd_rt::metrics::reset();
        let cfg = AdaptiveConfig {
            capacity: 4,
            initial_timeout: Duration::from_millis(1),
            initial_budget: 4,
            tick: Duration::from_millis(1),
            high_watermark: 10,
            low_watermark: 2,
            min_timeout: Duration::from_micros(100),
            max_timeout: Duration::from_millis(4),
            max_budget: 16,
            watchdog_deadline: Duration::from_millis(2), // = 2 ticks
        };
        let control = Arc::new(ShedControl::new(cfg.initial_timeout, cfg.initial_budget));
        let rescued = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&rescued);
        let mut shed = AdaptiveShed::new(Arc::clone(&control), cfg).with_rescue(move || {
            flag.store(true, Ordering::SeqCst);
            true
        });

        // Two stuck probes: object 1 announced but never claimed (the
        // rescue path), object 2 claimed (the quarantine path).
        let (tx1, rx1) = channel::bounded::<Event>(4);
        control.register_shard(ObjectId(1), rx1.monitor());
        let (tx2, rx2) = channel::bounded::<Event>(4);
        control.register_shard(ObjectId(2), rx2.monitor());
        control.mark_claimed(ObjectId(2));
        let ev = |o: u32| Event::Commit {
            tid: ThreadId(0),
            object: ObjectId(o),
        };
        tx1.send(ev(1)).unwrap();
        tx2.send(ev(2)).unwrap();

        // Lag above the high watermark: admission tightens (shorter
        // timeout, doubled budget).
        pipeline().log_events_appended.add(100);
        shed.tick();
        assert_eq!(control.timeout(), Duration::from_micros(500));
        assert_eq!(control.budget(), 8);

        // Lag written off as shed: recover toward the baseline.
        pipeline().shard_events_shed.add(100);
        shed.tick();
        assert_eq!(control.timeout(), Duration::from_millis(1));
        assert_eq!(control.budget(), 4);

        // Third tick, lag inside the dead band (no AIMD decision):
        // both shards have now been stuck for the full 2-tick deadline.
        pipeline().log_events_appended.add(5);
        shed.tick();
        assert!(rescued.load(Ordering::SeqCst), "unclaimed shard rescued");
        assert!(control.quarantined_objects().contains(&2));
        assert!(!control.quarantined_objects().contains(&1));
        assert_eq!(control.stranded_events(), 2, "both probes still queued");

        let (decisions, watchdog) = control.finalize();
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0].action, AdaptiveAction::Decrease);
        assert_eq!(decisions[1].action, AdaptiveAction::Recover);
        assert_eq!(watchdog.len(), 2);
        let by_object = |o: u32| {
            watchdog
                .iter()
                .find(|e| e.object == ObjectId(o))
                .expect("watchdog event")
                .action
        };
        assert_eq!(by_object(1), WatchdogAction::RescueWorker);
        assert_eq!(by_object(2), WatchdogAction::Quarantine);
        drop((rx1, rx2));
    }
}

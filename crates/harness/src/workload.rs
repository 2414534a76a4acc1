//! Workload generation per §7.1.
//!
//! "Each test program first generates a random pool of keys to be shared
//! by all threads as arguments for method calls. Then the program creates
//! a number of threads each of which, using arguments randomly chosen
//! from the pool, issues a given number of random method calls to the
//! same data structure instance concurrently. The pool is reduced
//! gradually over time to focus more concurrent method calls on a
//! smaller region of the data structure."

use std::time::{Duration, Instant};

use vyrd_rt::rng::Rng;
use vyrd_rt::time::Pacer;

/// Open-loop pacing for a workload: a target aggregate arrival rate and
/// a wall-clock duration. When set on a [`WorkloadConfig`], threads stop
/// issuing calls at the duration deadline instead of after a fixed call
/// count, and each call is released on a fixed arrival schedule —
/// *never* rescheduled when the system under test falls behind (that is
/// the open-loop property: offered load is independent of service rate,
/// so queues are allowed to grow).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaceConfig {
    /// Aggregate target arrival rate across all threads, calls/second.
    /// 0 means flat-out (no pacing, duration-bounded only).
    pub rate_per_sec: u64,
    /// How long the workload runs.
    pub duration: Duration,
}

/// Parameters of one workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of application threads issuing method calls.
    pub threads: usize,
    /// Method calls issued by each thread (closed-loop mode; ignored
    /// when `pace` is set).
    pub calls_per_thread: usize,
    /// Size of the initial shared key pool.
    pub key_pool: usize,
    /// Reduce the effective pool over the run (focus contention).
    pub shrink_pool: bool,
    /// Run the structure's internal task (compression thread / cache
    /// flusher) continuously alongside the workload.
    pub internal_task: bool,
    /// RNG seed; each thread derives its stream from this and its index.
    pub seed: u64,
    /// `Some` switches the run from closed-loop (fixed call count) to
    /// open-loop (arrival-rate driven, duration-bounded).
    pub pace: Option<PaceConfig>,
}

impl WorkloadConfig {
    /// A compact default configuration used by tests.
    pub fn small() -> WorkloadConfig {
        WorkloadConfig {
            threads: 4,
            calls_per_thread: 50,
            key_pool: 16,
            shrink_pool: true,
            internal_task: false,
            seed: 42,
            pace: None,
        }
    }

    /// The compact multi-object workload whose traces the fault matrix,
    /// the agreement tests and the metrics reconciliation record.
    pub fn recorded(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            threads: 4,
            calls_per_thread: 25,
            key_pool: 8,
            shrink_pool: true,
            internal_task: true,
            seed,
            pace: None,
        }
    }

    /// Total method calls across application threads (closed-loop).
    pub fn total_calls(&self) -> usize {
        self.threads * self.calls_per_thread
    }

    /// Derives the configuration with a different seed (for repeated
    /// detection runs).
    pub fn with_seed(mut self, seed: u64) -> WorkloadConfig {
        self.seed = seed;
        self
    }

    /// Derives the configuration with open-loop pacing.
    pub fn with_pace(mut self, pace: PaceConfig) -> WorkloadConfig {
        self.pace = Some(pace);
        self
    }
}

/// One thread's call allowance: either a fixed count (closed-loop) or
/// an open-loop arrival schedule with a deadline.
///
/// Scenario loops draw from it — `while let Some(i) = budget.next()` —
/// so the same workload code serves both modes; `i` is the call index
/// the loop would have used as its counter.
#[derive(Debug)]
pub enum OpBudget {
    /// Closed-loop: exactly `remaining` more calls.
    Calls {
        /// Calls left to issue.
        remaining: usize,
        /// Calls already issued (the next call's index).
        issued: usize,
    },
    /// Open-loop: calls released on the pacer's fixed schedule until
    /// the deadline.
    Paced {
        /// The thread's arrival schedule.
        pacer: Pacer,
        /// Wall-clock stop time.
        deadline: Instant,
        /// Calls already issued (the next call's index).
        issued: usize,
    },
}

impl OpBudget {
    /// The budget for thread `index` of a run that started at `start`.
    ///
    /// In paced mode each thread runs at `rate / threads`, phase-shifted
    /// by its index so the per-thread schedules interleave instead of
    /// thundering on the same instants.
    pub fn new(cfg: &WorkloadConfig, index: usize, start: Instant) -> OpBudget {
        match cfg.pace {
            None => OpBudget::Calls {
                remaining: cfg.calls_per_thread,
                issued: 0,
            },
            Some(pace) => {
                let threads = cfg.threads.max(1) as u64;
                let per_thread = pace.rate_per_sec / threads;
                let phase = if per_thread == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_nanos(
                        (1_000_000_000 / per_thread.max(1)) * (index as u64) / threads,
                    )
                };
                OpBudget::Paced {
                    pacer: Pacer::with_phase(start, per_thread, phase),
                    deadline: start + pace.duration,
                    issued: 0,
                }
            }
        }
    }

    /// Calls issued so far.
    pub fn issued(&self) -> usize {
        match self {
            OpBudget::Calls { issued, .. } | OpBudget::Paced { issued, .. } => *issued,
        }
    }
}

/// Issues the next call, yielding its index — ends when the budget is
/// spent (count exhausted, or deadline reached). Paced budgets block
/// until the call's scheduled arrival when ahead of schedule and yield
/// immediately when behind.
impl Iterator for OpBudget {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            OpBudget::Calls { remaining, issued } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let i = *issued;
                *issued += 1;
                Some(i)
            }
            OpBudget::Paced {
                pacer,
                deadline,
                issued,
            } => {
                // Wall-clock stop: a flat-out pacer (rate 0) has every
                // arrival due at the start, so the schedule alone would
                // never end the run.
                if Instant::now() >= *deadline {
                    return None;
                }
                pacer.next_arrival_before(*deadline)?;
                let i = *issued;
                *issued += 1;
                Some(i)
            }
        }
    }
}

/// Per-thread random stream over the shared key pool.
#[derive(Debug)]
pub struct ThreadWorkload {
    rng: Rng,
    pool: Vec<i64>,
    calls: usize,
    issued: usize,
    shrink: bool,
}

impl ThreadWorkload {
    /// Creates the stream for thread `index` of a run.
    pub fn new(cfg: &WorkloadConfig, index: usize) -> ThreadWorkload {
        // The pool itself is shared (same seed ⇒ same pool in every
        // thread); per-thread choice streams differ.
        let mut pool_rng = Rng::seed_from_u64(cfg.seed);
        let pool: Vec<i64> = (0..cfg.key_pool.max(1))
            .map(|_| pool_rng.gen_range(0..1_000_000))
            .collect();
        ThreadWorkload {
            rng: Rng::seed_from_u64(
                cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            pool,
            calls: cfg.calls_per_thread,
            issued: 0,
            shrink: cfg.shrink_pool,
        }
    }

    /// Picks the next key from the (gradually shrinking) pool.
    pub fn next_key(&mut self) -> i64 {
        let len = self.effective_pool_len();
        self.pool[self.rng.gen_range(0..len)]
    }

    /// Current effective pool size: shrinks linearly from the full pool
    /// to a quarter of it over the run.
    fn effective_pool_len(&self) -> usize {
        if !self.shrink || self.calls == 0 {
            return self.pool.len();
        }
        let progress = self.issued.min(self.calls) as f64 / self.calls as f64;
        let full = self.pool.len() as f64;
        let len = full - progress * full * 0.75;
        (len.ceil() as usize).clamp(1, self.pool.len())
    }

    /// Draws the next operation as an index into `weights` (one weight
    /// per operation kind), advancing the shrink schedule.
    pub fn next_op(&mut self, weights: &[u32]) -> usize {
        self.issued += 1;
        let total: u32 = weights.iter().sum();
        let mut draw = self.rng.gen_range(0..total.max(1));
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// A raw random integer in `0..bound` (for non-key parameters).
    pub fn next_int(&mut self, bound: i64) -> i64 {
        self.rng.gen_range(0..bound.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_shared_across_threads() {
        let cfg = WorkloadConfig::small();
        let a = ThreadWorkload::new(&cfg, 0);
        let b = ThreadWorkload::new(&cfg, 1);
        assert_eq!(a.pool, b.pool);
    }

    #[test]
    fn streams_differ_across_threads_but_are_reproducible() {
        let cfg = WorkloadConfig::small();
        let mut a0 = ThreadWorkload::new(&cfg, 0);
        let mut a0_again = ThreadWorkload::new(&cfg, 0);
        let mut a1 = ThreadWorkload::new(&cfg, 1);
        let seq0: Vec<i64> = (0..10).map(|_| a0.next_key()).collect();
        let seq0_again: Vec<i64> = (0..10).map(|_| a0_again.next_key()).collect();
        let seq1: Vec<i64> = (0..10).map(|_| a1.next_key()).collect();
        assert_eq!(seq0, seq0_again);
        assert_ne!(seq0, seq1);
    }

    #[test]
    fn pool_shrinks_over_the_run() {
        let cfg = WorkloadConfig {
            key_pool: 100,
            calls_per_thread: 100,
            ..WorkloadConfig::small()
        };
        let mut w = ThreadWorkload::new(&cfg, 0);
        assert_eq!(w.effective_pool_len(), 100);
        for _ in 0..100 {
            w.next_op(&[1]);
        }
        assert_eq!(w.effective_pool_len(), 25);
    }

    #[test]
    fn no_shrink_keeps_the_pool() {
        let cfg = WorkloadConfig {
            shrink_pool: false,
            ..WorkloadConfig::small()
        };
        let mut w = ThreadWorkload::new(&cfg, 0);
        for _ in 0..50 {
            w.next_op(&[1]);
        }
        assert_eq!(w.effective_pool_len(), cfg.key_pool);
    }

    #[test]
    fn op_weights_are_respected() {
        let cfg = WorkloadConfig::small();
        let mut w = ThreadWorkload::new(&cfg, 0);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[w.next_op(&[1, 1, 8])] += 1;
        }
        assert!(counts[2] > counts[0] * 3, "{counts:?}");
        assert!(counts[0] > 0 && counts[1] > 0);
    }

    #[test]
    fn config_helpers() {
        let cfg = WorkloadConfig::small().with_seed(7);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.total_calls(), 4 * 50);
    }

    #[test]
    fn closed_loop_budget_yields_exactly_the_call_count() {
        let cfg = WorkloadConfig::small();
        let mut b = OpBudget::new(&cfg, 0, Instant::now());
        let indices: Vec<usize> = std::iter::from_fn(|| b.next()).collect();
        assert_eq!(indices, (0..cfg.calls_per_thread).collect::<Vec<_>>());
        assert_eq!(b.next(), None, "spent budgets stay spent");
        assert_eq!(b.issued(), cfg.calls_per_thread);
    }

    #[test]
    fn paced_budget_stops_at_the_deadline() {
        let cfg = WorkloadConfig::small().with_pace(PaceConfig {
            rate_per_sec: 40_000,
            duration: Duration::from_millis(40),
        });
        let start = Instant::now();
        let mut b = OpBudget::new(&cfg, 0, start);
        let mut n = 0usize;
        while b.next().is_some() {
            n += 1;
        }
        assert!(n > 0, "paced budget issued nothing");
        // 40k/s over 4 threads for 40ms ≈ 400 arrivals per thread; the
        // deadline must cap the schedule even if the loop runs fast.
        assert!(n <= 401, "issued past the schedule: {n}");
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "returned long before the deadline"
        );
    }

    #[test]
    fn flat_out_pace_is_duration_bounded_only() {
        let cfg = WorkloadConfig::small().with_pace(PaceConfig {
            rate_per_sec: 0,
            duration: Duration::from_millis(10),
        });
        let mut b = OpBudget::new(&cfg, 2, Instant::now());
        let mut n = 0usize;
        while b.next().is_some() && n < 100_000 {
            n += 1;
        }
        assert!(n >= 1_000, "flat-out pace should issue freely: {n}");
    }
}

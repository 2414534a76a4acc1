//! Deterministic failpoint framework for fault-injection testing.
//!
//! Runtime-verification pipelines are only trustworthy if they keep
//! telling the truth while parts of them misbehave. This module provides
//! the *misbehaving* half: named injection sites (`fault::inject("...")`)
//! threaded through hot paths, and a [`FaultPlan`] that decides — fully
//! deterministically — which hits of which site panic, stall, or drop.
//!
//! Determinism is the point. Every probabilistic decision draws from a
//! per-site [`Rng`] seeded from the plan seed mixed with
//! a hash of the site name, so a failing fault-matrix run replays exactly
//! from its seed (`VYRD_FAULT_SEED`), independent of thread scheduling at
//! *other* sites.
//!
//! # Cost when disabled
//!
//! With no plan installed, [`inject`] is one relaxed atomic load — cheap
//! enough to leave the sites compiled into release builds, which is what
//! lets the harness exercise production code paths rather than
//! test-only doubles.
//!
//! # Scoping
//!
//! The installed plan is process-global (sites fire on whatever thread
//! reaches them — that is the point of failpoints), so tests that install
//! plans must not run concurrently with each other. Keep fault-injection
//! tests in their own integration-test binaries, or serialize them on a
//! mutex, and let the [`FaultScope`] guard clear the plan on drop even
//! when the test panics.
//!
//! ```
//! use vyrd_rt::fault::{self, Disposition, FaultAction, FaultPlan, FaultRule};
//!
//! let _scope = fault::install(
//!     FaultPlan::seeded(42).rule("demo.site", FaultRule::once(FaultAction::Drop).after(1)),
//! );
//! assert_eq!(fault::inject("demo.site"), Disposition::Proceed); // skipped: after(1)
//! assert_eq!(fault::inject("demo.site"), Disposition::Drop);    // fires once
//! assert_eq!(fault::inject("demo.site"), Disposition::Proceed); // budget spent
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::rng::Rng;

/// Name of the environment variable harnesses read to seed fault plans,
/// so a CI failure replays exactly from the logged seed.
pub const SEED_ENV: &str = "VYRD_FAULT_SEED";

/// What an armed failpoint does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic at the site (`inject` panics; the payload names the site).
    Panic,
    /// Sleep for the given duration, then proceed — models a stall.
    Delay(Duration),
    /// Ask the caller to drop the unit of work at the site:
    /// [`inject`] returns [`Disposition::Drop`].
    Drop,
}

/// When and how often a site fires. Build with [`FaultRule::always`] /
/// [`FaultRule::once`] and refine with the builder methods.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// What happens when the rule fires.
    pub action: FaultAction,
    /// Skip the first `after` hits of the site before becoming eligible.
    pub after: u64,
    /// Fire at most this many times (`None` = every eligible hit).
    pub times: Option<u64>,
    /// Fire an eligible hit with this probability (1.0 = always), drawn
    /// from the site's deterministic RNG.
    pub probability: f64,
}

impl FaultRule {
    /// A rule that fires on every hit.
    pub fn always(action: FaultAction) -> FaultRule {
        FaultRule {
            action,
            after: 0,
            times: None,
            probability: 1.0,
        }
    }

    /// A rule that fires exactly once, on the first eligible hit.
    pub fn once(action: FaultAction) -> FaultRule {
        FaultRule::always(action).times(1)
    }

    /// Skips the first `n` hits of the site.
    pub fn after(mut self, n: u64) -> FaultRule {
        self.after = n;
        self
    }

    /// Caps the number of firings at `n`.
    pub fn times(mut self, n: u64) -> FaultRule {
        self.times = Some(n);
        self
    }

    /// Fires eligible hits with probability `p` (deterministic per seed).
    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p;
        self
    }
}

/// A seeded set of site rules. Install with [`install`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(String, FaultRule)>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule for `site` (first matching rule wins on each hit).
    pub fn rule(mut self, site: &str, rule: FaultRule) -> FaultPlan {
        self.rules.push((site.to_owned(), rule));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan has no rules (installing it still enables the
    /// registry, which is occasionally useful to measure site overhead).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Reads the fault seed from [`SEED_ENV`], defaulting to 0 when unset or
/// unparsable — callers log the value they ended up with so runs replay.
pub fn seed_from_env() -> u64 {
    std::env::var(SEED_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// What the caller of [`inject`] should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// No fault (or a fault already delivered in-line, e.g. a delay):
    /// continue normally.
    Proceed,
    /// A drop-fault fired: skip the unit of work guarded by the site and
    /// account for it as lost coverage.
    Drop,
}

struct SiteState {
    hits: u64,
    fired: u64,
    rng: Rng,
}

struct Active {
    plan: FaultPlan,
    sites: HashMap<String, SiteState>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

fn lock_active() -> std::sync::MutexGuard<'static, Option<Active>> {
    // A panic-action rule never panics while holding this lock, but a
    // checker thread killed mid-`inject` by some *other* panic could
    // poison it; shrug that off like the rest of the substrate.
    ACTIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the site name: mixed into the plan seed so each site gets
/// an independent deterministic random stream.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Clears any installed plan when dropped, so a panicking test cannot
/// leave its faults armed for the next one.
#[derive(Debug)]
pub struct FaultScope {
    _private: (),
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        clear();
    }
}

/// Installs `plan` process-wide, replacing any previous plan, and returns
/// a guard that uninstalls it on drop.
pub fn install(plan: FaultPlan) -> FaultScope {
    let mut active = lock_active();
    *active = Some(Active {
        plan,
        sites: HashMap::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
    FaultScope { _private: () }
}

/// Uninstalls the current plan (normally done by [`FaultScope`]).
pub fn clear() {
    let mut active = lock_active();
    ENABLED.store(false, Ordering::SeqCst);
    *active = None;
}

/// Whether a plan is installed. Callers use this to skip building site
/// names (`format!`) on the hot path when faults are off.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How many times the site's rule has fired under the current plan.
pub fn fired(site: &str) -> u64 {
    lock_active()
        .as_ref()
        .and_then(|a| a.sites.get(site))
        .map_or(0, |s| s.fired)
}

/// How many times the site has been reached under the current plan.
pub fn hits(site: &str) -> u64 {
    lock_active()
        .as_ref()
        .and_then(|a| a.sites.get(site))
        .map_or(0, |s| s.hits)
}

/// Evaluates the failpoint `site`. With no plan installed this is one
/// relaxed atomic load. With a matching armed rule it may panic (payload
/// `"vyrd fault injected at <site>"`), sleep, or return
/// [`Disposition::Drop`]; otherwise it returns [`Disposition::Proceed`].
///
/// # Panics
///
/// Panics when the matched rule's action is [`FaultAction::Panic`] — that
/// is the rule's job; run the guarded code under `catch_unwind` to
/// contain it.
pub fn inject(site: &str) -> Disposition {
    if !ENABLED.load(Ordering::Relaxed) {
        return Disposition::Proceed;
    }
    let action = evaluate(site);
    match action {
        None => Disposition::Proceed,
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Disposition::Proceed
        }
        Some(FaultAction::Drop) => Disposition::Drop,
        Some(FaultAction::Panic) => panic!("vyrd fault injected at {site}"),
    }
}

fn evaluate(site: &str) -> Option<FaultAction> {
    let mut guard = lock_active();
    let active = guard.as_mut()?;
    let rule = active
        .plan
        .rules
        .iter()
        .find(|(s, _)| s == site)?
        .1
        .clone();
    let seed = active.plan.seed;
    let state = active
        .sites
        .entry(site.to_owned())
        .or_insert_with(|| SiteState {
            hits: 0,
            fired: 0,
            rng: Rng::seed_from_u64(seed ^ site_hash(site)),
        });
    let hit = state.hits;
    state.hits += 1;
    if hit < rule.after {
        return None;
    }
    if rule.times.is_some_and(|t| state.fired >= t) {
        return None;
    }
    if rule.probability < 1.0 && !state.rng.gen_bool(rule.probability) {
        return None;
    }
    state.fired += 1;
    Some(rule.action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The registry is process-global; serialize the tests that use it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_sites_proceed() {
        let _serial = serial();
        clear();
        assert!(!enabled());
        assert_eq!(inject("nowhere"), Disposition::Proceed);
        assert_eq!(fired("nowhere"), 0);
    }

    #[test]
    fn after_and_times_budget_the_firings() {
        let _serial = serial();
        let _scope = install(
            FaultPlan::seeded(1).rule("t.budget", FaultRule::always(FaultAction::Drop).after(2).times(3)),
        );
        let drops: Vec<bool> = (0..8)
            .map(|_| inject("t.budget") == Disposition::Drop)
            .collect();
        assert_eq!(
            drops,
            vec![false, false, true, true, true, false, false, false]
        );
        assert_eq!(hits("t.budget"), 8);
        assert_eq!(fired("t.budget"), 3);
    }

    #[test]
    fn unmatched_sites_are_untouched() {
        let _serial = serial();
        let _scope =
            install(FaultPlan::seeded(2).rule("t.here", FaultRule::always(FaultAction::Drop)));
        assert_eq!(inject("t.elsewhere"), Disposition::Proceed);
        assert_eq!(inject("t.here"), Disposition::Drop);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let _serial = serial();
        let pattern = |seed: u64| -> Vec<bool> {
            let _scope = install(
                FaultPlan::seeded(seed)
                    .rule("t.prob", FaultRule::always(FaultAction::Drop).with_probability(0.5)),
            );
            (0..64).map(|_| inject("t.prob") == Disposition::Drop).collect()
        };
        let a = pattern(7);
        let b = pattern(7);
        let c = pattern(8);
        assert_eq!(a, b, "same seed must replay the same firing pattern");
        assert_ne!(a, c, "different seeds should diverge (64 draws)");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _serial = serial();
        let _scope =
            install(FaultPlan::seeded(3).rule("t.boom", FaultRule::once(FaultAction::Panic)));
        let err = std::panic::catch_unwind(|| inject("t.boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t.boom"), "payload was: {msg}");
        // The budget was spent inside catch_unwind; the site is calm now.
        assert_eq!(inject("t.boom"), Disposition::Proceed);
    }

    #[test]
    fn delay_action_stalls_then_proceeds() {
        let _serial = serial();
        let _scope = install(FaultPlan::seeded(4).rule(
            "t.slow",
            FaultRule::once(FaultAction::Delay(Duration::from_millis(15))),
        ));
        let start = std::time::Instant::now();
        assert_eq!(inject("t.slow"), Disposition::Proceed);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn scope_guard_clears_on_drop() {
        let _serial = serial();
        {
            let _scope =
                install(FaultPlan::seeded(5).rule("t.scoped", FaultRule::always(FaultAction::Drop)));
            assert_eq!(inject("t.scoped"), Disposition::Drop);
        }
        assert!(!enabled());
        assert_eq!(inject("t.scoped"), Disposition::Proceed);
    }

    #[test]
    fn seed_from_env_defaults_to_zero() {
        // Not serialized on the fault registry — only reads the env.
        if std::env::var(SEED_ENV).is_err() {
            assert_eq!(seed_from_env(), 0);
        }
    }
}

//! The six benchmark systems of Tables 1–3, wired to the §7.1 workload
//! driver.

use vyrd_blinktree::{BLinkReplayer, BLinkSpec, BLinkTree, BLinkTreeHandle, BLinkVariant};
use vyrd_core::checker::{Checker, NoopReplayer};
use vyrd_core::log::EventLog;
use vyrd_core::replay::Replayer;
use vyrd_javalib::{
    BufferPool, BufferPoolHandle, StringBufferReplayer, StringBufferSpec, StringBufferVariant,
    SyncVector, SyncVectorHandle, VectorReplayer, VectorSpec, VectorVariant,
};
use vyrd_lockfree::{
    MsQueue, MsQueueHandle, QueueSpec, QueueVariant, StackSpec, StackVariant, TreiberStack,
    TreiberStackHandle,
};
use vyrd_multiset::{
    BstMultiset, BstMultisetHandle, BstReplayer, BstVariant, FindSlotVariant, MultisetSpec,
    SlotReplayer, VectorMultiset, VectorMultisetHandle,
};
use vyrd_storage::{
    clean_matches_chunk, entry_in_exactly_one_list, BoxCache, BoxCacheHandle, CacheReplayer,
    CacheVariant, ChunkManager, StoreSpec,
};

use std::sync::Arc;

use vyrd_core::spec::Spec;
use vyrd_core::witness::{
    BasicExplainer, DdminMinimizer, Explainer, LinExplainer, Minimizer, ViewExplainer,
};
use vyrd_core::ObjectId;

use crate::scenario::{CheckKind, CheckerFactory, Scenario, Variant};
use crate::workload::{OpBudget, ThreadWorkload, WorkloadConfig};

/// All six table rows, in the paper's order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(MultisetVectorScenario),
        Box::new(MultisetBstScenario),
        Box::new(JavaVectorScenario),
        Box::new(StringBufferScenario),
        Box::new(BLinkTreeScenario),
        Box::new(CacheScenario),
    ]
}

/// The lock-free scenario family — atomics-based structures whose
/// commit points are successful CAS instructions. Not part of the
/// paper's six table rows; checkable in `Io` and `Lin` modes (they log
/// no shared-variable writes, so `View` refinement is unsupported and
/// refused with a failed verdict).
pub fn lockfree() -> Vec<Box<dyn Scenario>> {
    vec![Box::new(TreiberStackScenario), Box::new(MsQueueScenario)]
}

/// Looks a scenario up by name, across the table rows ([`all`]) and the
/// lock-free family ([`lockfree`]).
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    all()
        .into_iter()
        .chain(lockfree())
        .find(|s| s.name() == name)
}

/// Spawns `cfg.threads` workload threads plus (optionally) an internal
/// task thread, joining everything before returning.
///
/// Each thread receives an [`OpBudget`] alongside its random stream:
/// closed-loop runs count to `cfg.calls_per_thread`, open-loop runs
/// (`cfg.pace` set) release calls on a fixed arrival schedule until the
/// duration deadline. All budgets share one start instant so the
/// aggregate offered rate is exactly `pace.rate_per_sec`.
fn drive<W, T>(cfg: &WorkloadConfig, per_thread: W, internal_task: Option<T>)
where
    W: Fn(usize, ThreadWorkload, OpBudget) + Send + Sync,
    T: FnMut() + Send,
{
    let stop = std::sync::atomic::AtomicBool::new(false);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let task_handle = internal_task.map(|mut task| {
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    task();
                    // Internal maintenance runs continuously (§7.1) but
                    // must not monopolize the structure lock; a short
                    // pause keeps the workload, not the maintenance,
                    // dominant — as in the paper's systems.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            })
        });
        let per_thread = &per_thread;
        let workers: Vec<_> = (0..cfg.threads)
            .map(|i| {
                let wl = ThreadWorkload::new(cfg, i);
                let budget = OpBudget::new(cfg, i, start);
                scope.spawn(move || per_thread(i, wl, budget))
            })
            .collect();
        for w in workers {
            w.join().expect("workload thread");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = task_handle {
            h.join().expect("internal task thread");
        }
    });
}

/// Drives the workload against one instance: each thread takes a handle
/// on it and makes every call through that handle.
fn drive_one<T, H, K>(
    cfg: &WorkloadConfig,
    instance: &T,
    handle: fn(&T) -> H,
    call: fn(&H, &mut ThreadWorkload, usize),
    task: Option<K>,
) where
    T: Sync,
    K: FnMut() + Send,
{
    drive(
        cfg,
        |_, mut wl, ops| {
            let h = handle(instance);
            for i in ops {
                call(&h, &mut wl, i);
            }
        },
        task,
    );
}

/// Drives the workload against several instances (§8 multi-object mode):
/// each call picks an instance from the workload stream and takes a fresh
/// handle on it.
fn drive_each<T, H, K>(
    cfg: &WorkloadConfig,
    instances: &[T],
    handle: fn(&T) -> H,
    call: fn(&H, &mut ThreadWorkload, usize),
    task: Option<K>,
) where
    T: Sync,
    K: FnMut() + Send,
{
    drive(
        cfg,
        |_, mut wl, ops| {
            for i in ops {
                let h = handle(&instances[wl.next_int(instances.len() as i64) as usize]);
                call(&h, &mut wl, i);
            }
        },
        task,
    );
}

/// A scenario's checker constructor for `kind`: I/O and Lin checkers over
/// a fresh `spec()`, and in view mode the checker `view` builds around it
/// (`None` when the scenario cannot check view refinement).
fn checkers<S, R>(
    kind: CheckKind,
    spec: fn() -> S,
    view: Option<fn(S) -> Checker<S, R>>,
) -> Option<CheckerFactory>
where
    S: Spec + 'static,
    R: Replayer + 'static,
{
    let factory: CheckerFactory = match kind {
        CheckKind::Io => {
            Arc::new(move |options| Box::new(Checker::io(spec()).with_options(options)))
        }
        CheckKind::Lin => {
            Arc::new(move |options| Box::new(Checker::lin(spec()).with_options(options)))
        }
        CheckKind::View => {
            let view = view?;
            Arc::new(move |options| Box::new(view(spec()).with_options(options)))
        }
    };
    Some(factory)
}

// ---------------------------------------------------------------------
// Multiset-Vector — "moving acquire in FindSlot" (Fig. 5)
// ---------------------------------------------------------------------

/// One workload call against a growable multiset.
fn multiset_op(h: &VectorMultisetHandle, wl: &mut ThreadWorkload, _i: usize) {
    let op = wl.next_op(&[3, 2, 3, 2]);
    let x = wl.next_key();
    match op {
        0 => {
            h.insert(x);
        }
        1 => {
            h.insert_pair(x, wl.next_key());
        }
        2 => {
            h.delete(x);
        }
        _ => {
            h.lookup(x);
        }
    }
}

/// The growable multiset with the Fig. 5 `FindSlot` bug.
#[derive(Debug)]
pub struct MultisetVectorScenario;

impl Scenario for MultisetVectorScenario {
    fn name(&self) -> &'static str {
        "Multiset-Vector"
    }

    fn bug(&self) -> &'static str {
        "Moving acquire in FindSlot"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let fs = variant.pick(FindSlotVariant::Correct, FindSlotVariant::Buggy);
        let ms = VectorMultiset::new(fs, log.clone());
        let task = cfg.internal_task.then(|| {
            let h = ms.handle();
            move || h.compress()
        });
        drive_one(cfg, &ms, VectorMultiset::handle, multiset_op, task);
    }

    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers(
            kind,
            MultisetSpec::new,
            Some(|spec| Checker::view(spec, SlotReplayer::new())),
        )
    }

    /// §8 multi-object mode: `objects` independent multisets, each
    /// logging under its own [`ObjectId`]; every call picks an instance
    /// from the workload stream.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let fs = variant.pick(FindSlotVariant::Correct, FindSlotVariant::Buggy);
        let sets: Vec<VectorMultiset> = (0..objects.max(1))
            .map(|i| VectorMultiset::new(fs, log.with_object(ObjectId(i))))
            .collect();
        let task = cfg.internal_task.then(|| {
            let handles: Vec<_> = sets.iter().map(|s| s.handle()).collect();
            let mut next = 0usize;
            move || {
                handles[next % handles.len()].compress();
                next += 1;
            }
        });
        drive_each(cfg, &sets, VectorMultiset::handle, multiset_op, task);
        true
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::View => Box::new(ViewExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

// ---------------------------------------------------------------------
// Multiset-BinaryTree — "unlocking parent before insertion"
// ---------------------------------------------------------------------

/// One workload call against a BST multiset.
fn bst_op(h: &BstMultisetHandle, wl: &mut ThreadWorkload, _i: usize) {
    let op = wl.next_op(&[5, 2, 3]);
    let x = wl.next_key();
    match op {
        0 => {
            h.insert(x);
        }
        1 => {
            h.delete(x);
        }
        _ => {
            h.lookup(x);
        }
    }
}

/// The BST multiset with the lost-insert bug.
#[derive(Debug)]
pub struct MultisetBstScenario;

impl Scenario for MultisetBstScenario {
    fn name(&self) -> &'static str {
        "Multiset-BinaryTree"
    }

    fn bug(&self) -> &'static str {
        "Unlocking parent before insertion"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(BstVariant::Correct, BstVariant::UnlockParentEarly);
        let ms = BstMultiset::new(v, log.clone());
        let task = cfg.internal_task.then(|| {
            let h = ms.handle();
            move || h.compress()
        });
        drive_one(cfg, &ms, BstMultiset::handle, bst_op, task);
    }

    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers(
            kind,
            MultisetSpec::new,
            Some(|spec| Checker::view(spec, BstReplayer::new())),
        )
    }

    /// §8 multi-object mode: `objects` independent BST multisets, each
    /// logging under its own [`ObjectId`]; every call picks an instance
    /// from the workload stream. The compressor services the trees in
    /// rotation.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(BstVariant::Correct, BstVariant::UnlockParentEarly);
        let sets: Vec<BstMultiset> = (0..objects.max(1))
            .map(|i| BstMultiset::new(v, log.with_object(ObjectId(i))))
            .collect();
        let task = cfg.internal_task.then(|| {
            let handles: Vec<_> = sets.iter().map(|s| s.handle()).collect();
            let mut next = 0usize;
            move || {
                handles[next % handles.len()].compress();
                next += 1;
            }
        });
        drive_each(cfg, &sets, BstMultiset::handle, bst_op, task);
        true
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::View => Box::new(ViewExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

// ---------------------------------------------------------------------
// java.util.Vector — "taking length non-atomically in lastIndexOf()"
// ---------------------------------------------------------------------

/// One workload call against a synchronized vector.
fn vector_op(h: &SyncVectorHandle, wl: &mut ThreadWorkload, _i: usize) {
    match wl.next_op(&[4, 3, 3, 1]) {
        0 => h.add(wl.next_key()),
        1 => {
            h.remove_last();
        }
        2 => {
            h.last_index_of(wl.next_key());
        }
        _ => {
            h.size();
        }
    }
}

/// The synchronized vector with the observer-side bug.
#[derive(Debug)]
pub struct JavaVectorScenario;

impl Scenario for JavaVectorScenario {
    fn name(&self) -> &'static str {
        "Vector"
    }

    fn bug(&self) -> &'static str {
        "Taking length non-atomically in lastIndexOf()"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(VectorVariant::Correct, VectorVariant::Buggy);
        let vec = SyncVector::new(v, log.clone());
        // Seed so early removeLast/lastIndexOf have content to race on.
        let seeder = vec.handle();
        for i in 0..8 {
            seeder.add(i);
        }
        drive_one(cfg, &vec, SyncVector::handle, vector_op, None::<fn()>);
    }

    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers(
            kind,
            VectorSpec::new,
            Some(|spec| Checker::view(spec, VectorReplayer::new())),
        )
    }

    /// §8 multi-object mode: `objects` independent vectors, each seeded
    /// and logging under its own [`ObjectId`]; every call picks an
    /// instance from the workload stream.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(VectorVariant::Correct, VectorVariant::Buggy);
        let vecs: Vec<SyncVector> = (0..objects.max(1))
            .map(|i| SyncVector::new(v, log.with_object(ObjectId(i))))
            .collect();
        for vec in &vecs {
            let seeder = vec.handle();
            for i in 0..8 {
                seeder.add(i);
            }
        }
        drive_each(cfg, &vecs, SyncVector::handle, vector_op, None::<fn()>);
        true
    }
}

// ---------------------------------------------------------------------
// java.util.StringBuffer — "copying from an unprotected StringBuffer"
// ---------------------------------------------------------------------

const SB_BUFFERS: usize = 4;

/// One workload call against a string-buffer pool.
fn buffer_op(h: &BufferPoolHandle, wl: &mut ThreadWorkload, _i: usize) {
    let op = wl.next_op(&[3, 4, 3, 1]);
    let id = wl.next_int(SB_BUFFERS as i64);
    match op {
        0 => h.append(id, "ab"),
        1 => {
            h.append_buffer(id, wl.next_int(SB_BUFFERS as i64));
        }
        2 => h.set_length(id, wl.next_int(12) as usize),
        _ => {
            h.length(id);
        }
    }
}

/// The string-buffer pool with the unprotected-copy bug.
#[derive(Debug)]
pub struct StringBufferScenario;

impl Scenario for StringBufferScenario {
    fn name(&self) -> &'static str {
        "StringBuffer"
    }

    fn bug(&self) -> &'static str {
        "Copying from an unprotected StringBuffer"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(StringBufferVariant::Correct, StringBufferVariant::Buggy);
        let pool = BufferPool::new(SB_BUFFERS, v, log.clone());
        let seeder = pool.handle();
        for id in 0..SB_BUFFERS as i64 {
            seeder.append(id, "0123456789");
        }
        drive_one(cfg, &pool, BufferPool::handle, buffer_op, None::<fn()>);
    }

    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers(
            kind,
            || StringBufferSpec::new(SB_BUFFERS),
            Some(|spec| Checker::view(spec, StringBufferReplayer::with_buffers(SB_BUFFERS))),
        )
    }

    /// §8 multi-object mode: `objects` independent buffer pools, each
    /// seeded and logging under its own [`ObjectId`]; every call picks a
    /// pool from the workload stream.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(StringBufferVariant::Correct, StringBufferVariant::Buggy);
        let pools: Vec<BufferPool> = (0..objects.max(1))
            .map(|i| BufferPool::new(SB_BUFFERS, v, log.with_object(ObjectId(i))))
            .collect();
        for pool in &pools {
            let seeder = pool.handle();
            for id in 0..SB_BUFFERS as i64 {
                seeder.append(id, "0123456789");
            }
        }
        drive_each(cfg, &pools, BufferPool::handle, buffer_op, None::<fn()>);
        true
    }
}

// ---------------------------------------------------------------------
// BLinkTree — "allowing duplicated data nodes"
// ---------------------------------------------------------------------

/// Workload call number `i` against a B-link tree.
fn blink_op(h: &BLinkTreeHandle, wl: &mut ThreadWorkload, i: usize) {
    let op = wl.next_op(&[5, 2, 3]);
    let k = wl.next_key();
    match op {
        0 => h.insert(k, i as i64),
        1 => {
            h.delete(k);
        }
        _ => {
            h.lookup(k);
        }
    }
}

/// The B-link tree with the duplicate-data-node bug.
#[derive(Debug)]
pub struct BLinkTreeScenario;

impl Scenario for BLinkTreeScenario {
    fn name(&self) -> &'static str {
        "BLinkTree"
    }

    fn bug(&self) -> &'static str {
        "Allowing duplicated data nodes"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(BLinkVariant::Correct, BLinkVariant::DuplicateDataNodes);
        let tree = BLinkTree::new(v, log.clone());
        let task = cfg.internal_task.then(|| {
            let h = tree.handle();
            move || h.compress()
        });
        drive_one(cfg, &tree, BLinkTree::handle, blink_op, task);
    }

    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers(
            kind,
            BLinkSpec::new,
            Some(|spec| Checker::view(spec, BLinkReplayer::new())),
        )
    }

    /// §8 multi-object mode: `objects` independent trees, each logging
    /// under its own [`ObjectId`]; every call picks a tree from the
    /// workload stream. The compressor services the trees in rotation.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(BLinkVariant::Correct, BLinkVariant::DuplicateDataNodes);
        let trees: Vec<BLinkTree> = (0..objects.max(1))
            .map(|i| BLinkTree::new(v, log.with_object(ObjectId(i))))
            .collect();
        let task = cfg.internal_task.then(|| {
            let handles: Vec<_> = trees.iter().map(|t| t.handle()).collect();
            let mut next = 0usize;
            move || {
                handles[next % handles.len()].compress();
                next += 1;
            }
        });
        drive_each(cfg, &trees, BLinkTree::handle, blink_op, task);
        true
    }
}

// ---------------------------------------------------------------------
// Cache — "writing an unprotected dirty cache entry"
// ---------------------------------------------------------------------

const CACHE_HANDLES: i64 = 6;
const CACHE_BUF: usize = 64;

/// Workload call number `i` against a Boxwood cache.
fn cache_op(h: &BoxCacheHandle, wl: &mut ThreadWorkload, i: usize) {
    let op = wl.next_op(&[6, 3, 1]);
    let handle = wl.next_int(CACHE_HANDLES);
    match op {
        0 => h.write(handle, vec![(i % 251) as u8; CACHE_BUF]),
        1 => {
            h.read(handle);
        }
        _ => h.revoke(handle),
    }
}

/// The Boxwood cache with the §7.2.2 bug.
#[derive(Debug)]
pub struct CacheScenario;

impl Scenario for CacheScenario {
    fn name(&self) -> &'static str {
        "Cache"
    }

    fn bug(&self) -> &'static str {
        "Writing an unprotected dirty cache entry"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(CacheVariant::Correct, CacheVariant::Buggy);
        let cache = BoxCache::new(ChunkManager::new(), v, log.clone());
        // The flusher plays the internal-task role; without it the bug
        // cannot manifest, so it always runs.
        let flusher = {
            let h = cache.handle();
            move || h.flush()
        };
        drive_one(cfg, &cache, BoxCache::handle, cache_op, Some(flusher));
    }

    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers(
            kind,
            StoreSpec::new,
            Some(|spec| {
                Checker::view(spec, CacheReplayer::new())
                    .with_invariant(clean_matches_chunk())
                    .with_invariant(entry_in_exactly_one_list())
            }),
        )
    }

    /// §8 multi-object mode: one cache (over its own chunk group) per
    /// object; each call picks a cache from the workload stream. The
    /// flusher services every cache in rotation.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(CacheVariant::Correct, CacheVariant::Buggy);
        let caches: Vec<BoxCache> = (0..objects.max(1))
            .map(|i| BoxCache::new(ChunkManager::new(), v, log.with_object(ObjectId(i))))
            .collect();
        let flusher = {
            let handles: Vec<_> = caches.iter().map(|c| c.handle()).collect();
            let mut next = 0usize;
            move || {
                handles[next % handles.len()].flush();
                next += 1;
            }
        };
        drive_each(cfg, &caches, BoxCache::handle, cache_op, Some(flusher));
        true
    }
}

// ---------------------------------------------------------------------
// Lock-free family — Treiber stack & Michael–Scott queue
// ---------------------------------------------------------------------

const LF_CAPACITY: usize = 64;

/// Parks a victim `Pop` inside its ABA window and recycles the node it
/// read underneath it: pop both elements, push two fresh values — the
/// old top slot comes back as the new top, the victim's index-only
/// compare succeeds against it, and its stale commit is one the LIFO
/// specification rejects. Runs before the workload threads start, so
/// the buggy variant's first violation lands at a fixed log position
/// regardless of the workload seed.
fn aba_prologue(stack: &TreiberStack) {
    let h = stack.handle();
    h.push(1);
    h.push(2);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let release = Arc::new(std::sync::Barrier::new(2));
    {
        let gate = Arc::clone(&gate);
        let release = Arc::clone(&release);
        stack.arm_pop_hook(Box::new(move || {
            gate.wait();
            release.wait();
        }));
    }
    let victim = {
        let h = stack.handle();
        std::thread::spawn(move || h.pop())
    };
    gate.wait();
    h.pop();
    h.pop();
    h.push(7);
    h.push(8);
    release.wait();
    victim.join().expect("victim pop thread");
}

/// One workload call against a Treiber stack.
fn stack_op(h: &TreiberStackHandle, wl: &mut ThreadWorkload, _i: usize) {
    match wl.next_op(&[4, 3, 3]) {
        0 => {
            h.push(wl.next_key());
        }
        1 => {
            h.pop();
        }
        _ => {
            h.peek();
        }
    }
}

/// The Treiber stack with the seeded ABA bug.
#[derive(Debug)]
pub struct TreiberStackScenario;

impl Scenario for TreiberStackScenario {
    fn name(&self) -> &'static str {
        "Treiber-Stack"
    }

    fn bug(&self) -> &'static str {
        "ABA head CAS in Pop (untagged)"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(StackVariant::Correct, StackVariant::AbaPop);
        let stack = TreiberStack::new(v, LF_CAPACITY, log.clone());
        if variant == Variant::Buggy {
            aba_prologue(&stack);
        }
        drive_one(cfg, &stack, TreiberStack::handle, stack_op, None::<fn()>);
    }

    /// `Io` and `Lin` only: the stack logs no shared-variable writes, so
    /// there is nothing for a view replayer to replay.
    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers::<_, NoopReplayer>(kind, StackSpec::new, None)
    }

    /// §8 multi-object mode: one stack per object; the buggy prologue
    /// runs on object 0 only, so exactly one shard carries the seeded
    /// violation.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(StackVariant::Correct, StackVariant::AbaPop);
        let stacks: Vec<TreiberStack> = (0..objects.max(1))
            .map(|i| TreiberStack::new(v, LF_CAPACITY, log.with_object(ObjectId(i))))
            .collect();
        if variant == Variant::Buggy {
            aba_prologue(&stacks[0]);
        }
        drive_each(cfg, &stacks, TreiberStack::handle, stack_op, None::<fn()>);
        true
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::Lin => Box::new(LinExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

/// Parks a victim `Enqueue` after its premature tail swing (and commit)
/// but before the predecessor link, enqueues behind it, and observes the
/// unreachable front: the dequeue commits an "empty" result while the
/// specification says the queue holds two elements. Runs before the
/// workload threads start, so the buggy variant's first violation lands
/// at a fixed log position regardless of the workload seed.
fn tail_swing_prologue(queue: &MsQueue) {
    let h = queue.handle();
    let gate = Arc::new(std::sync::Barrier::new(2));
    let release = Arc::new(std::sync::Barrier::new(2));
    {
        let gate = Arc::clone(&gate);
        let release = Arc::clone(&release);
        queue.arm_enqueue_hook(Box::new(move || {
            gate.wait();
            release.wait();
        }));
    }
    let victim = {
        let h = queue.handle();
        std::thread::spawn(move || h.enqueue(5))
    };
    gate.wait();
    h.enqueue(6);
    h.dequeue();
    release.wait();
    victim.join().expect("victim enqueue thread");
}

/// One workload call against a Michael–Scott queue.
fn queue_op(h: &MsQueueHandle, wl: &mut ThreadWorkload, _i: usize) {
    match wl.next_op(&[4, 3, 3]) {
        0 => {
            h.enqueue(wl.next_key());
        }
        1 => {
            h.dequeue();
        }
        _ => {
            h.front();
        }
    }
}

/// The Michael–Scott queue with the seeded tail-swing bug.
#[derive(Debug)]
pub struct MsQueueScenario;

impl Scenario for MsQueueScenario {
    fn name(&self) -> &'static str {
        "MS-Queue"
    }

    fn bug(&self) -> &'static str {
        "Non-atomic tail swing in Enqueue"
    }

    fn run(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant) {
        let v = variant.pick(QueueVariant::Correct, QueueVariant::EarlyTailSwing);
        let queue = MsQueue::new(v, LF_CAPACITY, log.clone());
        if variant == Variant::Buggy {
            tail_swing_prologue(&queue);
        }
        drive_one(cfg, &queue, MsQueue::handle, queue_op, None::<fn()>);
    }

    /// `Io` and `Lin` only: the queue logs no shared-variable writes, so
    /// there is nothing for a view replayer to replay.
    fn checker(&self, kind: CheckKind) -> Option<CheckerFactory> {
        checkers::<_, NoopReplayer>(kind, QueueSpec::new, None)
    }

    /// §8 multi-object mode: one queue per object; the buggy prologue
    /// runs on object 0 only, so exactly one shard carries the seeded
    /// violation.
    fn run_multi(&self, cfg: &WorkloadConfig, log: &EventLog, variant: Variant, objects: u32) -> bool {
        let v = variant.pick(QueueVariant::Correct, QueueVariant::EarlyTailSwing);
        let queues: Vec<MsQueue> = (0..objects.max(1))
            .map(|i| MsQueue::new(v, LF_CAPACITY, log.with_object(ObjectId(i))))
            .collect();
        if variant == Variant::Buggy {
            tail_swing_prologue(&queues[0]);
        }
        drive_each(cfg, &queues, MsQueue::handle, queue_op, None::<fn()>);
        true
    }

    fn minimizer(&self, _kind: CheckKind) -> Box<dyn Minimizer> {
        Box::new(DdminMinimizer::focused())
    }

    fn explainer(&self, kind: CheckKind) -> Box<dyn Explainer> {
        match kind {
            CheckKind::Lin => Box::new(LinExplainer),
            _ => Box::new(BasicExplainer),
        }
    }
}

//! # vyrd — runtime refinement-violation detection
//!
//! Facade crate for the Rust reproduction of *"VYRD: VerifYing Concurrent
//! Programs by Runtime Refinement-Violation Detection"* (Elmas, Tasiran,
//! Qadeer — PLDI 2005). It re-exports the whole workspace:
//!
//! * [`core`] — the checker engine: event log, codec, [`core::spec::Spec`]
//!   trait, I/O- and view-refinement checkers, verifier pool (one worker
//!   is the online verification thread);
//! * [`multiset`] — the paper's running example (§2): array / vector / BST
//!   multisets with their injected bugs;
//! * [`javalib`] — the `java.util.Vector` / `StringBuffer` benchmarks;
//! * [`storage`] — the Boxwood ChunkManager + Cache stack (Fig. 8);
//! * [`blinktree`] — the Boxwood B-link tree (Fig. 9);
//! * [`lockfree`] — the atomics-based family (Treiber stack,
//!   Michael–Scott queue) whose commit points are successful CASes,
//!   exercised by the linearizability checking mode (`Checker::lin`);
//! * [`harness`] — the §7.1 workload harness and the Tables 1–3 drivers;
//! * [`rt`] — the in-tree, `std`-only concurrency & measurement substrate
//!   (MPSC channel, poison-free locks, seedable PRNG, benchmark runner)
//!   that keeps the whole workspace dependency-free.
//!
//! See the `examples/` directory for runnable walkthroughs:
//!
//! * `quickstart` — instrument, log, and check the multiset end to end;
//! * `multiset_violation` — the Fig. 5/6 buggy `FindSlot` detection;
//! * `boxwood_cache` — the real §7.2.2 cache bug, caught by invariant (i);
//! * `blinktree_debugging` — the B-link tree under load with compression;
//! * `atomized_spec` — using the atomized implementation as the
//!   specification (§4.4);
//! * `online_verification` — the live verification thread (§4.2)
//!   catching the BST lost-insert bug as it happens.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vyrd_blinktree as blinktree;
pub use vyrd_core as core;
pub use vyrd_harness as harness;
pub use vyrd_javalib as javalib;
pub use vyrd_lockfree as lockfree;
pub use vyrd_multiset as multiset;
pub use vyrd_rt as rt;
pub use vyrd_storage as storage;

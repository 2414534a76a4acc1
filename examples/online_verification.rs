//! Online checking (§4.2): the verification thread runs *while* the
//! program executes, consuming the log through a channel, and flags the
//! violation as soon as the offending entries arrive — no post-mortem
//! pass needed. The thread is a one-worker verifier pool, which supplies
//! panic supervision and counts events logged after the log closed.
//!
//! The program side is the BST multiset with the "unlocking parent
//! before insertion" bug; workers hammer the same subtree until an insert
//! is lost.
//!
//! Run with: `cargo run --example online_verification`

use vyrd::core::checker::Checker;
use vyrd::core::log::LogMode;
use vyrd::core::pool::VerifierPool;
use vyrd::multiset::{BstMultiset, BstReplayer, BstVariant, MultisetSpec};

fn main() {
    for attempt in 1..=300 {
        let verifier = VerifierPool::spawn(LogMode::View, 1, |_object| {
            Box::new(Checker::view(MultisetSpec::new(), BstReplayer::new())) as _
        });
        let ms = BstMultiset::new(BstVariant::UnlockParentEarly, verifier.log().clone());

        // Seed a shared parent, then race two inserts under it.
        ms.handle().insert(50);
        let mut workers = Vec::new();
        for base in [10i64, 20] {
            let h = ms.handle();
            workers.push(std::thread::spawn(move || {
                for i in 0..8 {
                    h.insert(base + i);
                }
            }));
        }
        for w in workers {
            w.join().expect("worker");
        }

        // The workers are done; close the log and collect the verdict the
        // verifier reached *concurrently* with the run.
        let report = verifier.finish();
        if let Some(violation) = report.violation {
            println!("race manifested on attempt {attempt}");
            println!("online verifier verdict:\n  {violation}");
            println!(
                "\n(the verdict was computed live, on a separate thread, \
                 while the workers were still running — §4.2)"
            );
            return;
        }
    }
    println!("the unlock-parent race did not manifest in 300 attempts — try again");
}

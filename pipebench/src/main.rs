//! Pipeline benchmark for the VYRD reproduction.
//!
//! ```text
//! pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload (see `README.md` in this directory) from
//! the first instrumented call to the merged verdict, repeating rounds
//! with seeds derived from `--seed` for `--seconds`, and checks every
//! verdict. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it interleaves untraced rounds, traced rounds and layer
//! probes on the same seeds and reports the per-layer metrics. The last
//! line of standard output is one JSON object; a readable table goes to
//! standard error. Each run is appended to `out/history.jsonl` and the
//! spans of a traced run's first traced round are written to
//! `out/trace-<workload>.json` (Chrome trace-event format).
//!
//! Exit codes: 0 after a run whose verdicts were all as expected, 1 after
//! a wrong verdict (the result line is still printed) or an I/O failure,
//! 2 for bad arguments.

mod legs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Metric;
use workloads::{mix, Bench, Round, Workload};

/// Times the workload is set up in one run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: pipebench --workload online-view|sharded-lin|continuous-io|offline-check \
                     --seed <u64> --seconds <1-3600> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_dir = out.join(format!("run-{}", std::process::id()));
    let result = run(&args, &out, &run_dir);
    let _ = fs::remove_dir_all(&run_dir);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a verdict was wrong.
fn run(args: &Args, out: &Path, run_dir: &Path) -> io::Result<bool> {
    fs::create_dir_all(run_dir)?;
    let mut setups = Vec::new();
    let mut corpus_programs = Vec::new();
    let mut warmup = Vec::new();
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let b = Bench::setup(args.workload, mix(args.seed, rep as u64), run_dir)?;
        setups.push(t.elapsed().as_secs_f64());
        corpus_programs.extend(b.corpus_programs.iter().map(|d| d.as_secs_f64() * 1e3));
        warmup.extend(b.warmup.iter().cloned());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    let cpu_at_start = report::cpu_times();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut layer_rows = Vec::new();
    let mut spans = Vec::new();
    for i in 0u64.. {
        let seed = mix(args.seed, 1 << 32 | i);
        rounds.push(bench.round(seed, false)?);
        if args.trace {
            trace::set_enabled(true);
            let traced = bench.round(seed, true);
            trace::set_enabled(false);
            let traced = traced?;
            let (round_spans, counts) = trace::take();
            let probes = bench.probes(seed)?;
            layer_rows.push(bench.layers(
                &rounds[rounds.len() - 1],
                &traced,
                &round_spans,
                &counts,
                &probes,
            ));
            // Only the first traced round's timeline is written out: every
            // round's spans already went into its metrics, and a run's worth
            // of pool spans would take a hundred megabytes.
            if spans.is_empty() {
                spans = round_spans;
            }
            traced_rounds.push(traced);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let all_legs = || {
        rounds
            .iter()
            .chain(&traced_rounds)
            .flat_map(|r| &r.legs)
            .chain(&warmup)
    };
    let correct = all_legs().all(|l| !l.wrong());
    let (attempted, failed, failed_share) = stats::failed_share(
        rounds
            .iter()
            .chain(&traced_rounds)
            .flat_map(|r| &r.legs)
            .map(|l| (l.calls, l.clean())),
    );
    let (end_to_end, round_spread) = report::end_to_end(
        args.workload,
        &setups,
        &corpus_programs,
        &rounds,
        failed_share,
    );
    let per_layer = if args.trace {
        report::per_layer(&layer_rows)
    } else {
        Vec::new()
    };

    for leg in all_legs().filter(|l| l.wrong() || !l.clean()) {
        eprintln!(
            "pipebench: {} {:?} leg: verdict {} (expected {}), appended {} checked {}",
            leg.scenario, leg.kind, leg.verdict, leg.expected, leg.log.events, leg.checked.events
        );
    }
    let shown: &[Metric] = if args.trace { &per_layer } else { &end_to_end };
    eprint!("{}", report::table(args.workload.name(), shown));
    if args.trace {
        eprint!("{}", report::breakdown(&per_layer, &end_to_end));
        let reconciled = per_layer
            .iter()
            .find(|m| m.name == "trace.unattributed_share")
            .is_some_and(|m| m.value <= trace::TOLERANCE);
        eprintln!(
            "trace: {} spans of the first traced round written out; self times {} the \
             traced wall within {:.0}%",
            spans.len(),
            if reconciled {
                "reconcile with"
            } else {
                "do NOT reconcile with"
            },
            trace::TOLERANCE * 100.0
        );
        fs::write(
            out.join(format!("trace-{}.json", args.workload.name())),
            trace::chrome_json(&spans),
        )?;
    }

    let stamp = report::Stamp::collect(
        Path::new(env!("CARGO_MANIFEST_DIR")),
        args.seed,
        cpu_at_start,
    );
    let legs: Vec<String> = rounds[0]
        .legs
        .iter()
        .map(|l| {
            format!(
                "{{\"scenario\": \"{}\", \"kind\": \"{:?}\", \"calls\": {}, \"events\": {}}}",
                l.scenario, l.kind, l.calls, l.log.events
            )
        })
        .collect();
    let history = report::history_line(
        &stamp,
        args.workload.name(),
        &legs.join(", "),
        args.trace,
        args.seconds,
        rounds.len() + traced_rounds.len(),
        &end_to_end,
        &per_layer,
        &round_spread,
        (attempted, failed, failed_share),
        correct,
    );
    report::append(&out.join("history.jsonl"), &history)?;
    let reported = if args.trace {
        &per_layer[..]
    } else {
        &end_to_end[..report::END_TO_END.len()]
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, reported)
    );
    Ok(correct)
}

/// Scratch path helper for tests.
#[cfg(test)]
fn scratch(tag: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vyrd_harness::scenario::{CheckKind, Variant};
    use vyrd_harness::scenarios;

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = parse("--workload sharded-lin --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ShardedLin, 7, 10, true)
        );
        assert!(parse("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload online-view --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload online-view --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload online-view --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload online-view --seed 1 --seconds 10").is_err());
    }

    /// The drift guard: legs whose event count depends only on the seed
    /// (I/O and Lin logging records no interleaving-dependent writes) must
    /// repeat it exactly, so a workload change cannot pass as a speed
    /// change.
    #[test]
    fn io_and_lin_legs_repeat_their_event_counts_exactly() {
        let seed = 0x5eed;
        for (workload, name) in [
            (Workload::ShardedLin, "Treiber-Stack"),
            (Workload::ShardedLin, "MS-Queue"),
            (Workload::ContinuousIo, "Multiset-Vector"),
        ] {
            let scenario = scenarios::by_name(name).unwrap();
            let cfg = workload.config(name, seed);
            let dir = scratch(name);
            let run = || match workload {
                Workload::ShardedLin => legs::sharded(
                    scenario.as_ref(),
                    &cfg,
                    CheckKind::Lin,
                    Variant::Correct,
                    false,
                ),
                _ => legs::continuous(
                    scenario.as_ref(),
                    &cfg,
                    CheckKind::Io,
                    Variant::Correct,
                    &dir,
                    false,
                )
                .unwrap(),
            };
            let (a, b) = (run(), run());
            assert!(
                a.clean() && b.clean(),
                "{name}: {} / {}",
                a.verdict,
                b.verdict
            );
            assert_eq!(
                a.log.events, b.log.events,
                "{name}: event count drifted for one seed"
            );
            assert_eq!(
                a.checked.commits_applied, b.checked.commits_applied,
                "{name}"
            );
        }
    }

    #[test]
    fn a_buggy_leg_raises_the_failed_share() {
        let scenario = scenarios::by_name("Treiber-Stack").unwrap();
        for seed in [1, 2] {
            let cfg = Workload::ShardedLin.config("Treiber-Stack", seed);
            let buggy = legs::sharded(
                scenario.as_ref(),
                &cfg,
                CheckKind::Lin,
                Variant::Buggy,
                false,
            );
            let good = legs::sharded(
                scenario.as_ref(),
                &cfg,
                CheckKind::Lin,
                Variant::Correct,
                false,
            );
            assert!(
                !buggy.wrong(),
                "the seeded bug must be found at seed {seed}"
            );
            let (_, failed, share) =
                stats::failed_share([(good.calls, good.clean()), (buggy.calls, buggy.clean())]);
            assert_eq!(failed, buggy.calls);
            assert!(share > 0.0);
        }
    }

    #[test]
    fn offline_rounds_check_every_trace_in_both_modes() {
        let dir = scratch("offline");
        let bench = Bench::setup(Workload::OfflineCheck, 3, &dir).unwrap();
        let round = bench.round(3, false).unwrap();
        assert_eq!(round.legs.len(), 16 * workloads::CORPUS_RECORDINGS);
        assert!(round.legs.iter().all(|l| l.clean() && !l.wrong()));
        assert_eq!(round.lags.len() as u64, round.checked() / stats::LAG_STRIDE);
    }
}

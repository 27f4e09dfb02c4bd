//! One repetition of one benchmark workload, in its own process.
//!
//! ```text
//! perfbench rep --workload NAME --seed N [--rep I] [--trace] [--workers K] [--bare]
//! perfbench claims
//! perfbench probe compute|barrier
//! ```
//!
//! `rep` builds a fresh cluster or service, runs the workload once,
//! verifies every output and prints one JSON line: host times, simulated
//! totals, per-layer counters and (with `--trace`) the spans recorded
//! around each public call. `--rep` numbers the repetition within a run
//! (`serve-mix` orders its requests by it). `--workers` overrides the workload's worker
//! count and `--bare` drops `blocked-observed`'s instrumentation; the
//! traced run uses both for its comparison legs. `claims` prints the
//! paper-claim scoreboard. `probe` times a fixed loop that uses none of
//! the repository's code three times, to gauge the host's current speed:
//! `compute` a single-thread loop, `barrier` two threads meeting at a pair
//! of barriers per round, as a barrier-per-cycle engine does. `run.py`
//! drives the repetitions and aggregates.

mod out;
mod serve;
mod sim;
mod trace;

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

use mempool_obs::Json;

use crate::out::Out;
use crate::trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    rep: u64,
    trace: bool,
    workers: Option<usize>,
    bare: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        rep: 0,
        trace: false,
        workers: None,
        bare: false,
    };
    let mut seed = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--rep" => parsed.rep = value()?.parse().map_err(|e| format!("--rep: {e}"))?,
            "--workers" => {
                let n: usize = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
                parsed.workers = Some(n.max(1));
            }
            "--trace" => parsed.trace = true,
            "--bare" => parsed.bare = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Probe timings per `perfbench probe` call; `run.py` takes their median.
const PROBE_SAMPLES: usize = 3;

/// Seconds a fixed, program-independent loop takes: xorshift-driven
/// read-modify-writes with a data-dependent branch over a 4 MiB table, a
/// mix of arithmetic, branches and cache misses like the simulator's.
fn probe() -> f64 {
    let mut table = vec![0u32; 1 << 20];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let start = Instant::now();
    for i in 0..30_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & (table.len() - 1);
        let v = table[k];
        table[k] = if v & 1 == 0 {
            v.wrapping_add(x as u32)
        } else {
            v ^ (i as u32)
        };
    }
    black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Rounds of the barrier probe.
const BARRIER_ROUNDS: u32 = 10_000;

/// A few hundred nanoseconds of arithmetic between barriers.
fn spin() -> u64 {
    let mut x = 1u64;
    for i in 0..200 {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    x
}

/// Seconds two threads take for a fixed number of rounds shaped like one
/// cycle of a barrier-per-cycle parallel engine: the main thread works
/// alone, both meet at a start barrier, both work, both meet at a finish
/// barrier. The time is mostly the host's thread wake-up latency.
fn barrier_probe() -> f64 {
    let (start, finish) = (Barrier::new(2), Barrier::new(2));
    let begin = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..BARRIER_ROUNDS {
                start.wait();
                black_box(spin());
                finish.wait();
            }
        });
        for _ in 0..BARRIER_ROUNDS {
            black_box(spin());
            start.wait();
            black_box(spin());
            finish.wait();
        }
    });
    begin.elapsed().as_secs_f64()
}

fn rep(args: &Args) -> Result<Out, String> {
    // The engine profile is process-wide: scope it to this repetition.
    mempool_sim::reset_engine_profile();
    let tr = Tracer::new(args.trace);
    let root = tr.span("bench", "rep");
    match args.workload.as_str() {
        "dense-full" => sim::dense_full(&tr, args.workers.unwrap_or(2)),
        "blocked-observed" => sim::blocked_observed(&tr, args.bare),
        "faulted-2w" => sim::faulted_2w(&tr, args.seed, args.workers.unwrap_or(2)),
        "serve-mix" => serve::serve_mix(&tr, args.seed, args.rep),
        other => Err(format!("unknown workload {other}")),
    }
    .map(|mut out| {
        drop(root);
        if tr.on() {
            out.field("spans", tr.to_json());
        }
        out
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("claims") => {
            let claims = mempool::experiments::Claims::generate();
            println!("{}/{}", claims.holding(), claims.claims().len());
            ExitCode::SUCCESS
        }
        Some("probe") => {
            let probe: fn() -> f64 = match argv.next().as_deref() {
                Some("compute") => probe,
                Some("barrier") => barrier_probe,
                _ => {
                    eprintln!("perfbench: probe needs a kind: compute or barrier");
                    return ExitCode::from(2);
                }
            };
            let times: Vec<String> = (0..PROBE_SAMPLES).map(|_| probe().to_string()).collect();
            println!("{}", times.join(" "));
            ExitCode::SUCCESS
        }
        Some("rep") => {
            let args = match parse(argv) {
                Ok(args) => args,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            let result = rep(&args);
            let mut line = vec![
                ("workload".to_string(), Json::str(&args.workload)),
                ("seed".to_string(), Json::Int(args.seed as i64)),
                ("nproc".to_string(), Json::Int(nproc as i64)),
                ("ok".to_string(), Json::Bool(result.is_ok())),
            ];
            let code = match result {
                Ok(out) => {
                    line.extend(out.into_fields());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    line.push(("error".to_string(), Json::str(e)));
                    ExitCode::FAILURE
                }
            };
            line.push((
                "peak_rss_mb".to_string(),
                peak_rss_mb().map_or(Json::Null, Json::Float),
            ));
            println!("{}", Json::Obj(line));
            code
        }
        _ => {
            eprintln!("usage: perfbench rep --workload NAME --seed N [--rep I] [--trace] [--workers K] [--bare] | perfbench claims | perfbench probe compute|barrier");
            ExitCode::from(2)
        }
    }
}

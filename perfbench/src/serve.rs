//! The `serve-mix` workload: a fresh in-process experiment service driven
//! in a closed loop by two client threads.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use mempool_obs::Json;
use mempool_serve::{
    CacheOutcome, ExperimentKind, ExperimentRequest, ExperimentRunner, Runner, Service,
    ServiceConfig, Status,
};

use crate::out::Out;
use crate::trace::Tracer;

/// Service worker threads and client threads.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Simulator-backed kernel sizes (p >= 96 overflows the 16-core SPM).
const KERNEL_PS: [u32; 5] = [16, 32, 48, 64, 80];
/// Off-chip bandwidths (bytes/cycle) of the Figure 6 sweep requests.
const SWEEP_BANDWIDTHS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// How often each distinct request occurs in one repetition's mix.
const REPEATS: usize = 6;
/// Simulated cycles and stats digest of each kernel size on the service's
/// 16-core cluster; a served kernel artifact must carry exactly these.
const KERNEL_EXPECTED: [(u32, i64, &str); 5] = [
    (16, 1_105, "411ab0fb4ef35e5f"),
    (32, 9_004, "c8a3e2b21cb7d6d9"),
    (48, 26_545, "0cf3b1d53f1702b7"),
    (64, 68_507, "aae0446934efedbd"),
    (80, 120_549, "75fcd20f1c0009f0"),
];

/// The request mix: every kernel size, sweep bandwidth, figure and table
/// `REPEATS` times, so the work is the same for every seed; the seed and
/// the repetition index only order the requests and deal them to the
/// clients. Which client meets which cold request first sets how the cold
/// work lands on the two service workers, so each repetition of a run
/// takes a different order and the run's median averages over orders.
fn mix(seed: u64, rep: u64) -> Vec<Vec<ExperimentRequest>> {
    let mut kinds: Vec<ExperimentKind> = KERNEL_PS
        .iter()
        .map(|&p| ExperimentKind::Kernel { p })
        .chain(
            SWEEP_BANDWIDTHS
                .iter()
                .map(|&bytes_per_cycle| ExperimentKind::Sweep { bytes_per_cycle }),
        )
        .chain([
            ExperimentKind::Table1,
            ExperimentKind::Table2,
            ExperimentKind::Fig6,
            ExperimentKind::Fig7,
            ExperimentKind::Fig8,
            ExperimentKind::Fig9,
        ])
        .flat_map(|kind| std::iter::repeat_n(kind, REPEATS))
        .collect();
    let mut rng = SplitMix64(seed ^ SplitMix64(rep).next());
    for i in (1..kinds.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let mut clients = vec![Vec::new(); CLIENTS];
    for (i, kind) in kinds.into_iter().enumerate() {
        clients[i % CLIENTS].push(ExperimentRequest::new(kind));
    }
    clients
}

/// The benchmark's own input generator (splitmix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One request as the client saw it.
struct Served {
    req: ExperimentRequest,
    latency_s: f64,
    /// Accepted -> Started, when the request waited on a computation.
    queue_wait_s: Option<f64>,
    /// Started -> Done.
    compute_s: Option<f64>,
    result: Result<(CacheOutcome, Json), String>,
}

/// Submits `req` and follows its status stream to the end.
fn serve_one(tr: &Tracer, client: &mempool_serve::Client, req: ExperimentRequest) -> Served {
    let _s = tr.span("serve", "request");
    let sent = Instant::now();
    let (mut accepted, mut started) = (None, None);
    let result = match client.submit(req) {
        Err(e) => Err(e.to_string()),
        Ok(pending) => loop {
            match pending.next_status() {
                Some(Status::Accepted { .. }) => accepted = Some(Instant::now()),
                Some(Status::Started) => started = Some(Instant::now()),
                Some(Status::Done { cache, artifact }) => break Ok((cache, (*artifact).clone())),
                Some(Status::Error(e)) => break Err(e.to_string()),
                None => break Err("status stream ended without a result".to_string()),
            }
        },
    };
    let done = Instant::now();
    let queue_wait_s = match (accepted, started) {
        (Some(a), Some(s)) => {
            tr.interval("serve", "queue_wait", a, s);
            Some(s.duration_since(a).as_secs_f64())
        }
        _ => None,
    };
    let compute_s = started.map(|s| {
        tr.interval("serve", "compute", s, done);
        done.duration_since(s).as_secs_f64()
    });
    Served {
        req,
        latency_s: done.duration_since(sent).as_secs_f64(),
        queue_wait_s,
        compute_s,
        result,
    }
}

/// Checks a served artifact: kernel runs against their known cycles and
/// digest, everything else against the one-shot pipeline.
fn check(
    req: &ExperimentRequest,
    artifact: &Json,
    reference: &mut BTreeMap<u64, Json>,
) -> Result<(), String> {
    if let ExperimentKind::Kernel { p } = req.kind {
        let (_, cycles, digest) = KERNEL_EXPECTED
            .iter()
            .find(|(q, _, _)| *q == p)
            .ok_or_else(|| format!("no expected result for kernel p={p}"))?;
        let got_cycles = artifact.get("cycles").and_then(Json::as_int);
        let got_digest = artifact.get("stats_digest").and_then(Json::as_str);
        if got_cycles != Some(*cycles) || got_digest != Some(*digest) {
            return Err(format!(
                "kernel p={p}: got cycles {got_cycles:?} digest {got_digest:?}, \
                 expected {cycles} {digest}"
            ));
        }
        return Ok(());
    }
    let expected = match reference.entry(req.cache_key()) {
        std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(ExperimentRunner::default().run(req)?)
        }
    };
    if artifact != expected {
        return Err(format!(
            "{}: served artifact differs from the one-shot pipeline",
            req.kind.tag()
        ));
    }
    Ok(())
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `serve-mix`: one fresh service, two closed-loop clients, one mix.
pub fn serve_mix(tr: &Tracer, seed: u64, rep: u64) -> Result<Out, String> {
    let plan = mix(seed, rep);
    let setup = Instant::now();
    let service = {
        let _s = tr.span("serve", "Service::start");
        Service::start(ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("Service::start: {e}"))?
    };
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    let served: Vec<Served> = {
        let _s = tr.span("serve", "drive");
        let parent = tr.current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .iter()
                .map(|requests| {
                    let client = service.client();
                    scope.spawn(move || {
                        let _s = tr.span_under(parent, "serve", "client");
                        requests
                            .iter()
                            .map(|&req| serve_one(tr, &client, req))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let run_s = start.elapsed().as_secs_f64();

    let stats_doc = service.stats_json();
    let stats = service.stats();
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let (computed, coalesced, hits) = (
        counter(&stats.computed),
        counter(&stats.coalesced),
        counter(&stats.cache_hits),
    );
    let (rejected, service_failed) = (counter(&stats.rejected), counter(&stats.failed));
    let hit_rate = stats.cache_hit_rate();
    let utilization = stats_doc
        .get("worker_pool")
        .and_then(Json::as_arr)
        .map_or(0.0, |pool| {
            let u: Vec<f64> = pool
                .iter()
                .filter_map(|w| w.get("utilization").and_then(Json::as_f64))
                .collect();
            u.iter().sum::<f64>() / u.len().max(1) as f64
        });
    {
        let _s = tr.span("serve", "Service::shutdown");
        service.shutdown();
    }

    let mut reference = BTreeMap::new();
    let mut failures = Vec::new();
    let (mut latency_ms, mut cold_ms, mut hit_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue_wait_ms, mut compute_ms) = (Vec::new(), Vec::new());
    {
        let _s = tr.span("serve", "verify");
        for s in &served {
            match &s.result {
                Ok((cache, artifact)) => {
                    if let Err(e) = check(&s.req, artifact, &mut reference) {
                        failures.push(e);
                        continue;
                    }
                    latency_ms.push(s.latency_s * 1e3);
                    match cache {
                        CacheOutcome::Miss => {
                            cold_ms.push(s.latency_s * 1e3);
                            compute_ms.extend(s.compute_s.map(|c| c * 1e3));
                        }
                        CacheOutcome::Hit => hit_us.push(s.latency_s * 1e6),
                        CacheOutcome::Coalesced => {}
                    }
                    queue_wait_ms.extend(s.queue_wait_s.map(|w| w * 1e3));
                }
                Err(e) => failures.push(format!("{}: {e}", s.req.kind.tag())),
            }
        }
    }
    let unique = served
        .iter()
        .map(|s| s.req.cache_key())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    if computed as usize != unique {
        failures.push(format!(
            "computed {computed} results for {unique} unique requests"
        ));
    }

    let mut out = Out::default();
    out.num("setup_s", setup_s);
    out.num("run_s", run_s);
    out.int("requests", served.len() as u64);
    out.int("failed_requests", failures.len() as u64);
    out.field(
        "failures",
        Json::Arr(failures.iter().map(Json::str).collect()),
    );
    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Float(x)).collect());
    out.field("latency_ms", floats(&latency_ms));
    out.field("cold_ms", floats(&cold_ms));
    out.layer("serve.queue_wait_ms", median(queue_wait_ms));
    out.layer("serve.compute_ms", median(compute_ms));
    out.layer("serve.hit_us", median(hit_us));
    out.layer("serve.computed", computed);
    out.layer("serve.coalesced", coalesced);
    out.layer("serve.cache_hits", hits);
    out.layer("serve.hit_rate", hit_rate);
    out.layer("serve.worker_utilization", utilization);
    out.layer("serve.rejected", rejected);
    out.layer("serve.failed", service_failed);
    Ok(out)
}

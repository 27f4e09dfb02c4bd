//! The three simulator workloads: `dense-full`, `blocked-observed` and
//! `faulted-2w`. Each builds a fresh cluster, runs it once, verifies the
//! result and reports host times plus the simulator's public counters.

use std::time::Instant;

use mempool_arch::{ClusterConfig, SpmCapacity};
use mempool_fault::{FaultConfig, FaultEvent, FaultPlan};
use mempool_kernels::matmul::{BlockedMatmul, ComputePhase, MatmulCycles};
use mempool_kernels::Kernel;
use mempool_obs::{chrome_trace_with_counters, Obs};
use mempool_sim::{engine_profile, Cluster, SimParams};

use crate::out::Out;
use crate::trace::Tracer;

/// Simulated cycles of the p=256 compute phase on the 1 MiB paper cluster.
pub const DENSE_FULL_CYCLES: u64 = 452_338;
/// Cycle budget of the full-scale phase (as in the full-scale tests).
const DENSE_BUDGET: u64 = 2_000_000_000;
/// Cycle budget of the 64-core runs.
const BUDGET: u64 = 100_000_000;
/// Fault rate of `faulted-2w`, as in `repro --faults SEED:1e-6`.
const FAULT_RATE: f64 = 1e-6;
/// Timed-fault horizon of `faulted-2w`: the fault-free length of its
/// p=128 phase, so transient flips land inside the run.
const FAULT_HORIZON: u64 = 169_219;
/// Retry latency of the one degraded F2F link of `faulted-2w`.
const LINK_EXTRA_LATENCY: u32 = 16;
/// Forward-progress watchdog threshold of `faulted-2w`.
const WATCHDOG: u64 = 2_000_000;
/// Instrumentation of `blocked-observed`.
const TIMESERIES_WINDOW: u64 = 1024;
const FLIGHT_CAPACITY: usize = 256;
/// `blocked-observed` matrix and tile dimensions.
const BLOCKED_M: u32 = 128;
const BLOCKED_T: u32 = 64;

/// The 64-core cluster (1 group x 16 tiles x 4 cores) of `blocked-observed`
/// and `faulted-2w`, shaped like the `repro perf` probe cluster.
fn cluster64() -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(16)
        .cores_per_tile(4)
        .banks_per_tile(16)
        .bank_words(512)
        .build()
        .expect("the 64-core cluster shape is valid")
}

fn new_cluster(tr: &Tracer, config: ClusterConfig, workers: usize) -> Cluster {
    let _s = tr.span("sim.cluster", "Cluster::new");
    let params = SimParams {
        threads: workers,
        ..SimParams::default()
    };
    Cluster::new(config, params)
}

/// The prologue of `Kernel::run`, one public call per span.
fn load_phase(tr: &Tracer, cluster: &mut Cluster, phase: &ComputePhase) -> Result<(), String> {
    let program = {
        let _s = tr.span("kernels", "ComputePhase::program");
        phase
            .program(cluster)
            .map_err(|e| format!("program: {e}"))?
    };
    {
        let _s = tr.span("kernels", "ComputePhase::setup");
        phase.setup(cluster).map_err(|e| format!("setup: {e}"))?;
    }
    {
        let _s = tr.span("sim.core", "Cluster::load_program");
        cluster.load_program(program);
    }
    let _s = tr.span("sim.icache", "Cluster::preload_icaches");
    cluster.preload_icaches();
    Ok(())
}

fn run(tr: &Tracer, cluster: &mut Cluster, budget: u64) -> Result<(), String> {
    let _s = tr.span("sim.engine", "Cluster::run");
    cluster.run(budget).map_err(|e| format!("run: {e}"))?;
    Ok(())
}

fn verify_phase(tr: &Tracer, cluster: &Cluster, phase: &ComputePhase) -> Result<(), String> {
    let _s = tr.span("kernels", "ComputePhase::verify");
    phase.verify(cluster).map_err(|e| format!("verify: {e}"))
}

/// Host times, simulated totals and the per-layer counters every simulator
/// workload reports.
fn summarize(tr: &Tracer, cluster: &Cluster, setup_s: f64, run_s: f64) -> Out {
    let stats = {
        let _s = tr.span("sim.core", "Cluster::stats");
        cluster.stats()
    };
    let config = cluster.config();
    let mut out = Out::default();
    out.num("setup_s", setup_s);
    out.num("run_s", run_s);
    out.int("sim_cycles", stats.cycles);
    out.int("retired", stats.total_retired());
    out.num("ipc", stats.ipc());
    out.field(
        "digest",
        mempool_obs::Json::str(format!("{:016x}", stats.digest())),
    );
    out.int("effective_workers", cluster.effective_workers() as u64);
    out.field(
        "engine",
        mempool_obs::Json::str(cluster.engine_selection().engine),
    );

    let [local, group, remote] = stats.accesses_by_class();
    out.layer("mem.accesses.local", local as f64);
    out.layer("mem.accesses.group", group as f64);
    out.layer("mem.accesses.remote", remote as f64);
    out.layer("mem.conflicts", stats.total_conflicts() as f64);
    out.layer("mem.max_queue_depth", stats.max_bank_queue_depth() as f64);
    out.layer("core.retired", stats.total_retired() as f64);
    let attribution = stats.attribution(config.cores_per_tile(), config.banks_per_tile());
    for (bucket, cycles) in attribution.cluster.entries() {
        out.layer(&format!("attr.{bucket}"), cycles as f64);
    }

    let profile = engine_profile();
    let busy_ns: u64 = profile.workers.iter().map(|w| w.busy_ns).sum();
    let wait_ns: u64 = profile.workers.iter().map(|w| w.wait_ns).sum();
    out.layer("engine.workers", profile.workers.len() as f64);
    out.layer("engine.quanta", profile.quanta as f64);
    out.layer("engine.busy_s", busy_ns as f64 * 1e-9);
    out.layer("engine.wait_s", wait_ns as f64 * 1e-9);
    out.layer(
        "engine.wait_frac",
        if busy_ns + wait_ns == 0 {
            0.0
        } else {
            wait_ns as f64 / (busy_ns + wait_ns) as f64
        },
    );
    out.layer("engine.boundary_s", profile.boundary_ns as f64 * 1e-9);
    out.layer(
        "engine.mailbox_pushes",
        profile
            .workers
            .iter()
            .map(|w| w.mailbox_pushes)
            .sum::<u64>() as f64,
    );
    out.layer(
        "engine.mailbox_responses",
        profile
            .workers
            .iter()
            .map(|w| w.mailbox_responses)
            .sum::<u64>() as f64,
    );
    out.layer("engine.externals_merged", profile.externals_merged as f64);
    out
}

/// Timings of the set-up calls, read from the spans (zero when untraced).
fn setup_layers(tr: &Tracer, out: &mut Out) {
    out.layer("sim.new_s", tr.total("Cluster::new").0);
    out.layer("sim.preload_s", tr.total("Cluster::preload_icaches").0);
    out.layer("kernels.program_s", tr.total("ComputePhase::program").0);
    out.layer(
        "kernels.setup_s",
        tr.total("ComputePhase::setup").0 + tr.total("BlockedMatmul::setup").0,
    );
    out.layer(
        "kernels.verify_s",
        tr.total("ComputePhase::verify").0 + tr.total("BlockedMatmul::verify").0,
    );
}

/// `dense-full`: the p=256 compute phase on the 256-core paper cluster.
pub fn dense_full(tr: &Tracer, workers: usize) -> Result<Out, String> {
    let phase = ComputePhase::new(256);
    let setup = Instant::now();
    let mut cluster = new_cluster(tr, ClusterConfig::with_capacity(SpmCapacity::MiB1), workers);
    load_phase(tr, &mut cluster, &phase)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    run(tr, &mut cluster, DENSE_BUDGET)?;
    let run_s = start.elapsed().as_secs_f64();
    verify_phase(tr, &cluster, &phase)?;
    if cluster.cycle() != DENSE_FULL_CYCLES {
        return Err(format!(
            "simulated {} cycles, expected {DENSE_FULL_CYCLES}",
            cluster.cycle()
        ));
    }
    let mut out = summarize(tr, &cluster, setup_s, run_s);
    setup_layers(tr, &mut out);
    Ok(out)
}

/// `faulted-2w`: the p=128 phase on the 64-core cluster under the seeded
/// fault plan, with the watchdog armed.
pub fn faulted_2w(tr: &Tracer, seed: u64, workers: usize) -> Result<Out, String> {
    let phase = ComputePhase::new(128);
    let setup = Instant::now();
    let mut cluster = new_cluster(tr, cluster64(), workers);
    {
        let _s = tr.span("fault", "inject");
        let plan = {
            let _s = tr.span("fault", "FaultPlan::generate");
            let config = FaultConfig::new(seed, FAULT_RATE).with_horizon(FAULT_HORIZON);
            fixed_severity(&FaultPlan::generate(&config, cluster.config()))
        };
        let _s = tr.span("fault", "Cluster::inject_faults");
        cluster
            .inject_faults(&plan)
            .map_err(|e| format!("inject_faults: {e}"))?;
        cluster.set_watchdog(WATCHDOG);
    }
    load_phase(tr, &mut cluster, &phase)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    run(tr, &mut cluster, BUDGET)?;
    let run_s = start.elapsed().as_secs_f64();
    verify_phase(tr, &cluster, &phase)?;
    let report = cluster
        .fault_report()
        .ok_or("no fault report after injecting a plan")?;
    if report.links_degraded == 0 || report.retried_accesses == 0 {
        return Err("the fault plan retried no accesses".to_string());
    }
    let mut out = summarize(tr, &cluster, setup_s, run_s);
    setup_layers(tr, &mut out);
    out.layer("fault.inject_s", tr.total("inject").0);
    out.layer("fault.links_degraded", report.links_degraded as f64);
    out.layer("fault.stuck_banks", report.stuck_banks as f64);
    out.layer("fault.transient_flips", report.transient_flips as f64);
    out.layer("fault.remapped_banks", report.remapped.len() as f64);
    out.layer("fault.retried_accesses", report.retried_accesses as f64);
    out.layer("fault.retry_cycles", report.retry_cycles as f64);
    out.layer("fault.ecc_corrected", report.ecc_corrected as f64);
    Ok(out)
}

/// The generated plan with exactly one degraded link (the first one) at a
/// fixed retry latency. The generator draws the link count and each retry
/// latency from the seed, and those alone move the simulated length by
/// half (186k to 279k cycles over five seeds); fixing them keeps every
/// seed's run the same length while the seed still places the link, the
/// stuck banks and the bit flips.
fn fixed_severity(plan: &FaultPlan) -> FaultPlan {
    let mut fixed = FaultPlan::new(plan.seed()).with_dead_link_policy(plan.dead_link_policy());
    let mut link = false;
    for &event in plan.events() {
        match event {
            FaultEvent::LinkDegraded { tile, .. } => {
                if !link {
                    fixed.push(FaultEvent::LinkDegraded {
                        tile,
                        extra_latency: LINK_EXTRA_LATENCY,
                    });
                    link = true;
                }
            }
            other => fixed.push(other),
        }
    }
    fixed
}

/// `blocked-observed`: `BlockedMatmul` m=128 t=64 on the 64-core cluster,
/// one worker, with the full observability stack unless `bare`.
pub fn blocked_observed(tr: &Tracer, bare: bool) -> Result<Out, String> {
    let mm = BlockedMatmul::new(BLOCKED_M, BLOCKED_T);
    let setup = Instant::now();
    let mut cluster = new_cluster(tr, cluster64(), 1);
    let obs = (!bare).then(|| {
        let _s = tr.span("obs", "attach");
        let obs = Obs::new();
        cluster.attach_obs(&obs, "blocked");
        cluster.enable_timeseries(TIMESERIES_WINDOW);
        cluster.enable_flight(FLIGHT_CAPACITY);
        cluster.enable_trace(FLIGHT_CAPACITY);
        obs
    });
    {
        let _s = tr.span("kernels", "BlockedMatmul::setup");
        mm.setup(&mut cluster).map_err(|e| format!("setup: {e}"))?;
    }
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let cycles = if tr.on() {
        stepped_matmul(tr, &mut cluster)?
    } else {
        mm.run(&mut cluster).map_err(|e| format!("run: {e}"))?
    };
    let run_s = start.elapsed().as_secs_f64();
    {
        let _s = tr.span("kernels", "BlockedMatmul::verify");
        mm.verify(&cluster).map_err(|e| format!("verify: {e}"))?;
    }

    let (export_bytes, samples, events) = match &obs {
        Some(obs) => {
            let _s = tr.span("obs", "export");
            let docs = [
                obs.series.to_json(),
                chrome_trace_with_counters(&obs.spans, Some(&obs.series)),
                obs.metrics.snapshot().to_json(),
                obs.flight.to_json(),
            ];
            let bytes: usize = docs.iter().map(|doc| doc.to_pretty().len()).sum();
            (bytes, obs.series.len(), obs.flight.len())
        }
        None => (0, 0, 0),
    };
    if !bare && (export_bytes == 0 || samples == 0) {
        return Err("instrumented run exported no observations".to_string());
    }

    let mut out = summarize(tr, &cluster, setup_s, run_s);
    out.int("memory_cycles", cycles.memory);
    out.int("compute_cycles", cycles.compute);
    setup_layers(tr, &mut out);
    let (dma_s, dma_calls) = tr.total("Cluster::dma_tile");
    out.layer("sim.dma_s", dma_s);
    out.layer("sim.dma_calls", dma_calls as f64);
    out.layer("offchip.memory_cycles", cycles.memory as f64);
    out.layer("offchip.compute_cycles", cycles.compute as f64);
    out.layer("obs.attach_s", tr.total("attach").0);
    out.layer("obs.timeseries_samples", samples as f64);
    out.layer("obs.flight_events", events as f64);
    out.layer(
        "obs.trace_entries",
        cluster.trace().map_or(0, |t| t.len()) as f64,
    );
    out.layer("obs.export_s", tr.total("export").0);
    out.layer("obs.export_bytes", export_bytes as f64);
    Ok(out)
}

/// `BlockedMatmul::run`, step by step through the public cluster calls so
/// DMA and compute get their own spans. The SPM tile layout, external
/// matrix offsets and loop order are those of `BlockedMatmul`; the caller
/// checks the result with `BlockedMatmul::verify`, and the cycle split
/// must equal that of `BlockedMatmul::run`.
fn stepped_matmul(tr: &Tracer, cluster: &mut Cluster) -> Result<MatmulCycles, String> {
    let (m, t) = (BLOCKED_M, BLOCKED_T);
    let phase = ComputePhase::new(t);
    let (a_spm, b_spm, c_spm) = phase.tile_addrs(cluster);
    let ext_b = u64::from(m) * u64::from(m) * 4;
    let ext_c = 2 * ext_b;
    let stride = u64::from(m) * 4;
    let row_bytes = t * 4;
    let tile_off = |base: u64, ti: u32, tj: u32| {
        base + (u64::from(ti) * u64::from(t) * u64::from(m) + u64::from(tj) * u64::from(t)) * 4
    };
    let program = {
        let _s = tr.span("kernels", "ComputePhase::program");
        phase
            .program(cluster)
            .map_err(|e| format!("program: {e}"))?
    };
    {
        let _s = tr.span("sim.core", "Cluster::load_program");
        cluster.load_program(program);
    }
    {
        let _s = tr.span("sim.icache", "Cluster::preload_icaches");
        cluster.preload_icaches();
    }
    let dma = |cluster: &mut Cluster, ext: u64, spm: u32, to_spm: bool| {
        let _s = tr.span("sim.offchip", "Cluster::dma_tile");
        cluster
            .dma_tile(ext, stride, spm, t, row_bytes, to_spm)
            .map_err(|e| format!("dma_tile: {e}"))
    };
    let steps = m / t;
    let mut cycles = MatmulCycles::default();
    for out_i in 0..steps {
        for out_j in 0..steps {
            {
                let _s = tr.span("sim.memory", "Cluster::write_spm_word");
                for w in (0..t * t * 4).step_by(4) {
                    cluster
                        .write_spm_word(c_spm + w, 0)
                        .map_err(|e| format!("write_spm_word: {e}"))?;
                }
            }
            for k in 0..steps {
                cycles.memory += dma(cluster, tile_off(0, out_i, k), a_spm, true)?;
                cycles.memory += dma(cluster, tile_off(ext_b, k, out_j), b_spm, true)?;
                let start = cluster.cycle();
                {
                    let _s = tr.span("sim.core", "Cluster::resume_all");
                    cluster
                        .resume_all(0)
                        .map_err(|e| format!("resume_all: {e}"))?;
                }
                run(tr, cluster, u64::MAX / 2)?;
                cycles.compute += cluster.cycle() - start;
            }
            cycles.memory += dma(cluster, tile_off(ext_c, out_i, out_j), c_spm, false)?;
        }
    }
    Ok(cycles)
}

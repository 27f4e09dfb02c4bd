//! Cross-engine equivalence: a run at any thread count must be
//! **bit-identical** to the sequential step loop.
//!
//! `SimParams::threads` is a pure host-side knob — it chooses between
//! the sequential step loop and the quantum engine (tile shards on host
//! threads), and how many threads the latter uses, and nothing else.
//! Fault-plan runs stay on the step loop at any thread count. These
//! tests pin that contract: every kernel in the characterization zoo, a
//! seed-42 fault-injected degraded run, the sampled time series, the
//! cycle-attribution report, the pinned benchmark summary, and even the
//! exact `SimError` raised by a watchdog-detected deadlock must not
//! change with the thread count.
//!
//! The fault legs (the seed-42 run and the black-hole deadlock) take the
//! step loop at every thread count, so comparing them across thread
//! counts alone would compare that loop with itself. They are also
//! pinned to recorded constants (cycles, digest and artifact hashes; the
//! stall length and stop clock), so a change to the step loop itself
//! that moves them fails here.

use mempool_arch::{ClusterConfig, TileId};
use mempool_fault::{DeadLinkPolicy, FaultConfig, FaultEvent, FaultPlan};
use mempool_isa::Program;
use mempool_kernels::axpy::Axpy;
use mempool_kernels::dotprod::DotProduct;
use mempool_kernels::matmul::ComputePhase;
use mempool_kernels::transpose::Transpose;
use mempool_kernels::Kernel;
use mempool_obs::{chrome_trace_with_counters, Json, Obs};
use mempool_sim::{Cluster, ClusterStats, SimError, SimParams};

/// Thread counts exercised against the sequential reference. Eight
/// threads oversubscribes the four-tile clusters below (the engine clamps
/// to one thread per tile), which is itself worth covering.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The pinned fault seed, matching the committed baseline scenario.
const FAULT_SEED: u64 = 42;

/// The seed-42 degraded run as `(cycles, digest, FNV-1a of the flight,
/// trace, time-series and fault-report strings)`, recorded before the
/// step engine applied side effects in place.
const SEED42_PINNED: (u64, u64, u64, u64, u64, u64) = (
    31_413,
    0xaa8d_5c36_b147_d302,
    0x3cbd_c594_4dbc_a3de,
    0x8271_01ce_bef5_0b60,
    0x91b0_44ca_d9ee_0c41,
    0x9d8f_aa27_e374_f0f4,
);

/// The black-hole deadlock as `(stalled_for, clock at the error)`,
/// recorded with [`SEED42_PINNED`].
const DEADLOCK_PINNED: (u64, u64) = (64, 67);

/// 64-bit FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn zoo_config() -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(16)
        .bank_words(256)
        .build()
        .unwrap()
}

fn params(threads: usize) -> SimParams {
    SimParams {
        threads,
        ..SimParams::default()
    }
}

/// Everything one run observes, in directly comparable form. The string
/// fields are the *serialized artifacts* (what `repro --artifacts` writes
/// as timeseries.json, trace.json, and the flight events), so equality
/// here is the byte-identity the instrumented CI diff relies on.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    stats: ClusterStats,
    digest: u64,
    attribution: String,
    timeseries: String,
    trace: String,
    flight: String,
    fault_report: Option<String>,
}

/// Runs `kernel` once at the given thread count, with optional fault
/// injection, and captures every comparable output — the full
/// observability stack is on (spans, metrics, time series, flight ring,
/// instruction trace), so clean multi-thread legs exercise the quantum
/// engine's shard-local observation lanes.
fn observe(
    kernel: &dyn Kernel,
    threads: usize,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
) -> Observed {
    let cfg = zoo_config();
    let obs = Obs::new();
    let mut cluster = Cluster::new(cfg.clone(), params(threads));
    cluster.attach_obs(&obs, "equivalence");
    cluster.enable_timeseries(256);
    cluster.enable_flight(128);
    cluster.enable_trace(128);
    if let Some(plan) = plan {
        cluster.inject_faults(plan).unwrap();
    }
    if let Some(threshold) = watchdog {
        cluster.set_watchdog(threshold);
    }
    let cycles = kernel
        .run(&mut cluster, 10_000_000)
        .unwrap_or_else(|e| panic!("{} at {threads} threads: {e}", kernel.name()));
    let stats = cluster.stats();
    let attribution = stats
        .attribution(cfg.cores_per_tile(), cfg.banks_per_tile())
        .to_json()
        .to_pretty();
    let fault_report = cluster.fault_report().map(|r| r.to_json().to_pretty());
    // Close still-open spans so the exported trace is balanced.
    cluster.detach_obs();
    Observed {
        cycles,
        digest: stats.digest(),
        attribution,
        timeseries: obs.series.to_json().to_pretty(),
        trace: chrome_trace_with_counters(&obs.spans, Some(&obs.series)).to_pretty(),
        flight: obs.flight.to_json().to_pretty(),
        fault_report,
        stats,
    }
}

fn zoo() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Axpy::new(1024, 3)),
        Box::new(DotProduct::new(1024)),
        Box::new(ComputePhase::new(32)),
        Box::new(Transpose::new(64)),
    ]
}

#[test]
fn every_zoo_kernel_is_bit_identical_at_every_thread_count() {
    for kernel in zoo() {
        let reference = observe(kernel.as_ref(), 1, None, None);
        assert!(reference.cycles > 0, "{}", kernel.name());
        for threads in THREAD_COUNTS {
            let candidate = observe(kernel.as_ref(), threads, None, None);
            assert_eq!(
                reference,
                candidate,
                "{} diverged at {threads} threads",
                kernel.name()
            );
        }
    }
}

#[test]
fn seed42_fault_injected_run_is_bit_identical_at_every_thread_count() {
    // A rate high enough that retries, ECC corrections, and link
    // degradation all actually fire on this small cluster.
    let fault_cfg = FaultConfig::new(FAULT_SEED, 1e-4).with_horizon(50_000);
    let plan = FaultPlan::generate(&fault_cfg, &zoo_config());
    let kernel = ComputePhase::new(32);
    let reference = observe(&kernel, 1, Some(&plan), Some(2_000_000));
    let report = reference
        .fault_report
        .as_deref()
        .expect("a fault-injected run carries a report");
    assert!(
        report.contains("\"injected\""),
        "report should summarize injections: {report}"
    );
    // Every thread count takes the step loop here, so comparing legs
    // alone would only compare that loop with itself: pin the run to
    // constants recorded before the step engine applied side effects in
    // place.
    let pinned = (
        reference.cycles,
        reference.digest,
        fnv1a(&reference.flight),
        fnv1a(&reference.trace),
        fnv1a(&reference.timeseries),
        fnv1a(report),
    );
    assert_eq!(pinned, SEED42_PINNED, "the degraded run moved");
    for threads in THREAD_COUNTS {
        let candidate = observe(&kernel, threads, Some(&plan), Some(2_000_000));
        assert_eq!(
            reference, candidate,
            "degraded run diverged at {threads} threads"
        );
    }
}

#[test]
fn watchdog_deadlock_raises_the_identical_error_at_every_thread_count() {
    // Core 0 waits forever on a load swallowed by a black-holing dead
    // link; the watchdog must fire on the same cycle with the same
    // per-core diagnostics regardless of engine.
    let run_once = |threads: usize| -> (SimError, u64) {
        let cfg = zoo_config();
        let remote = {
            let probe = Cluster::new(cfg.clone(), params(1));
            probe.storage().map().seq_addr(TileId(1), 0)
        };
        let mut cluster = Cluster::new(cfg, params(threads));
        let mut plan = FaultPlan::new(5).with_dead_link_policy(DeadLinkPolicy::BlackHole);
        plan.push(FaultEvent::LinkDead { tile: TileId(1) });
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(64);
        cluster.load_program(
            Program::assemble(&format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    li   t0, {remote}
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                done:
                    wfi
                "#
            ))
            .unwrap(),
        );
        cluster.preload_icaches();
        let err = cluster.run(100_000).unwrap_err();
        (err, cluster.cycle())
    };
    let reference = run_once(1);
    let SimError::Deadlock {
        stalled_for,
        diagnostics,
    } = &reference.0
    else {
        panic!("expected a deadlock, got {}", reference.0);
    };
    assert_eq!(diagnostics.len(), 16);
    assert_eq!(diagnostics[0].condition(), "waiting-on-memory");
    // Pinned like the seed-42 run: every leg takes the step loop.
    assert_eq!(
        (*stalled_for, reference.1),
        DEADLOCK_PINNED,
        "the deadlock moved"
    );
    for threads in THREAD_COUNTS {
        assert_eq!(
            reference,
            run_once(threads),
            "deadlock error diverged at {threads} threads"
        );
    }
}

/// Removes the `perf` section (live wall-clock throughput, never
/// identical between two runs) from a benchmark summary.
fn strip_perf(doc: &Json) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(key, _)| key != "perf")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn bench_summary_is_bit_identical_across_engines() {
    // `bench_summary()` builds its clusters through `SimParams::default`,
    // which reads the process-wide default thread count — the same path
    // `repro --threads N` uses. Every other test in this binary sets
    // `SimParams::threads` explicitly, so flipping the global here is
    // safe even under the parallel test runner.
    mempool_sim::set_default_threads(1);
    let sequential = strip_perf(&mempool_bench::bench_summary()).to_pretty();
    mempool_sim::set_default_threads(4);
    let parallel = strip_perf(&mempool_bench::bench_summary()).to_pretty();
    mempool_sim::set_default_threads(1);
    assert_eq!(
        sequential, parallel,
        "the pinned summary must not depend on the engine"
    );
}

// ---------------------------------------------------------------------
// Quantum-engine equivalence: *bare* runs (no obs/faults/trace) dispatch
// to the arena-backed quantum engine whenever more than one effective
// worker is available. Its contract is proven against the sequential
// step-loop reference: same
// cycles, same stats digest, same errors — at any worker count, through
// timeouts, and with cross-tile, contended-AMO, and off-chip traffic in
// flight at quantum boundaries. `force_oversubscribe` makes the runs
// spawn real worker threads even on single-CPU CI hosts (the engine
// otherwise clamps workers to the host's parallelism).
// ---------------------------------------------------------------------

use mempool_isa::instr::{AluOp, AmoOp, BranchOp, Instr, LoadOp, StoreOp, CSR_MHARTID};
use mempool_isa::Reg;

/// Worker counts for the quantum runs: an even tile split, an uneven
/// split, and one worker per tile.
const QUANTUM_WORKERS: [usize; 3] = [2, 3, 8];

fn quantum_config() -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(16)
        .cores_per_tile(2)
        .banks_per_tile(4)
        .bank_words(64)
        .build()
        .unwrap()
}

/// Every core: contended AMO on a shared word, a hart-spread load/store
/// pair striding across tiles through the interleaved region, optionally
/// an off-chip load+store, a counted loop, then halt.
fn quantum_traffic(trips: u32, external: bool) -> Program {
    let mut body = vec![
        // r1 = hartid * 4 (word stride), r2 = external base + r1.
        Instr::Csrrs {
            rd: Reg::new(1),
            csr: CSR_MHARTID,
            rs1: Reg::ZERO,
        },
        Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::new(1),
            rs1: Reg::new(1),
            imm: 2,
        },
        Instr::Lui {
            rd: Reg::new(2),
            imm: 0x8000_0000,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::new(2),
            rs1: Reg::new(2),
            rs2: Reg::new(1),
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::ZERO,
            imm: trips as i32,
        },
        // Loop body.
        Instr::Amo {
            op: AmoOp::Add,
            rd: Reg::new(10),
            rs1: Reg::ZERO,
            rs2: Reg::new(31),
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(11),
            rs1: Reg::new(1),
            offset: 64,
        },
        Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::new(11),
            rs1: Reg::new(1),
            offset: 256,
        },
    ];
    if external {
        body.push(Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(12),
            rs1: Reg::new(2),
            offset: 0,
        });
        body.push(Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::new(31),
            rs1: Reg::new(2),
            offset: 4,
        });
    }
    body.extend([
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::new(31),
            imm: -1,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            offset: if external { -24 } else { -16 },
        },
        Instr::Wfi,
    ]);
    Program::new(body)
}

/// A bare cluster on `threads` workers (really spawned, even on a
/// single-CPU host).
fn bare(threads: usize, program: &Program) -> Cluster {
    let mut cluster = Cluster::new(quantum_config(), params(threads));
    cluster.force_oversubscribe();
    cluster.load_program(program.clone());
    cluster.preload_icaches();
    cluster
}

#[test]
fn quantum_engine_matches_the_step_loop_bit_exactly() {
    for external in [false, true] {
        let program = quantum_traffic(40, external);
        // Reference: the sequential step loop (threads = 1 dispatches to
        // it directly).
        let mut reference = bare(1, &program);
        let ref_cycles = reference.run(1_000_000).expect("reference completes");
        let ref_digest = reference.stats().digest();
        for workers in QUANTUM_WORKERS {
            let mut cluster = bare(workers, &program);
            let cycles = cluster.run(1_000_000).expect("quantum run completes");
            assert_eq!(
                cycles, ref_cycles,
                "cycle count must not depend on workers ({workers}, external {external})"
            );
            assert_eq!(
                cluster.stats().digest(),
                ref_digest,
                "stats digest must not depend on workers ({workers}, external {external})"
            );
            assert_eq!(cluster.stats(), reference.stats());
        }
    }
}

#[test]
fn quantum_timeout_lands_on_the_exact_cycle_and_resumes_bit_exactly() {
    let program = quantum_traffic(80, true);
    let mut ref_done = bare(1, &program);
    let final_cycles = ref_done.run(1_000_000).expect("completes");
    let final_digest = ref_done.stats().digest();
    // Budgets chosen to land inside a quantum, not on its boundary.
    for budget in [1, 777] {
        let mut reference = bare(1, &program);
        let ref_err = reference.run(budget).expect_err("budget is too small");
        assert_eq!(ref_err, SimError::Timeout { cycles: budget });
        for workers in QUANTUM_WORKERS {
            let mut cluster = bare(workers, &program);
            let err = cluster.run(budget).expect_err("budget is too small");
            assert_eq!(
                err, ref_err,
                "timeout error must match at {workers} workers"
            );
            assert_eq!(
                cluster.stats().digest(),
                reference.stats().digest(),
                "mid-run state at the deadline must match at {workers} workers"
            );
            // Finishing from the timed-out state stays bit-exact.
            let resumed = cluster.run(1_000_000).expect("resumes to completion");
            assert_eq!(resumed, final_cycles);
            assert_eq!(cluster.stats().digest(), final_digest);
        }
    }
}

#[test]
fn an_unbounded_budget_after_a_timeout_finishes_the_run() {
    // `run(u64::MAX)` once the clock is past 0 must saturate the
    // deadline, not overflow it, on both engines.
    let program = quantum_traffic(40, true);
    let mut unbroken = bare(1, &program);
    let cycles = unbroken.run(1_000_000).expect("completes");
    let digest = unbroken.stats().digest();
    for workers in [1, 2] {
        let mut cluster = bare(workers, &program);
        assert_eq!(
            cluster.run(10).expect_err("budget is too small"),
            SimError::Timeout { cycles: 10 }
        );
        let resumed = cluster
            .run(u64::MAX)
            .unwrap_or_else(|e| panic!("an unbounded budget failed at {workers} workers: {e}"));
        assert_eq!(resumed, cycles, "cycles at {workers} workers");
        assert_eq!(
            cluster.stats().digest(),
            digest,
            "digest at {workers} workers"
        );
    }
}

#[test]
fn quantum_errors_match_the_step_loop() {
    // No Wfi: every core runs off the end of the program, and the engine
    // must report the same PcOutOfRange error at the same cycle with the
    // same stats as the sequential loop.
    let run_off_the_end = Program::new(vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(5),
            rs1: Reg::ZERO,
            imm: 7,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(6),
            rs1: Reg::ZERO,
            offset: 128,
        },
    ]);
    // A decode error mid-run: every core streams SPM loads and stores for
    // 20 trips, but core 11 (the second core of tile 5) issues a
    // misaligned load on its tenth trip while the other tiles keep
    // issuing. The tile kernel's decode-error arm must stop the run on
    // the same cycle with the same error and stats on both engines.
    let decode_error = Program::new(vec![
        Instr::Csrrs {
            rd: Reg::new(1),
            csr: CSR_MHARTID,
            rs1: Reg::ZERO,
        },
        Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::new(1),
            rs1: Reg::new(1),
            imm: 2,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::ZERO,
            imm: 20,
        },
        // r30 = the faulting core's r1 (hartid 11 * 4).
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(30),
            rs1: Reg::ZERO,
            imm: 44,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(29),
            rs1: Reg::ZERO,
            imm: 10,
        },
        // Loop body.
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(11),
            rs1: Reg::new(1),
            offset: 64,
        },
        Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::new(11),
            rs1: Reg::new(1),
            offset: 256,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::new(31),
            imm: -1,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(1),
            rs2: Reg::new(30),
            offset: 12,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(31),
            rs2: Reg::new(29),
            offset: 8,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(12),
            rs1: Reg::ZERO,
            offset: 2,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            offset: -24,
        },
        Instr::Wfi,
    ]);
    for (program, expected) in [
        (run_off_the_end, "PcOutOfRange"),
        (decode_error, "Memory(Misaligned"),
    ] {
        let mut reference = bare(1, &program);
        let ref_err = reference.run(1_000_000).expect_err("runs off the program");
        assert!(
            format!("{ref_err:?}").starts_with(expected),
            "expected a {expected} error, got {ref_err:?}"
        );
        let ref_cycle = reference.cycle();
        for workers in QUANTUM_WORKERS {
            let mut cluster = bare(workers, &program);
            let err = cluster.run(1_000_000).expect_err("runs off the program");
            assert_eq!(err, ref_err, "error must match at {workers} workers");
            assert_eq!(
                cluster.cycle(),
                ref_cycle,
                "the clock must stop on the erroring cycle at {workers} workers"
            );
            assert_eq!(cluster.stats().digest(), reference.stats().digest());
        }
    }
}

#[test]
fn quantum_reports_no_program_like_the_step_loop() {
    let mut sequential = Cluster::new(quantum_config(), params(1));
    let mut quantum = Cluster::new(quantum_config(), params(4));
    quantum.force_oversubscribe();
    assert_eq!(
        sequential.run(1000).expect_err("no program loaded"),
        quantum.run(1000).expect_err("no program loaded"),
    );
}

// ---------------------------------------------------------------------
// Instrumented quantum runs: observability no longer forces the step
// engine. A fully instrumented cluster (spans, metrics, time series,
// flight ring, instruction trace, watchdog) still dispatches to the
// quantum engine, and every serialized artifact is byte-identical to the
// sequential reference — the shard-local observation lanes merge in
// source-tile order at quantum stops.
// ---------------------------------------------------------------------

/// One fully instrumented run on the quantum traffic program, returning
/// the serialized artifacts.
fn observe_instrumented(threads: usize, program: &Program) -> Observed {
    let obs = Obs::new();
    let mut cluster = Cluster::new(quantum_config(), params(threads));
    cluster.force_oversubscribe();
    cluster.attach_obs(&obs, "instrumented");
    cluster.enable_timeseries(64);
    cluster.enable_flight(128);
    cluster.enable_trace(128);
    cluster.set_watchdog(100_000);
    let selection = cluster.engine_selection();
    if threads > 1 {
        assert_eq!(
            selection.engine, "quantum",
            "instrumentation must not force the step engine: {}",
            selection.reason
        );
    } else {
        assert_eq!(selection.engine, "step");
    }
    cluster.load_program(program.clone());
    cluster.preload_icaches();
    let cycles = cluster.run(1_000_000).expect("instrumented run completes");
    let stats = cluster.stats();
    let attribution = stats.attribution(2, 4).to_json().to_pretty();
    cluster.detach_obs();
    Observed {
        cycles,
        digest: stats.digest(),
        attribution,
        timeseries: obs.series.to_json().to_pretty(),
        trace: chrome_trace_with_counters(&obs.spans, Some(&obs.series)).to_pretty(),
        flight: obs.flight.to_json().to_pretty(),
        fault_report: None,
        stats,
    }
}

#[test]
fn instrumented_quantum_runs_produce_byte_identical_artifacts() {
    for external in [false, true] {
        let program = quantum_traffic(40, external);
        let reference = observe_instrumented(1, &program);
        assert!(
            !reference.flight.contains("\"events\": []"),
            "served requests must land in the flight ring"
        );
        assert!(
            reference.timeseries.contains("series"),
            "epoch sampling must produce tracks"
        );
        for workers in QUANTUM_WORKERS {
            let candidate = observe_instrumented(workers, &program);
            assert_eq!(
                reference, candidate,
                "instrumented artifacts diverged at {workers} workers (external {external})"
            );
        }
    }
}

#[test]
fn fault_plan_runs_record_the_step_fallback_with_its_reason() {
    // Fault machinery stays on the per-tick step engine; since PR 10 the
    // downgrade is recorded, not silent.
    let fault_cfg = FaultConfig::new(FAULT_SEED, 1e-4).with_horizon(50_000);
    let plan = FaultPlan::generate(&fault_cfg, &zoo_config());
    let mut cluster = Cluster::new(zoo_config(), params(4));
    cluster.force_oversubscribe();
    cluster.inject_faults(&plan).unwrap();
    let selection = cluster.engine_selection();
    assert_eq!(selection.engine, "step");
    assert!(
        selection.reason.contains("fault plan"),
        "the reason must name the fault plan: {}",
        selection.reason
    );
    let planned = mempool_sim::planned_engine(4, true);
    assert_eq!(planned.engine, "step");
    assert_eq!(mempool_sim::planned_engine(1, false).engine, "step");
}

#[test]
fn watchdog_deadlock_on_the_quantum_engine_is_bit_identical() {
    // Core 0 issues an off-chip load whose response takes far longer than
    // the watchdog threshold, then stalls using the result: a genuine
    // forward-progress deadlock on the quantum path (no fault plan, so
    // the run is quantum-eligible). The flight recorder must trip
    // mid-quantum with the identical watchdog event, error, and stop
    // cycle at every worker count.
    let program = Program::new(vec![
        Instr::Csrrs {
            rd: Reg::new(1),
            csr: CSR_MHARTID,
            rs1: Reg::ZERO,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(1),
            rs2: Reg::ZERO,
            offset: 16,
        },
        Instr::Lui {
            rd: Reg::new(2),
            imm: 0x8000_0000,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(3),
            rs1: Reg::new(2),
            offset: 0,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::new(4),
            rs1: Reg::new(3),
            rs2: Reg::new(3),
        },
        Instr::Wfi,
    ]);
    let run_once = |threads: usize| -> (SimError, u64, String) {
        let obs = Obs::new();
        let slow_offchip = SimParams {
            offchip_latency: 10_000,
            ..params(threads)
        };
        let mut cluster = Cluster::new(quantum_config(), slow_offchip);
        cluster.force_oversubscribe();
        cluster.attach_obs(&obs, "deadlock");
        cluster.enable_timeseries(64);
        cluster.enable_flight(64);
        cluster.enable_trace(64);
        cluster.set_watchdog(100);
        assert_eq!(
            cluster.engine_selection().engine,
            if threads > 1 { "quantum" } else { "step" }
        );
        cluster.load_program(program.clone());
        cluster.preload_icaches();
        let err = cluster.run(100_000).expect_err("the watchdog must fire");
        let cycle = cluster.cycle();
        cluster.detach_obs();
        (err, cycle, obs.flight.to_json().to_pretty())
    };
    let (ref_err, ref_cycle, ref_flight) = run_once(1);
    assert!(
        matches!(ref_err, SimError::Deadlock { .. }),
        "expected a deadlock, got {ref_err}"
    );
    assert!(
        ref_flight.contains("watchdog"),
        "the flight ring must carry the watchdog event: {ref_flight}"
    );
    for workers in QUANTUM_WORKERS {
        let (err, cycle, flight) = run_once(workers);
        assert_eq!(err, ref_err, "deadlock diverged at {workers} workers");
        assert_eq!(cycle, ref_cycle, "stop cycle diverged at {workers} workers");
        assert_eq!(
            flight, ref_flight,
            "flight ring diverged at {workers} workers"
        );
    }
}

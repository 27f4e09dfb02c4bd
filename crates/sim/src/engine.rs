//! The two execution engines and the one tile kernel they share.
//!
//! Every simulated cycle does the same per-tile work: each tile serves
//! its banks (at most one request per bank), delivers its cores' due
//! responses, and issues at most one instruction per core. The issue
//! half is [`local_tile`], a single kernel generic over a [`TileSink`]
//! that receives every side effect beyond the tile's own cores and I$
//! (bank pushes, off-chip accesses, trace entries, link-fault notes,
//! `wfi` span begins, errors). Bank service shares [`pick_access`] and
//! [`access_word`] the same way. Two engines drive that work:
//!
//! * **The step engine** ([`step`], looped by [`Cluster::run`] at one
//!   worker) runs a cycle in order on the calling thread:
//!   1. timed faults are applied, then every bank serves at most one
//!      request (with ECC and spare remap);
//!   2. each tile, in index order, runs the kernel into a [`StepSink`],
//!      which applies every effect in place as the kernel emits it; the
//!      tile's off-chip accesses are resolved right after its kernel
//!      call;
//!   3. the lowest tile's error is reported, then the watchdog, clock,
//!      and time-series sampling advance.
//!
//!   Applying effects in place is exact because the kernel reads nothing
//!   they write: a bank push made at `now` cannot be served before
//!   `now + 1` ([`pick_access`] needs `arrival < now`), and the kernel
//!   reads no bank queue, external storage, trace, fault, or obs state.
//!   It is the only engine that runs fault plans and spare-bank remaps,
//!   at any `--threads`.
//! * **The quantum engine** ([`run_quantum`], multi-worker runs) shards
//!   tiles over workers that run the same kernel into their
//!   [`WorkerLane`]s in per-tick lockstep and meet only at quantum
//!   boundaries (see the section comment below).
//!
//! The step engine's effect order — tile index, then issue order within
//! a tile — is the determinism contract: the quantum engine's mailboxes
//! and boundary merges restore the same order, so both engines are
//! bit-identical at every worker count — same stats, same artifacts,
//! same errors.
//!
//! Observability ([`ClusterObs`]), fault bookkeeping
//! ([`FaultController`]), and tracing are `Rc`-based and never cross a
//! thread boundary: the step engine runs on the calling thread, and the
//! quantum engine touches them only at its boundaries.
//!
//! Error semantics: a core that faults stops issuing for the rest of
//! its *tile's* cycle; other tiles complete the cycle. A tile's off-chip
//! errors precede its issue error, and the lowest tile's error is
//! reported — deterministic at every thread count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mempool_arch::{
    AddressMap, ClusterConfig, GlobalCoreId, LatencyModel, MemoryRegion, TileId, Topology,
};
use mempool_fault::{DeadLinkPolicy, EccOutcome, FaultController, LinkState, TimedFault};
use mempool_isa::exec::{self, Issue, MemAccessKind, MemWidth};
use mempool_isa::Program;

use crate::cluster::{
    latency_split, mem_probe_addr, sign_adjust, Bank, Cluster, ClusterObs, PendingAccess, Response,
    Sampler, SimError,
};
use crate::core::{Core, Stall};
use crate::icache::ICache;
use crate::memory::{decode_region, Storage};
use crate::offchip::OffchipPort;
use crate::params::SimParams;
use crate::trace::{Trace, TraceEntry};

/// An off-chip (external-memory) access the tile kernel issued, resolved
/// once the kernel has released the address map (in issue order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExternalIntent {
    /// Global id of the issuing core.
    pub core: u32,
    /// Byte address of the access.
    pub addr: u32,
    /// The access kind (load/store/AMO with operands).
    pub kind: MemAccessKind,
    /// Access width.
    pub width: MemWidth,
}

/// Where the tile kernel ([`local_tile`]) puts every side effect it does
/// not apply to its own tile. Monomorphized per engine: the step engine
/// applies effects in place ([`StepSink`]); the quantum engine routes
/// them into its worker lane ([`LaneSink`]).
pub(crate) trait TileSink {
    /// A response was delivered or an instruction retired (watchdog
    /// forward progress).
    fn progress(&mut self);
    /// One I$ miss (observability counter).
    fn icache_miss(&mut self);
    /// One retired instruction (only called while tracing).
    fn trace(&mut self, entry: TraceEntry);
    /// Core `core` executed `wfi` at `now` (obs span begin).
    fn halt(&mut self, now: u64, core: u32);
    /// The error that stops `tile` issuing at `now`.
    fn error(&mut self, now: u64, tile: u32, error: SimError);
    /// A request from `tile` for the global bank `bank`.
    fn bank_push(&mut self, tile: u32, bank: usize, access: PendingAccess);
    /// An off-chip access issued from `tile` at `now`.
    fn external(&mut self, now: u64, tile: u32, intent: ExternalIntent);
    /// The health of the F2F link into `tile`. The default — every link
    /// healthy — is for engines that run no fault plans: inlined, it
    /// compiles the kernel's link-fault arms, and with them the three
    /// methods below, out of their build.
    #[inline]
    fn link_state(&self, _tile: TileId) -> LinkState {
        LinkState::Healthy
    }
    /// What happens to an access through a dead link.
    fn dead_link_policy(&self) -> DeadLinkPolicy {
        DeadLinkPolicy::default()
    }
    /// An access retried at `now` through `tile`'s degraded link, costing
    /// `extra` cycles.
    fn retry(&mut self, _now: u64, _tile: TileId, _extra: u32) {}
    /// A request from `core` black-holed at `now` by `tile`'s dead link.
    fn black_hole(&mut self, _now: u64, _tile: TileId, _core: u32) {}
}

/// The step engine's [`TileSink`]: applies each effect in place as the
/// kernel emits it — bank pushes to the bank queues, trace entries to
/// the trace, link-fault notes to the fault controller, I$ misses and
/// `wfi` span begins to the obs handle — and reads link health from the
/// fault controller itself. It keeps only what the kernel's borrows
/// force it to: the tile's off-chip intents (the kernel reads the
/// address map out of the storage they write) and its issue error.
struct StepSink<'a> {
    banks: &'a mut [Bank],
    trace: Option<&'a mut Trace>,
    faults: Option<&'a mut FaultController>,
    obs: Option<&'a ClusterObs>,
    /// The current tile's off-chip intents, in issue order.
    externals: &'a mut Vec<ExternalIntent>,
    /// The error that stopped the current tile issuing.
    error: Option<SimError>,
    /// Whether any core received a response or retired an instruction.
    progress: bool,
}

impl TileSink for StepSink<'_> {
    fn progress(&mut self) {
        self.progress = true;
    }

    fn icache_miss(&mut self) {
        if let Some(hooks) = self.obs {
            hooks.icache_misses.inc();
        }
    }

    fn trace(&mut self, entry: TraceEntry) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.record(entry);
        }
    }

    fn halt(&mut self, now: u64, core: u32) {
        if let Some(hooks) = self.obs {
            hooks
                .obs
                .spans
                .begin(hooks.core_tracks[core as usize], "wfi", now);
        }
    }

    fn error(&mut self, _now: u64, _tile: u32, error: SimError) {
        self.error = Some(error);
    }

    fn bank_push(&mut self, _tile: u32, bank: usize, access: PendingAccess) {
        self.banks[bank].queue.push(access);
    }

    fn external(&mut self, _now: u64, _tile: u32, intent: ExternalIntent) {
        self.externals.push(intent);
    }

    fn link_state(&self, tile: TileId) -> LinkState {
        self.faults
            .as_deref()
            .map_or(LinkState::Healthy, |faults| faults.link_state(tile))
    }

    fn dead_link_policy(&self) -> DeadLinkPolicy {
        self.faults
            .as_deref()
            .map_or_else(DeadLinkPolicy::default, FaultController::dead_link_policy)
    }

    fn retry(&mut self, now: u64, tile: TileId, extra: u32) {
        if let Some(faults) = self.faults.as_deref_mut() {
            faults.record_retry(now, tile, extra as u64);
        }
        if let Some(hooks) = self.obs {
            hooks.fault_retries.inc();
        }
    }

    fn black_hole(&mut self, now: u64, tile: TileId, core: u32) {
        if let Some(faults) = self.faults.as_deref_mut() {
            faults.record_blackhole(now, tile, core);
        }
    }
}

/// Read-only context the tile kernel runs against, in both engines.
#[derive(Debug)]
pub(crate) struct KernelCtx<'a> {
    pub config: &'a ClusterConfig,
    pub topo: &'a Topology,
    pub params: &'a SimParams,
    pub program: &'a Program,
    pub map: &'a AddressMap,
    pub trace_on: bool,
}

/// Advances the cluster by one cycle on the step engine: timed faults,
/// bank service, the tile kernel over every tile in index order with its
/// effects applied in place, then error report, watchdog, clock, and
/// sampling.
pub(crate) fn step(cluster: &mut Cluster) -> Result<(), SimError> {
    apply_due_faults(cluster)?;
    serve_banks(cluster)?;
    if cluster.program.is_empty() {
        return Err(SimError::NoProgram);
    }
    let now = cluster.cycle;
    let Cluster {
        config,
        topo,
        params,
        storage,
        program,
        cores,
        icaches,
        banks,
        responses,
        offchip,
        trace,
        obs,
        faults,
        step_externals,
        ..
    } = &mut *cluster;
    let (config, topo, params, program) = (&*config, &*topo, &*params, &*program);
    let cpt = config.cores_per_tile() as usize;
    let trace_on = trace.is_some();
    let mut sink = StepSink {
        banks,
        trace: trace.as_mut(),
        faults: faults.as_mut(),
        obs: obs.as_ref(),
        externals: step_externals,
        error: None,
        progress: false,
    };
    let mut first_error = None;
    let tiles = cores
        .chunks_mut(cpt)
        .zip(responses.chunks_mut(cpt))
        .zip(icaches.iter_mut());
    for (tile, ((cores, responses), icache)) in tiles.enumerate() {
        let ctx = KernelCtx {
            config,
            topo,
            params,
            program,
            map: storage.map(),
            trace_on,
        };
        local_tile(&ctx, now, tile as u32, cores, icache, responses, &mut sink);
        // The tile's off-chip errors precede its issue error; the lowest
        // tile's error wins, once every tile has completed the cycle.
        let mut tile_error = None;
        for intent in sink.externals.drain(..) {
            let local = intent.core as usize - tile * cpt;
            if let Err(e) = resolve_external(storage, offchip, now, &intent, &mut responses[local])
            {
                tile_error.get_or_insert(e);
            }
        }
        let tile_error = tile_error.or(sink.error.take());
        first_error = first_error.or(tile_error);
    }
    let progress = sink.progress;
    if let Some(err) = first_error {
        return Err(err);
    }
    if let Some(watchdog) = cluster.watchdog.as_mut() {
        if progress {
            watchdog.note_progress(now);
        } else if watchdog.expired(now) {
            let stalled_for = watchdog.stalled_for(now);
            return Err(deadlock(cluster, now, stalled_for));
        }
    }
    cluster.cycle += 1;
    sample_if_due(cluster);
    Ok(())
}

/// Applies timed faults due at the current cycle: bit flips corrupt the
/// stored word (and arm the ECC mask), hangs latch cores up.
fn apply_due_faults(c: &mut Cluster) -> Result<(), SimError> {
    let due = match c.faults.as_mut() {
        Some(faults) => faults.take_due(c.cycle),
        None => return Ok(()),
    };
    for fault in due {
        match fault {
            TimedFault::Flip { loc, mask } => {
                // A flip aimed outside the geometry (or at a remapped
                // word's logical home) still lands: the storage layer
                // resolves through the remap, so the spare takes it.
                if let Ok(word) = c.storage.read_loc(loc) {
                    c.storage.write_loc(loc, word ^ mask)?;
                    if let Some(faults) = c.faults.as_mut() {
                        faults.note_flip(loc, mask);
                    }
                }
            }
            TimedFault::Hang { core } => {
                if let Some(core) = c.cores.get_mut(core as usize) {
                    core.hang();
                }
            }
        }
    }
    Ok(())
}

/// Bank arbitration, shared by both engines: picks the request `bank`
/// serves at `now` — earliest network arrival strictly in the past, FIFO
/// among ties — and books its depth, conflict, and served stats. Returns
/// the access with the conflict cycles it charged.
#[inline]
fn pick_access(bank: &mut Bank, now: u64) -> Option<(PendingAccess, u64)> {
    bank.stats.max_queue_depth = bank.stats.max_queue_depth.max(bank.queue.len() as u64);
    let mut best: Option<usize> = None;
    let mut contenders = 0u64;
    for (i, access) in bank.queue.iter().enumerate() {
        if access.arrival < now {
            contenders += 1;
            if best.is_none_or(|b| access.arrival < bank.queue[b].arrival) {
                best = Some(i);
            }
        }
    }
    let index = best?;
    let conflicts = contenders - 1;
    bank.stats.conflicts += conflicts;
    bank.stats.served += 1;
    Some((bank.queue.swap_remove(index), conflicts))
}

/// The load/store/AMO word update, shared by both engines: applies
/// `access` to `old`, the word it addresses. Returns the word to write
/// back (stores and AMOs only) and the response value.
#[inline]
fn access_word(access: &PendingAccess, old: u32) -> (Option<u32>, u32) {
    let shift = (access.addr & 3) * 8;
    let (write, value) = match access.kind {
        MemAccessKind::Load { width, .. } => match width {
            MemWidth::Byte => (None, (old >> shift) & 0xff),
            MemWidth::Half => (None, (old >> shift) & 0xffff),
            MemWidth::Word => (None, old),
        },
        MemAccessKind::Store { width, value } => {
            let new = match width {
                MemWidth::Byte => (old & !(0xff << shift)) | ((value & 0xff) << shift),
                MemWidth::Half => (old & !(0xffff << shift)) | ((value & 0xffff) << shift),
                MemWidth::Word => value,
            };
            (Some(new), 0)
        }
        MemAccessKind::Amo { op, value, .. } => (Some(op.apply(old, value)), old),
    };
    (write, sign_adjust(access.kind, value))
}

/// The flight-ring name of an access kind.
fn kind_name(kind: MemAccessKind) -> &'static str {
    match kind {
        MemAccessKind::Load { .. } => "load",
        MemAccessKind::Store { .. } => "store",
        MemAccessKind::Amo { .. } => "amo",
    }
}

/// The step engine's bank-service phase: every bank serves at most one
/// request ([`pick_access`]), with the SEC-DED check and scrub, the
/// spare-bank remap (inside [`Storage::read_loc`]), and flight events.
fn serve_banks(c: &mut Cluster) -> Result<(), SimError> {
    let now = c.cycle;
    let flight = c.flight_handle();
    for bank in c.banks.iter_mut() {
        let Some((access, conflicts)) = pick_access(bank, now) else {
            continue;
        };
        if conflicts > 0 {
            if let Some(hooks) = &c.obs {
                hooks.bank_conflicts.add(conflicts);
            }
        }
        if let Some(flight) = &flight {
            flight.record(
                now,
                "mem",
                Some(access.core),
                format!(
                    "{} served at tile {} bank {} word {}",
                    kind_name(access.kind),
                    access.loc.tile.0,
                    access.loc.bank.0,
                    access.loc.word
                ),
            );
        }
        let mut old_word = c.storage.read_loc(access.loc)?;
        // SEC-DED check on every access that observes the stored word
        // (a full-word store overwrites it without reading).
        let reads_word = !matches!(
            access.kind,
            MemAccessKind::Store {
                width: MemWidth::Word,
                ..
            }
        );
        let mut extra_resp = 0u32;
        if reads_word {
            if let Some(faults) = c.faults.as_mut() {
                match faults.ecc_read(now, access.loc, old_word) {
                    EccOutcome::Clean => {}
                    EccOutcome::Corrected { value } => {
                        // Correct the returned word and scrub storage.
                        old_word = value;
                        c.storage.write_loc(access.loc, value)?;
                        extra_resp = c.params.ecc_correction_penalty;
                        let core = &mut c.cores[access.core as usize];
                        if !core.halted() {
                            core.insert_bubble(extra_resp);
                            core.stats.stall_ecc += extra_resp as u64;
                        }
                        if let Some(hooks) = &c.obs {
                            hooks.ecc_corrected.inc();
                        }
                    }
                    EccOutcome::Uncorrectable { mask } => {
                        return Err(SimError::EccUncorrectable {
                            loc: access.loc,
                            mask,
                        });
                    }
                }
            }
        }
        let (write, value) = access_word(&access, old_word);
        if let Some(new) = write {
            c.storage.write_loc(access.loc, new)?;
            // Any write leaves a freshly encoded (error-free) word behind.
            if let Some(faults) = c.faults.as_mut() {
                faults.ecc_clear(access.loc);
            }
        }
        c.responses[access.core as usize].push(Response {
            due: now + (access.resp_latency + extra_resp) as u64,
            reg: access.kind.response_reg(),
            value,
        });
    }
    Ok(())
}

/// The tile kernel, shared by both engines: deliver due responses to one
/// tile's cores, then issue at most one instruction per core, handing
/// every side effect beyond the tile's own cores and I$ to `sink`.
fn local_tile<S: TileSink>(
    ctx: &KernelCtx<'_>,
    now: u64,
    tile: u32,
    cores: &mut [Core],
    icache: &mut ICache,
    responses: &mut [Vec<Response>],
    sink: &mut S,
) {
    // Response delivery (forward progress).
    for (core, responses) in cores.iter_mut().zip(responses.iter_mut()) {
        let mut i = 0;
        while i < responses.len() {
            if responses[i].due <= now {
                let r = responses.swap_remove(i);
                core.complete(r.reg, r.value);
                sink.progress();
            } else {
                i += 1;
            }
        }
    }
    // Issue.
    let tile_id = TileId(tile);
    let base = tile as usize * cores.len();
    // Remote-port arbitration: accesses leaving the tile go through its
    // limited remote request ports (4 in MemPool); a tile whose ports are
    // taken this cycle stalls further remote issues. Purely tile-local
    // state, so each tile tracks its own grants.
    let mut remote_issued = 0u32;
    'issue: for (local, core) in cores.iter_mut().enumerate() {
        let index = base + local;
        let core_id = GlobalCoreId::new(index as u32);
        if core.hung() {
            // Latched up by an injected fault: burns cycles forever.
            core.stats.halted_cycles += 1;
            continue;
        }
        if core.halted() {
            core.stats.halted_cycles += 1;
            continue;
        }
        if core.consume_bubble() {
            continue;
        }
        let pc = core.pc;
        if !icache.access(pc) {
            let penalty = ctx.params.icache_miss_penalty;
            core.insert_bubble(penalty);
            core.stats.stall_icache += penalty as u64;
            core.stats.icache_misses += 1;
            sink.icache_miss();
            continue;
        }
        let Some(instr) = ctx.program.fetch(pc) else {
            sink.error(now, tile, SimError::PcOutOfRange { core: core_id, pc });
            break 'issue;
        };
        match core.check_issue(instr, ctx.params.max_outstanding) {
            Err(Stall::Scoreboard) => {
                core.stats.stall_scoreboard += 1;
                continue;
            }
            Err(Stall::Structural) => {
                core.stats.stall_structural += 1;
                continue;
            }
            Ok(()) => {}
        }
        if let Some(addr) = mem_probe_addr(instr, &core.regs) {
            if let MemoryRegion::Spm(loc) = ctx.map.locate(addr & !3) {
                if loc.tile != tile_id {
                    if remote_issued >= ctx.config.remote_ports_per_tile() {
                        core.stats.stall_structural += 1;
                        continue;
                    }
                    remote_issued += 1;
                }
            }
        }
        core.stats.retired += 1;
        sink.progress();
        if ctx.trace_on {
            sink.trace(TraceEntry {
                cycle: now,
                core: core_id,
                pc,
                instr,
            });
        }
        match exec::issue(instr, pc, &mut core.regs, index as u32) {
            Issue::Next { pc: next } => {
                if next != pc.wrapping_add(4) && ctx.params.taken_branch_penalty > 0 {
                    core.insert_bubble(ctx.params.taken_branch_penalty);
                    core.stats.stall_branch += ctx.params.taken_branch_penalty as u64;
                }
                core.pc = next;
            }
            Issue::Halt => {
                core.halt();
                sink.halt(now, index as u32);
            }
            Issue::Mem { req, next_pc } => {
                core.pc = next_pc;
                let width = match req.kind {
                    MemAccessKind::Load { width, .. } | MemAccessKind::Store { width, .. } => width,
                    MemAccessKind::Amo { .. } => MemWidth::Word,
                };
                let region = match decode_region(ctx.map, req.addr, width) {
                    Ok(region) => region,
                    Err(e) => {
                        sink.error(now, tile, e.into());
                        break 'issue;
                    }
                };
                match region {
                    MemoryRegion::Spm(loc) => {
                        // The destination tile's F2F via carries every
                        // access to that tile's banks on the memory die.
                        let mut extra_req = 0u32;
                        match sink.link_state(loc.tile) {
                            LinkState::Healthy => {}
                            LinkState::Degraded(extra) => {
                                sink.retry(now, loc.tile, extra);
                                core.insert_bubble(extra);
                                core.stats.stall_fault_retry += extra as u64;
                                extra_req = extra;
                            }
                            LinkState::Dead => match sink.dead_link_policy() {
                                DeadLinkPolicy::Error => {
                                    sink.error(now, tile, SimError::LinkDead { tile: loc.tile });
                                    break 'issue;
                                }
                                DeadLinkPolicy::BlackHole => {
                                    // The request vanishes into the open
                                    // via; the scoreboard entry is pinned
                                    // forever.
                                    sink.black_hole(now, loc.tile, index as u32);
                                    core.mark_pending(req.kind.response_reg());
                                    continue;
                                }
                            },
                        }
                        let class = LatencyModel::classify(ctx.config, tile_id, loc.tile);
                        core.stats
                            .record_access(class, ctx.topo.route(tile_id, loc.tile).network);
                        core.mark_pending(req.kind.response_reg());
                        let (req_lat, resp_lat) = latency_split(&ctx.params.latency, class);
                        sink.bank_push(
                            tile,
                            loc.global_bank(ctx.config).index(),
                            PendingAccess {
                                arrival: now + (req_lat + extra_req) as u64,
                                core: index as u32,
                                loc,
                                kind: req.kind,
                                resp_latency: resp_lat,
                                addr: req.addr,
                            },
                        );
                    }
                    MemoryRegion::External(_) => {
                        // Word-granular access over the off-chip port,
                        // serialized (and data-resolved) once the kernel
                        // has released the address map.
                        core.mark_pending(req.kind.response_reg());
                        sink.external(
                            now,
                            tile,
                            ExternalIntent {
                                core: index as u32,
                                addr: req.addr,
                                kind: req.kind,
                                width,
                            },
                        );
                    }
                    MemoryRegion::Unmapped => unreachable!("decode rejects unmapped"),
                }
            }
        }
    }
}

/// Resolves one off-chip access, shared by the step engine (after each
/// tile's kernel call) and the quantum boundary: books the port, moves
/// the data, and queues the response.
fn resolve_external(
    storage: &mut Storage,
    offchip: &mut OffchipPort,
    now: u64,
    intent: &ExternalIntent,
    responses: &mut Vec<Response>,
) -> Result<(), SimError> {
    let done = offchip.schedule(now, intent.width.bytes() as u64);
    let value = match intent.kind {
        MemAccessKind::Load { .. } => storage.read(intent.addr, intent.width)?,
        MemAccessKind::Store { value, .. } => {
            storage.write(intent.addr, intent.width, value)?;
            0
        }
        MemAccessKind::Amo { op, value, .. } => {
            let old = storage.read(intent.addr, MemWidth::Word)?;
            storage.write(intent.addr, MemWidth::Word, op.apply(old, value))?;
            old
        }
    };
    responses.push(Response {
        due: done,
        reg: intent.kind.response_reg(),
        value: sign_adjust(intent.kind, value),
    });
    Ok(())
}

/// The watchdog's expiry at `now`, shared by both engines: records the
/// flight event and builds the deadlock error with per-core diagnostics.
/// The clock stays on `now`.
fn deadlock(cluster: &Cluster, now: u64, stalled_for: u64) -> SimError {
    if let Some(flight) = cluster.flight_handle() {
        flight.record(
            now,
            "watchdog",
            None,
            format!("expired: no forward progress for {stalled_for} cycles"),
        );
    }
    SimError::Deadlock {
        stalled_for,
        diagnostics: cluster.core_diagnostics(),
    }
}

/// Closes the current sampling epoch if one came due at the clock,
/// shared by both engines: pushes one sample per series and re-baselines
/// the counters.
fn sample_if_due(cluster: &mut Cluster) {
    let now = cluster.cycle;
    let Some(sampler) = cluster.sampler.as_ref().filter(|s| now >= s.next_at) else {
        return;
    };
    let inputs = cluster.sample_inputs(now);
    if let Some(hooks) = &cluster.obs {
        push_samples(hooks, sampler, now, &inputs);
    }
    if let Some(sampler) = cluster.sampler.as_mut() {
        sampler.rebaseline(inputs, now);
    }
}

/// Everything the time-series sampler reads at a window boundary, in one
/// snapshot (totals, not deltas — the sampler holds the baselines).
#[derive(Debug, Default)]
pub(crate) struct SampleInputs {
    pub retired_per_tile: Vec<u64>,
    pub local_accesses: u64,
    pub remote_accesses: u64,
    pub conflicts: u64,
    pub offchip_bytes: u64,
    pub spm_touches: u64,
    pub outstanding: u64,
    pub backlog: u64,
    pub peak_bytes_per_cycle: f64,
}

/// Pushes one sample per series for the window ending at `now`, with
/// deltas read against `sampler`'s baselines. Zero-length windows (a
/// flush at the exact epoch start) are dropped rather than clamped — a
/// clamped denominator of 1 would spike every rate.
pub(crate) fn push_samples(hooks: &ClusterObs, sampler: &Sampler, now: u64, inputs: &SampleInputs) {
    if now <= sampler.epoch_start {
        return;
    }
    let series = &hooks.obs.series;
    let elapsed = (now - sampler.epoch_start) as f64;
    for (t, (&total, &baseline)) in inputs
        .retired_per_tile
        .iter()
        .zip(sampler.retired_per_tile.iter())
        .enumerate()
    {
        series.push(
            &format!("ipc/tile{t}"),
            now,
            (total - baseline) as f64 / elapsed,
        );
    }
    series.push(
        "l1_local_rate",
        now,
        (inputs.local_accesses - sampler.local_accesses) as f64 / elapsed,
    );
    series.push(
        "l1_remote_rate",
        now,
        (inputs.remote_accesses - sampler.remote_accesses) as f64 / elapsed,
    );
    series.push(
        "bank_conflict_rate",
        now,
        (inputs.conflicts - sampler.conflicts) as f64 / elapsed,
    );
    series.push(
        "offchip_occupancy",
        now,
        (inputs.offchip_bytes - sampler.offchip_bytes) as f64
            / (elapsed * inputs.peak_bytes_per_cycle),
    );
    series.push("offchip_backlog", now, inputs.backlog as f64);
    series.push("outstanding", now, inputs.outstanding as f64);
    series.push(
        "spm_touch_rate",
        now,
        (inputs.spm_touches - sampler.spm_touches) as f64 / elapsed,
    );
}

// ---------------------------------------------------------------------------
// The quantum engine: arena-backed, tile-sharded multi-worker path.
// ---------------------------------------------------------------------------
//
// The step engine runs every bank service and every tile kernel on one
// thread per simulated cycle. The quantum engine spreads multi-worker
// runs without fault plans or spare-bank remaps ([`Cluster::run`] checks
// eligibility) over host threads:
//
// * **Static tile→thread ownership.** Tiles are split into contiguous,
//   per-worker shards ([`TileShard`]): a worker owns its tiles' cores, I$,
//   response queues, *banks*, and SPM words outright, so both the bank
//   service and the tile kernel run inside the worker with plain `&mut`
//   indexing — no per-tile mutex handoff, no sequential serve.
// * **Arena-backed mailboxes.** All cross-tile traffic (bank pushes and
//   responses) flows through preallocated per-tile inboxes double-buffered
//   by tick parity, reused across ticks and quanta ([`QuantumArena`]). A
//   sender tags entries with its source tile and the receiver applies them
//   sorted by that tag ([`Inbox::drain_into`]), which reproduces the step
//   engine's tile-index push order exactly — the bank-queue contents
//   evolve bit-identically at every worker count.
// * **Amortized synchronization.** Workers run in per-tick lockstep via
//   padded atomic progress counters (spin-then-yield, no futexes) and only
//   meet the main thread at *quantum* boundaries every `QUANTUM_TICKS`
//   cycles, where deferred off-chip accesses are resolved in canonical
//   `(tick, tile)` order, the touch counters merge, and quiescence /
//   timeout / errors are settled. An off-chip access issued mid-quantum
//   shortens the quantum (`fetch_min` on the shared stop tick) so its
//   response is always enqueued before the cycle it is due.
//
// Determinism contract: because requests enter every bank queue in the
// step engine's order, responses are delivered by due-cycle (never by
// queue position), and boundary work happens in `(tick, tile)` order, the
// quantum engine is bit-identical to `Cluster::step` at any worker count —
// `tests/engine_equivalence.rs` holds the proof obligations.

/// Ticks per quantum when nothing shortens it: large enough to amortize
/// per-quantum thread spawn and boundary work down to noise, small enough
/// to keep quiescence-overshoot rollback work trivial.
const QUANTUM_TICKS: u64 = 1024;

/// The host's available parallelism (CPUs this process may use), `1` if
/// the platform cannot tell. Worker counts are clamped to this by default:
/// spinning lockstep workers beyond the CPU count only thrash the
/// scheduler, and results are bit-identical at every worker count anyway.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A cache-line-padded progress counter, one per worker, holding
/// `completed_tick + 1` with release/acquire ordering.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedCounter(AtomicU64);

/// Cross-tile traffic addressed to one tile, double-buffered by tick
/// parity. Entries are `(source tile, local index, payload)`; the
/// receiver applies them sorted by source tile, reproducing the step
/// engine's tile-order push order.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Bank-queue pushes: `(src tile, bank index within dest tile, access)`.
    pushes: Vec<(u32, u32, PendingAccess)>,
    /// Responses: `(src tile, core index within dest tile, response)`.
    responses: Vec<(u32, u32, Response)>,
}

impl Inbox {
    /// Applies this inbox to its tile's bank queues and response queues
    /// in source-tile order (a stable sort keeps each sender's own order),
    /// leaving it empty with its capacity intact.
    fn drain_into(&mut self, banks: &mut [Bank], responses: &mut [Vec<Response>]) {
        self.pushes.sort_by_key(|&(src, _, _)| src);
        for &(_, bank, access) in self.pushes.iter() {
            banks[bank as usize].queue.push(access);
        }
        self.pushes.clear();
        self.responses.sort_by_key(|&(src, _, _)| src);
        for &(_, core, response) in self.responses.iter() {
            responses[core as usize].push(response);
        }
        self.responses.clear();
    }
}

/// One inbox plus its lock-free "worth locking?" flag. Senders set the
/// flag after publishing; a receiver that finds it clear skips the mutex
/// entirely (idle tiles pay two atomic ops per tick, nothing more).
#[derive(Debug, Default)]
pub(crate) struct InboxSlot {
    nonempty: AtomicBool,
    data: Mutex<Inbox>,
}

/// A bank access served on the quantum path, recorded for flight-ring
/// replay at the boundary. Tagged `(tick, tile)` so the merge across
/// lanes can restore the step engine's global bank-sweep order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemEvent {
    tick: u64,
    core: u32,
    tile: u32,
    bank: u32,
    word: u32,
    kind: &'static str,
}

/// Per-worker scratch, preallocated and reused across ticks and quanta.
/// The instrumentation vectors are this worker's private *observation
/// lane*: the hot path appends to them with no locks and (in steady
/// state) no allocations, and the boundary drains them in deterministic
/// source-tile order.
#[derive(Debug)]
pub(crate) struct WorkerLane {
    /// Outgoing bank pushes, one buffer per destination tile
    /// (`(src tile, bank local, access)`), drained into inboxes each tick.
    push_out: Vec<Vec<(u32, u32, PendingAccess)>>,
    /// Outgoing responses, one buffer per destination tile.
    resp_out: Vec<Vec<(u32, u32, Response)>>,
    /// Off-chip intents issued this quantum: `(tick, tile, intent)`, in
    /// issue order (ticks ascending, tiles ascending within a tick).
    externals: Vec<(u64, u32, ExternalIntent)>,
    /// SPM words touched by this worker's shards this quantum (merged
    /// into the shared counter at the boundary).
    touches: u64,
    /// Cycle since which every owned tile has been continuously inert
    /// (halted cores, empty queues, nothing outstanding); `u64::MAX`
    /// while any tile is active. Drives exact quiescence rollback.
    inert_since: u64,
    /// First `(tick, tile, error)` this worker hit, by sweep order.
    error: Option<(u64, u32, SimError)>,
    /// Served bank accesses this quantum (flight `mem` events), in
    /// (tick, tile, bank) order. Only fed when flight recording is on.
    mem_events: Vec<MemEvent>,
    /// Retired instructions this quantum, in (tick, tile, core) order.
    /// Only fed when tracing is on.
    trace_out: Vec<TraceEntry>,
    /// `(tick, global core)` pairs that executed `wfi` this quantum
    /// (obs span begins). Only fed when an obs handle is attached.
    halts: Vec<(u64, u32)>,
    /// Per-tick scratch flag: whether this lane's shards delivered a
    /// response or retired an instruction during the current tick.
    progress: bool,
    /// Ticks at which this lane's shards made forward progress, strictly
    /// ascending. Only fed when a watchdog is armed.
    progress_ticks: Vec<u64>,
    /// Self-profiling: nanoseconds this worker spent inside the lockstep
    /// gate waiting on peers this quantum.
    prof_wait_ns: u64,
    /// Self-profiling: total wall nanoseconds this worker ran this
    /// quantum (busy time is `total - wait`).
    prof_total_ns: u64,
    /// Self-profiling: bank pushes routed through mailboxes this quantum.
    prof_pushes: u64,
    /// Self-profiling: responses routed through mailboxes this quantum.
    prof_responses: u64,
}

impl WorkerLane {
    fn new(num_tiles: usize) -> Self {
        WorkerLane {
            push_out: (0..num_tiles).map(|_| Vec::new()).collect(),
            resp_out: (0..num_tiles).map(|_| Vec::new()).collect(),
            externals: Vec::new(),
            touches: 0,
            inert_since: u64::MAX,
            error: None,
            mem_events: Vec::new(),
            trace_out: Vec::new(),
            halts: Vec::new(),
            progress: false,
            progress_ticks: Vec::new(),
            prof_wait_ns: 0,
            prof_total_ns: 0,
            prof_pushes: 0,
            prof_responses: 0,
        }
    }

    /// Drains this quantum's self-profiling tallies as
    /// `(busy_ns, wait_ns, mailbox_pushes, mailbox_responses)`.
    fn take_profile(&mut self) -> (u64, u64, u64, u64) {
        let total = std::mem::take(&mut self.prof_total_ns);
        let wait = std::mem::take(&mut self.prof_wait_ns);
        (
            total.saturating_sub(wait),
            wait,
            std::mem::take(&mut self.prof_pushes),
            std::mem::take(&mut self.prof_responses),
        )
    }
}

/// The quantum engine's [`TileSink`]: a worker lane plus the shared
/// context it needs to route. Bank pushes go to per-destination-tile
/// buffers (the canonical order the inboxes restore); off-chip intents
/// and errors are tagged with their tick and shorten the quantum via
/// `stop_at`; trace entries, `wfi` span begins, and forward-progress
/// marks land in the lane's observation buffers for deterministic
/// boundary replay. It keeps the default, always-healthy link state:
/// fault plans never run on the quantum engine.
struct LaneSink<'a> {
    ctx: &'a QuantumCtx<'a>,
    lane: &'a mut WorkerLane,
}

impl TileSink for LaneSink<'_> {
    fn progress(&mut self) {
        self.lane.progress = true;
    }

    fn icache_miss(&mut self) {
        // Published at the boundary as a delta of the per-core stats.
    }

    fn trace(&mut self, entry: TraceEntry) {
        self.lane.trace_out.push(entry);
    }

    fn halt(&mut self, now: u64, core: u32) {
        if self.ctx.obs_on {
            self.lane.halts.push((now, core));
        }
    }

    fn error(&mut self, now: u64, tile: u32, error: SimError) {
        if self.lane.error.is_none() {
            self.lane.error = Some((now, tile, error));
            self.ctx.stop_at.fetch_min(now + 1, Ordering::AcqRel);
        }
    }

    fn bank_push(&mut self, tile: u32, bank: usize, access: PendingAccess) {
        let bpt = self.ctx.banks_per_tile;
        self.lane.push_out[bank / bpt].push((tile, (bank % bpt) as u32, access));
    }

    fn external(&mut self, now: u64, tile: u32, intent: ExternalIntent) {
        self.lane.externals.push((now, tile, intent));
        self.ctx
            .stop_at
            .fetch_min(now + self.ctx.ext_hold, Ordering::AcqRel);
    }
}

/// All quantum-engine buffers, owned by the cluster so capacity survives
/// across ticks, quanta, and whole runs (the slab/arena the hot path
/// reuses instead of allocating).
#[derive(Debug, Default)]
pub(crate) struct QuantumArena {
    /// Per-tile mailboxes, double-buffered by tick parity.
    inboxes: Vec<[InboxSlot; 2]>,
    /// Per-worker progress counters (index = worker lane).
    progress: Vec<PaddedCounter>,
    /// Per-worker scratch lanes. Sized to the largest worker count seen;
    /// a run uses the first `workers` lanes.
    lanes: Vec<WorkerLane>,
    /// Boundary scratch: the merged off-chip intent log.
    ext_merge: Vec<(u64, u32, ExternalIntent)>,
    /// Boundary scratch: merged trace entries, sorted into sequential
    /// retire order before replay.
    trace_merge: Vec<TraceEntry>,
    /// Boundary scratch: merged flight `mem` events.
    mem_merge: Vec<MemEvent>,
    /// Boundary scratch: merged `wfi` span begins.
    halt_merge: Vec<(u64, u32)>,
    /// Boundary scratch: merged forward-progress ticks (watchdog replay).
    progress_merge: Vec<u64>,
    /// Off-chip intents merged at the most recent boundary
    /// (self-profiling).
    ext_merged_last: u64,
}

impl QuantumArena {
    /// Grows (never shrinks) the arena for a cluster of `num_tiles` tiles
    /// run on `workers` worker lanes.
    fn ensure(&mut self, num_tiles: usize, workers: usize) {
        while self.inboxes.len() < num_tiles {
            self.inboxes.push(Default::default());
        }
        while self.progress.len() < workers {
            self.progress.push(PaddedCounter::default());
        }
        while self.lanes.len() < workers {
            self.lanes.push(WorkerLane::new(num_tiles));
        }
    }

    /// Total reserved capacity (entries) across every arena buffer —
    /// the steady-state invariant tests assert this stops growing after
    /// warmup.
    pub(crate) fn footprint(&self) -> u64 {
        let inbox: usize = self
            .inboxes
            .iter()
            .flat_map(|pair| pair.iter())
            .map(|slot| {
                let inbox = slot.data.lock().expect("inbox lock");
                inbox.pushes.capacity() + inbox.responses.capacity()
            })
            .sum();
        let lanes: usize = self
            .lanes
            .iter()
            .map(|lane| {
                lane.externals.capacity()
                    + lane.push_out.iter().map(Vec::capacity).sum::<usize>()
                    + lane.resp_out.iter().map(Vec::capacity).sum::<usize>()
                    + lane.mem_events.capacity()
                    + lane.trace_out.capacity()
                    + lane.halts.capacity()
                    + lane.progress_ticks.capacity()
            })
            .sum();
        let merge = self.ext_merge.capacity()
            + self.trace_merge.capacity()
            + self.mem_merge.capacity()
            + self.halt_merge.capacity()
            + self.progress_merge.capacity();
        (inbox + lanes + merge) as u64
    }
}

/// Immutable context shared by every quantum worker.
#[derive(Debug)]
struct QuantumCtx<'a> {
    /// What the tile kernel reads.
    kernel: KernelCtx<'a>,
    /// The tick every worker stops before; shortened by off-chip
    /// accesses and errors.
    stop_at: &'a AtomicU64,
    cores_per_tile: usize,
    banks_per_tile: usize,
    bank_words: usize,
    num_tiles: usize,
    /// Ticks an issued off-chip access holds the quantum open for:
    /// `max(1, offchip_latency)` keeps every boundary ahead of the
    /// earliest possible response due-cycle.
    ext_hold: u64,
    /// Whether an obs handle is attached (record `wfi` span begins).
    obs_on: bool,
    /// Whether flight recording is on (record served-access events).
    flight_on: bool,
    /// Whether a watchdog is armed (record forward-progress ticks).
    watch: bool,
}

/// The state one worker owns exclusively for one tile: cores, response
/// queues, I$, banks, and the tile's SPM words (identity-resolved — the
/// eligibility check rules out spare-bank remaps).
#[derive(Debug)]
struct TileShard<'a> {
    tile: u32,
    cores: &'a mut [Core],
    responses: &'a mut [Vec<Response>],
    icache: &'a mut ICache,
    banks: &'a mut [Bank],
    spm: &'a mut [u32],
}

impl TileShard<'_> {
    /// Whether this tile is inert: every core halted with nothing
    /// outstanding and every queue drained (the per-tile restriction of
    /// [`Cluster::quiescent`]).
    fn inert(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.halted() && c.outstanding() == 0)
            && self.responses.iter().all(Vec::is_empty)
            && self.banks.iter().all(|b| b.queue.is_empty())
    }
}

/// Serves every bank of one tile for tick `now` with the step engine's
/// arbitration and word update ([`pick_access`], [`access_word`]) against
/// the shard's own SPM words; ECC and remap cannot arise here. Flight
/// `mem` events go to the lane's observation buffer, tagged with their
/// tick, and are replayed into the shared ring in step order at the
/// boundary.
fn serve_tile(ctx: &QuantumCtx<'_>, shard: &mut TileShard<'_>, lane: &mut WorkerLane, now: u64) {
    for bank in shard.banks.iter_mut() {
        let Some((access, _)) = pick_access(bank, now) else {
            continue;
        };
        debug_assert_eq!(access.loc.tile.0, shard.tile, "banks are tile-owned");
        if ctx.flight_on {
            lane.mem_events.push(MemEvent {
                tick: now,
                core: access.core,
                tile: access.loc.tile.0,
                bank: access.loc.bank.0,
                word: access.loc.word,
                kind: kind_name(access.kind),
            });
        }
        let word = access.loc.bank.index() * ctx.bank_words + access.loc.word as usize;
        lane.touches += 1;
        let (write, value) = access_word(&access, shard.spm[word]);
        if let Some(new) = write {
            shard.spm[word] = new;
            lane.touches += 1;
        }
        let response = Response {
            due: now + access.resp_latency as u64,
            reg: access.kind.response_reg(),
            value,
        };
        let dest_tile = access.core as usize / ctx.cores_per_tile;
        let dest_local = (access.core as usize % ctx.cores_per_tile) as u32;
        if dest_tile == shard.tile as usize {
            shard.responses[dest_local as usize].push(response);
        } else {
            lane.resp_out[dest_tile].push((shard.tile, dest_local, response));
        }
    }
}

/// One worker's quantum: lockstepped ticks from `start` until the shared
/// stop tick, over its owned shards.
#[allow(clippy::too_many_arguments)]
fn quantum_worker(
    ctx: &QuantumCtx<'_>,
    progress: &[PaddedCounter],
    inboxes: &[[InboxSlot; 2]],
    shards: &mut [TileShard<'_>],
    lane: &mut WorkerLane,
    me: usize,
    workers: usize,
    start: u64,
) {
    // Re-establish the inert watermark: boundary work (flushes, off-chip
    // responses) may have woken a tile since the last tick this lane ran.
    if lane.inert_since != u64::MAX && !shards.iter().all(TileShard::inert) {
        lane.inert_since = u64::MAX;
    }
    // On a host with a CPU per worker a peer is at most ~a tick of work
    // away, so spin generously before ceding the core; an oversubscribed
    // host (forced by tests) must yield immediately or the waited-on peer
    // never gets scheduled.
    let spin_budget: u32 = if workers > host_parallelism() {
        0
    } else {
        4096
    };
    let lane_start = Instant::now();
    let mut t = start;
    loop {
        // Lockstep: proceed once every peer has finished tick `t - 1`.
        // A peer publishes *after* its sends and stop-tick updates, so
        // passing this gate also makes those visible.
        if workers > 1 {
            for (w, counter) in progress.iter().take(workers).enumerate() {
                if w == me {
                    continue;
                }
                if counter.0.load(Ordering::Acquire) >= t {
                    continue;
                }
                // Self-profiling: the clock only starts once a wait
                // actually begins, so the in-lockstep fast path stays
                // timer-free.
                let wait_start = Instant::now();
                let mut spins = 0u32;
                while counter.0.load(Ordering::Acquire) < t {
                    spins += 1;
                    if spins < spin_budget {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                lane.prof_wait_ns += wait_start.elapsed().as_nanos() as u64;
            }
        }
        if t >= ctx.stop_at.load(Ordering::Acquire) {
            break;
        }
        // Apply last tick's cross-tile traffic in canonical source order.
        for shard in shards.iter_mut() {
            let slot = &inboxes[shard.tile as usize][(t & 1) as usize];
            if slot.nonempty.swap(false, Ordering::AcqRel) {
                slot.data
                    .lock()
                    .expect("inbox lock")
                    .drain_into(shard.banks, shard.responses);
            }
        }
        // Serve own banks, then run the tile kernel, tile-ascending.
        for shard in shards.iter_mut() {
            serve_tile(ctx, shard, lane, t);
        }
        let mut all_inert = true;
        for shard in shards.iter_mut() {
            local_tile(
                &ctx.kernel,
                t,
                shard.tile,
                shard.cores,
                shard.icache,
                shard.responses,
                &mut LaneSink {
                    ctx,
                    lane: &mut *lane,
                },
            );
            all_inert &= shard.inert();
        }
        // Record forward progress for the watchdog replay (the flag is
        // cheap to set unconditionally; the tick log only fills when a
        // watchdog is armed).
        let progressed = std::mem::take(&mut lane.progress);
        if ctx.watch && progressed {
            lane.progress_ticks.push(t);
        }
        // Route this tick's outbound traffic into the `t + 1` inboxes.
        for (dest, dest_slots) in inboxes.iter().enumerate().take(ctx.num_tiles) {
            if lane.push_out[dest].is_empty() && lane.resp_out[dest].is_empty() {
                continue;
            }
            lane.prof_pushes += lane.push_out[dest].len() as u64;
            lane.prof_responses += lane.resp_out[dest].len() as u64;
            let slot = &dest_slots[((t + 1) & 1) as usize];
            {
                let mut inbox = slot.data.lock().expect("inbox lock");
                inbox.pushes.extend_from_slice(&lane.push_out[dest]);
                inbox.responses.extend_from_slice(&lane.resp_out[dest]);
            }
            slot.nonempty.store(true, Ordering::Release);
            lane.push_out[dest].clear();
            lane.resp_out[dest].clear();
        }
        if all_inert {
            if lane.inert_since == u64::MAX {
                lane.inert_since = t + 1;
            }
        } else {
            lane.inert_since = u64::MAX;
        }
        if workers > 1 {
            progress[me].0.store(t + 1, Ordering::Release);
        }
        t += 1;
    }
    lane.prof_total_ns += lane_start.elapsed().as_nanos() as u64;
}

/// Runs one quantum: shards the cluster, drives the workers, then does
/// the boundary work (inbox flush, off-chip resolution, error selection,
/// touch merge, quiescence rollback). Returns `Ok(true)` when the
/// cluster went quiescent.
fn quantum_round(cluster: &mut Cluster, target: u64, threads: usize) -> Result<bool, SimError> {
    let start = cluster.cycle;
    let num_tiles = cluster.config.num_tiles() as usize;
    let workers = threads.clamp(1, num_tiles);
    cluster.quantum.ensure(num_tiles, workers);
    let obs_on = cluster.obs.is_some();
    let flight_on = obs_on && cluster.flight_enabled;
    let trace_on = cluster.trace.is_some();
    let watch = cluster.watchdog.is_some();
    // Observability counters are published as quantum-granular deltas of
    // the per-bank / per-core totals the shards already maintain, so the
    // hot path needs no extra bookkeeping for them.
    let counter_base = obs_on.then(|| {
        (
            cluster.banks.iter().map(|b| b.stats.conflicts).sum::<u64>(),
            cluster
                .cores
                .iter()
                .map(|c| c.stats.icache_misses)
                .sum::<u64>(),
        )
    });
    let stop_at = AtomicU64::new(target);
    let round_start = Instant::now();
    {
        let Cluster {
            config,
            topo,
            params,
            storage,
            program,
            cores,
            icaches,
            banks,
            responses,
            quantum,
            ..
        } = &mut *cluster;
        let cpt = config.cores_per_tile() as usize;
        let bpt = config.banks_per_tile() as usize;
        let bank_words = config.bank_words() as usize;
        let (spm, map) = storage.split_spm();
        let ctx = QuantumCtx {
            kernel: KernelCtx {
                config,
                topo,
                params,
                program,
                map,
                trace_on,
            },
            stop_at: &stop_at,
            cores_per_tile: cpt,
            banks_per_tile: bpt,
            bank_words,
            num_tiles,
            ext_hold: (params.offchip_latency as u64).max(1),
            obs_on,
            flight_on,
            watch,
        };
        let mut shards: Vec<TileShard<'_>> = cores
            .chunks_mut(cpt)
            .zip(responses.chunks_mut(cpt))
            .zip(icaches.iter_mut())
            .zip(banks.chunks_mut(bpt))
            .zip(spm.chunks_mut(bpt * bank_words))
            .enumerate()
            .map(
                |(tile, ((((cores, responses), icache), banks), spm))| TileShard {
                    tile: tile as u32,
                    cores,
                    responses,
                    icache,
                    banks,
                    spm,
                },
            )
            .collect();
        let QuantumArena {
            inboxes,
            progress,
            lanes,
            ..
        } = quantum;
        for counter in progress.iter().take(workers) {
            counter.0.store(start, Ordering::Relaxed);
        }
        // Contiguous shard ranges, one per worker; lane 0 runs on the
        // calling thread.
        let chunk = num_tiles / workers;
        let rem = num_tiles % workers;
        let (ctx, progress, inboxes) = (&ctx, &progress[..], &inboxes[..]);
        std::thread::scope(|scope| {
            let mut rest = shards.as_mut_slice();
            let mut lanes_iter = lanes.iter_mut();
            let mut lane_zero = None;
            for w in 0..workers {
                let len = chunk + usize::from(w < rem);
                let (mine, tail) = rest.split_at_mut(len);
                rest = tail;
                let lane = lanes_iter.next().expect("lane per worker");
                if w == 0 {
                    lane_zero = Some((mine, lane));
                } else {
                    scope.spawn(move || {
                        quantum_worker(ctx, progress, inboxes, mine, lane, w, workers, start);
                    });
                }
            }
            // The calling thread is worker 0.
            let (mine, lane) = lane_zero.expect("worker 0");
            quantum_worker(ctx, progress, inboxes, mine, lane, 0, workers, start);
        });
    }
    let round_ns = round_start.elapsed().as_nanos() as u64;
    let reached = stop_at.into_inner();
    let boundary_start = Instant::now();
    let result = quantum_boundary(cluster, reached, workers, counter_base);
    let boundary_ns = boundary_start.elapsed().as_nanos() as u64;
    crate::profile::record_quantum(
        reached.saturating_sub(start),
        round_ns,
        boundary_ns,
        cluster.quantum.ext_merged_last,
        cluster
            .quantum
            .lanes
            .iter_mut()
            .take(workers)
            .map(WorkerLane::take_profile),
    );
    result
}

/// The boundary work after every worker has stopped at `reached`:
/// mailbox flush, observation-lane merges (trace, flight, spans,
/// counters — all replayed in the sequential engine's drain order),
/// off-chip resolution, error selection, watchdog replay, quiescence
/// rollback, and time-series epoch close.
fn quantum_boundary(
    cluster: &mut Cluster,
    reached: u64,
    workers: usize,
    counter_base: Option<(u64, u64)>,
) -> Result<bool, SimError> {
    let bpt = cluster.config.banks_per_tile() as usize;
    let cpt = cluster.config.cores_per_tile() as usize;
    // The winning error, keyed `(tick, tile, phase)` with off-chip
    // resolution (phase 0) preceding issue errors (phase 1) within a
    // tile — the step engine's error order.
    let mut winner: Option<(u64, u32, u32, SimError)> = None;
    let mut note = |tick: u64, tile: u32, phase: u32, error: SimError| {
        let better = match &winner {
            None => true,
            Some((t, ti, p, _)) => (tick, tile, phase) < (*t, *ti, *p),
        };
        if better {
            winner = Some((tick, tile, phase, error));
        }
    };
    {
        let Cluster {
            banks,
            responses,
            storage,
            offchip,
            quantum,
            trace,
            obs,
            flight_enabled,
            ..
        } = &mut *cluster;
        // Flush undelivered mailbox traffic (sent on the final tick) into
        // the real queues, in the same canonical order a running tick
        // would apply it.
        for (tile, pair) in quantum.inboxes.iter_mut().enumerate() {
            for slot in pair.iter_mut() {
                slot.nonempty.store(false, Ordering::Relaxed);
                slot.data.get_mut().expect("inbox lock").drain_into(
                    &mut banks[tile * bpt..][..bpt],
                    &mut responses[tile * cpt..][..cpt],
                );
            }
        }
        // Resolve deferred off-chip accesses in (tick, tile) order — the
        // order the step engine resolves them in — and merge the
        // per-worker touch counts and observation lanes.
        let mut ext = std::mem::take(&mut quantum.ext_merge);
        ext.clear();
        let mut trace_merge = std::mem::take(&mut quantum.trace_merge);
        let mut mem_merge = std::mem::take(&mut quantum.mem_merge);
        let mut halt_merge = std::mem::take(&mut quantum.halt_merge);
        let mut progress_merge = std::mem::take(&mut quantum.progress_merge);
        for lane in quantum.lanes.iter_mut().take(workers) {
            ext.extend_from_slice(&lane.externals);
            lane.externals.clear();
            storage.add_touches(lane.touches);
            lane.touches = 0;
            trace_merge.append(&mut lane.trace_out);
            mem_merge.append(&mut lane.mem_events);
            halt_merge.append(&mut lane.halts);
            progress_merge.append(&mut lane.progress_ticks);
            if let Some((tick, tile, error)) = lane.error.take() {
                note(tick, tile, 1, error);
            }
        }
        ext.sort_by_key(|&(tick, tile, _)| (tick, tile));
        for (tick, tile, intent) in ext.iter() {
            if let Err(e) = resolve_external(
                storage,
                offchip,
                *tick,
                intent,
                &mut responses[intent.core as usize],
            ) {
                note(*tick, *tile, 0, e);
            }
        }
        quantum.ext_merged_last = ext.len() as u64;
        ext.clear();
        quantum.ext_merge = ext;
        // Replay the observation lanes in the step engine's effect order.
        // Lanes own disjoint contiguous tile ranges and record
        // tick-ascending, so a stable sort on (tick, tile-encoding key)
        // reconstructs the global order exactly; within one (tick, tile)
        // a single lane's intra-tile order (cores / banks ascending) is
        // preserved. An error tick's effects all land before the error is
        // reported, exactly like the step engine's.
        trace_merge.sort_by_key(|e| (e.cycle, e.core.index()));
        if let Some(trace) = trace.as_mut() {
            for &entry in trace_merge.iter() {
                trace.record(entry);
            }
        }
        trace_merge.clear();
        quantum.trace_merge = trace_merge;
        mem_merge.sort_by_key(|e| (e.tick, e.tile));
        if *flight_enabled {
            if let Some(hooks) = obs.as_ref() {
                for e in mem_merge.iter() {
                    hooks.obs.flight.record(
                        e.tick,
                        "mem",
                        Some(e.core),
                        format!(
                            "{} served at tile {} bank {} word {}",
                            e.kind, e.tile, e.bank, e.word
                        ),
                    );
                }
            }
        }
        mem_merge.clear();
        quantum.mem_merge = mem_merge;
        halt_merge.sort_by_key(|&(tick, core)| (tick, core));
        if let Some(hooks) = obs.as_ref() {
            for &(tick, core) in halt_merge.iter() {
                hooks
                    .obs
                    .spans
                    .begin(hooks.core_tracks[core as usize], "wfi", tick);
            }
        }
        halt_merge.clear();
        quantum.halt_merge = halt_merge;
        progress_merge.sort_unstable();
        progress_merge.dedup();
        quantum.progress_merge = progress_merge;
    }
    // Quantum-granular counter deltas (identical totals to the
    // sequential per-tick adds; an error tick's contribution is already
    // in the per-bank / per-core stats, so the delta covers it too).
    if let Some((conflicts0, icache0)) = counter_base {
        if let Some(hooks) = &cluster.obs {
            let conflicts1 = cluster.banks.iter().map(|b| b.stats.conflicts).sum::<u64>();
            let icache1 = cluster
                .cores
                .iter()
                .map(|c| c.stats.icache_misses)
                .sum::<u64>();
            hooks.bank_conflicts.add(conflicts1 - conflicts0);
            hooks.icache_misses.add(icache1 - icache0);
        }
    }
    if let Some((tick, _, _, error)) = winner {
        // The step engine reports an error with the clock still on the
        // tick that raised it, and notes watchdog progress only for the
        // completed ticks before it.
        if let Some(wd) = cluster.watchdog.as_mut() {
            if let Some(&lp) = cluster
                .quantum
                .progress_merge
                .iter()
                .take_while(|&&t| t < tick)
                .last()
            {
                wd.note_progress(lp);
            }
        }
        cluster.quantum.progress_merge.clear();
        cluster.cycle = tick;
        return Err(error);
    }
    cluster.cycle = reached;
    let mut quiescent = false;
    if cluster.quiescent() {
        // The workers overshot the first quiescent cycle by up to a
        // quantum of trivial all-halted ticks; roll those back so the
        // result is bit-identical to the sequential engine, which stops
        // the moment quiescence holds. Inert ticks record no progress
        // and no events, so the observation lanes need no rollback.
        quiescent = true;
        let t_q = cluster.quantum.lanes[..workers]
            .iter()
            .map(|lane| lane.inert_since)
            .max()
            .unwrap_or(u64::MAX);
        if t_q < reached {
            let overshoot = reached - t_q;
            for core in &mut cluster.cores {
                core.stats.halted_cycles -= overshoot;
            }
            cluster.cycle = t_q;
        }
    }
    // Watchdog replay. `run_quantum` caps the quantum target at
    // `last_progress + threshold + 1`, so for every committed tick
    // before the final one the no-progress window is provably below the
    // threshold — a deadlock can only fire at the quantum's last tick,
    // where the reassembled state equals the sequential engine's.
    let mut deadlock = None;
    if let Some(wd) = cluster.watchdog.as_mut() {
        let lp = cluster.quantum.progress_merge.last().copied();
        if let Some(lp) = lp {
            wd.note_progress(lp);
        }
        cluster.quantum.progress_merge.clear();
        if !quiescent {
            let last = reached - 1;
            if lp != Some(last) && wd.expired(last) {
                deadlock = Some(wd.stalled_for(last));
            }
        }
    }
    if let Some(stalled_for) = deadlock {
        // As on the step engine: the clock stays on the expiring tick,
        // the flight ring gets the expiry event after that tick's mem
        // events, and diagnostics see the replayed trace.
        let last = reached - 1;
        cluster.cycle = last;
        return Err(self::deadlock(cluster, last, stalled_for));
    }
    // Close a sampling epoch if one came due. `run_quantum` also caps the
    // quantum target at `sampler.next_at`, so the boundary lands exactly
    // on the cycle the step engine would have sampled at, with identical
    // reassembled state (externals resolved, mailboxes flushed).
    sample_if_due(cluster);
    Ok(quiescent)
}

/// Runs a cluster on the quantum engine at any worker count (1 included
/// — the lockstep degenerates to a plain loop), with results
/// bit-identical to [`Cluster::step`]. Instrumentation (obs counters,
/// time series, flight ring, tracing, watchdog) rides the shard-local
/// observation lanes; only fault plans and spare-bank remaps are
/// ineligible (see `Cluster::quantum_eligible`).
pub(crate) fn run_quantum(
    cluster: &mut Cluster,
    max_cycles: u64,
    threads: usize,
) -> Result<u64, SimError> {
    let deadline = cluster.cycle.saturating_add(max_cycles);
    loop {
        if cluster.quiescent() {
            return Ok(cluster.cycle);
        }
        if cluster.cycle >= deadline {
            return Err(SimError::Timeout { cycles: max_cycles });
        }
        if cluster.program.is_empty() {
            return Err(SimError::NoProgram);
        }
        let mut target = deadline.min(cluster.cycle + QUANTUM_TICKS);
        if let Some(sampler) = &cluster.sampler {
            // Stop exactly on the sampling cycle: the boundary then
            // closes the epoch against the same state the step engine
            // would have sampled.
            target = target.min(sampler.next_at.max(cluster.cycle + 1));
        }
        if let Some(wd) = &cluster.watchdog {
            // Stop one past the earliest possible expiry tick: any
            // progress inside the quantum pushes expiry further out, so
            // a deadlock is confined to the quantum's final tick (where
            // boundary state equals sequential state).
            let expiry = wd.last_progress().saturating_add(wd.threshold());
            target = target.min(expiry.max(cluster.cycle).saturating_add(1));
        }
        if quantum_round(cluster, target, threads)? {
            return Ok(cluster.cycle);
        }
    }
}

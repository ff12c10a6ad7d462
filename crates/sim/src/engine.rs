//! The operational multi-core simulator.
//!
//! The engine executes a test program as a sequence of *commit* events: at
//! every step one thread commits one memory operation, and an operation may
//! commit only when every program-order-earlier operation that the MCM
//! orders before it has already committed (the ready-set rule, driven by
//! [`Mcm::orders`](mtc_isa::Mcm::orders)). Loads forward from the youngest
//! program-order-earlier uncommitted store to the same address — the store
//! buffer — and otherwise read memory at commit time. Under multiple-copy
//! atomicity this produces exactly the executions the configured MCM allows.
//!
//! All cores race through the test in parallel from the iteration barrier:
//! the next commit belongs to the core with the smallest *virtual time*,
//! and each commit advances that core by its operation's latency perturbed
//! by jitter, rare long stalls, randomized coherence backoff on contended
//! lines, and optional OS preemption. Most loads therefore have a dominant
//! outcome and diversity concentrates at genuine data races — the
//! population structure the paper observes on silicon, and the property
//! that makes signature-sorted neighbours similar enough for collective
//! checking to win. Out-of-order commit within an LSQ-like window supplies
//! the MCM-specific relaxations. A private-cache model provides latencies
//! and the eviction/upgrade events the §7 injected bugs race against, and
//! a 2-bit branch predictor prices the instrumented signature chains
//! (Figure 10).
//!
//! # Hot path
//!
//! [`Simulator::run`] is the test loop of every campaign, so the work that
//! does not depend on the run is done once in [`Simulator::new`]: a per-op
//! table holds each operation's cache line, its previous same-address store
//! (store-buffer forwarding walks only those) and a bitmask of the preceding
//! operations the MCM orders before it. Each step builds the window's ready
//! set as a bitmask without branches — bit `d` is "uncommitted, and no
//! uncommitted earlier op is ordered before it" — and the `reorder_prob`
//! free choice and the latency-driven pick walk only its set bits. A window
//! of up to 64 ops fits one `u64`; a wider one takes a multi-word mask and
//! consults `Mcm::orders` for the ops beyond the order masks. `run` picks
//! the mask type once per run and both are compiled from one generic body.
//! The coherence directory is sized to the program's lines up front, so a
//! latency peek is two loads and a select. Coherence contention is a bit
//! test against a per-line mask of the threads whose uncommitted lookahead
//! touches the line; per-thread counts let a commit update only the ops
//! that enter or leave the lookahead. Per-run state lives in the simulator
//! and is reset, not reallocated, at the start of each run, and loaded
//! values go to a dense per-load array from which the `ReadsFrom` is built
//! once at the end. None of this changes a single random draw: the draw
//! order is part of the determinism contract, pinned by the simulator
//! golden fixture.

use crate::memory::SimMemory;
use crate::{BranchPredictor, BugKind, CacheModel, SchedulerKind, SimError, SystemConfig};
use mtc_instr::SignatureSchema;
use mtc_isa::{Instr, OpId, Program, ReadsFrom, Tid, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Counters describing one execution.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Operations committed (loads + stores + fences).
    pub commits: u64,
    /// Thread switches taken by the scheduler.
    pub switches: u64,
    /// Commits that hit cache-line contention with another core.
    pub contention_events: u64,
    /// OS preemption events (OS mode only).
    pub preemptions: u64,
    /// Speculative early load performs.
    pub spec_performed: u64,
    /// Speculative loads correctly squashed by invalidations.
    pub spec_squashed: u64,
    /// Speculative loads that kept stale values (injected bugs only).
    pub spec_stale: u64,
    /// L1 hits.
    pub cache_hits: u64,
    /// L1 misses.
    pub cache_misses: u64,
    /// Register-flushing log stores (flush overlay only).
    pub flush_stores: u64,
}

/// The observable result of one test execution.
#[derive(Clone, Debug, Default, Eq, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// Which value every load observed — the whole memory-ordering story.
    pub reads_from: ReadsFrom,
    /// Cycles of the original test (the slowest thread's tally).
    pub test_cycles: u64,
    /// Extra cycles spent in instrumented signature computation (zero when
    /// the simulator runs an uninstrumented test).
    pub instr_cycles: u64,
    /// Execution counters.
    pub stats: ExecStats,
    /// The global commit order (one entry per instruction, fences
    /// included), recorded only when [`Simulator::set_trace`] is enabled.
    /// For a correct platform this sequence is a topological witness of the
    /// execution's constraint graph.
    pub trace: Vec<OpId>,
}

#[derive(Copy, Clone, Debug)]
struct SpecEntry {
    idx: u32,
    value: Value,
    /// Kept a stale value after an invalidation (bug manifestation).
    stale: bool,
}

/// The cache line of a fence in the per-op table.
const NO_LINE: u32 = u32::MAX;

/// No operation, in [`OpInfo::prev_store`].
const NO_OP: u32 = u32::MAX;

/// Width of the precomputed order masks: an op's mask covers the 64 ops
/// before it in program order.
const MASK_BITS: usize = 64;

/// Run-independent facts about one operation, computed once per simulator.
#[derive(Copy, Clone, Debug)]
struct OpInfo {
    /// Cache line accessed; [`NO_LINE`] for fences.
    line: u32,
    /// Bit `k` set iff the MCM orders op `idx - 1 - k` before this one.
    /// Only the bits a reorder window can reach are computed.
    ordered_after: u64,
    /// Position in the run's dense load-value array (loads only).
    load: u32,
    /// The youngest earlier store to the same address ([`NO_OP`] if none).
    prev_store: u32,
    /// Instrumented chain index (loads, once a schema is attached).
    chain: Option<u32>,
}

/// Per-run state, kept in the simulator and reset at the start of every
/// run instead of being reallocated.
#[derive(Clone, Debug)]
struct RunState {
    committed: Vec<Vec<bool>>,
    /// First uncommitted op of each thread.
    oldest: Vec<usize>,
    vtime: Vec<u64>,
    instr_cycles: Vec<u64>,
    spec: Vec<Vec<SpecEntry>>,
    memory: SimMemory,
    /// Value observed by each load, in `(tid, idx)` order.
    values: Vec<Value>,
    lookahead: Lookahead,
    runnable: Vec<usize>,
}

/// Which threads' imminent ops touch each line: `masks[line]` bit `u` is
/// set iff one of thread `u`'s next `conflict_lookahead` ops from its
/// oldest is uncommitted and touches `line`. `refs` counts those ops per
/// thread and line, so a commit updates only the ops that enter or leave
/// the thread's lookahead.
#[derive(Clone, Debug)]
struct Lookahead {
    masks: Vec<u64>,
    /// `refs[t * lines + line]`.
    refs: Vec<u32>,
    lines: usize,
}

impl Lookahead {
    fn new(threads: usize, lines: usize) -> Self {
        Lookahead {
            masks: vec![0; lines],
            refs: vec![0; threads * lines],
            lines,
        }
    }

    fn clear(&mut self) {
        self.masks.fill(0);
        self.refs.fill(0);
    }

    /// An uncommitted op of thread `t` touching `line` came into reach.
    fn enter(&mut self, t: usize, line: u32) {
        if line != NO_LINE {
            let refs = &mut self.refs[t * self.lines + line as usize];
            self.masks[line as usize] |= u64::from(*refs == 0) << t;
            *refs += 1;
        }
    }

    /// One of thread `t`'s ops touching `line` committed or left reach.
    fn leave(&mut self, t: usize, line: u32) {
        if line != NO_LINE {
            let refs = &mut self.refs[t * self.lines + line as usize];
            *refs -= 1;
            self.masks[line as usize] &= !(u64::from(*refs == 0) << t);
        }
    }

    /// Another thread than `t` is about to touch `line`.
    fn contended(&self, t: usize, line: u32) -> bool {
        self.masks[line as usize] & !(1u64 << t) != 0
    }
}

/// The ready set of one step: bit `d` marks the window op at offset `d`
/// from the thread's oldest uncommitted op as free to commit.
///
/// [`Simulator::run`] picks the implementation once per run — one `u64`
/// when the reorder window fits in [`MASK_BITS`] ops, else [`WideMask`] —
/// and both are compiled from the same generic step body, so the
/// `Mcm::orders` fallback for offsets beyond the order masks compiles away
/// for the one-word case.
trait ReadyMask {
    /// Whether offsets beyond [`MASK_BITS`] occur.
    const WIDE: bool;
    /// An empty set for a window of `width` ops.
    fn with_width(width: usize) -> Self;
    /// Empties the set.
    fn clear(&mut self);
    /// Adds offset `d` iff `ready`, without a branch.
    fn insert(&mut self, d: usize, ready: bool);
    /// Number of offsets in the set.
    fn count(&self) -> usize;
    /// The `n`-th smallest offset in the set.
    fn nth(&self, n: usize) -> usize;
    /// The smallest offset among those with the least `key`.
    fn min_by_key(&self, key: impl FnMut(usize) -> u32) -> usize;
}

impl ReadyMask for u64 {
    const WIDE: bool = false;

    fn with_width(width: usize) -> Self {
        debug_assert!(width <= MASK_BITS);
        0
    }

    fn clear(&mut self) {
        *self = 0;
    }

    fn insert(&mut self, d: usize, ready: bool) {
        *self |= u64::from(ready) << d;
    }

    fn count(&self) -> usize {
        self.count_ones() as usize
    }

    fn nth(&self, n: usize) -> usize {
        let mut bits = *self;
        for _ in 0..n {
            bits &= bits - 1;
        }
        bits.trailing_zeros() as usize
    }

    fn min_by_key(&self, mut key: impl FnMut(usize) -> u32) -> usize {
        let mut best = (self.trailing_zeros() as usize, u32::MAX);
        scan_word(*self, 0, &mut best, &mut key);
        best.0
    }
}

/// Folds the set bits of `bits` (offsets `base + k`), smallest first, into
/// the running `(offset, key)` minimum; ties keep the earlier offset.
fn scan_word(
    mut bits: u64,
    base: usize,
    best: &mut (usize, u32),
    key: &mut impl FnMut(usize) -> u32,
) {
    while bits != 0 {
        let d = base + bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let k = key(d);
        let better = k < best.1;
        best.0 = if better { d } else { best.0 };
        best.1 = best.1.min(k);
    }
}

/// The ready set of a window wider than [`MASK_BITS`] ops: one `u64` per
/// 64 offsets, walked word by word with the one-word kernels.
struct WideMask(Vec<u64>);

impl ReadyMask for WideMask {
    const WIDE: bool = true;

    fn with_width(width: usize) -> Self {
        WideMask(vec![0; width.div_ceil(64)])
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    fn insert(&mut self, d: usize, ready: bool) {
        self.0[d / 64] |= u64::from(ready) << (d % 64);
    }

    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn nth(&self, mut n: usize) -> usize {
        for (w, &word) in self.0.iter().enumerate() {
            let ones = word.count();
            if n < ones {
                return w * 64 + word.nth(n);
            }
            n -= ones;
        }
        unreachable!("n is below the set's count")
    }

    fn min_by_key(&self, mut key: impl FnMut(usize) -> u32) -> usize {
        let mut best = (self.nth(0), u32::MAX);
        for (w, &word) in self.0.iter().enumerate() {
            scan_word(word, w * 64, &mut best, &mut key);
        }
        best.0
    }
}

/// A simulated multi-core system executing one test program.
///
/// Microarchitectural state — caches and branch predictors — persists across
/// [`Simulator::run`] calls, mirroring the paper's setup where one *test
/// run* iterates the test loop 65 536 times on warm hardware;
/// [`Simulator::reset_microarch`] models the hard reset applied between
/// test runs. Shared memory is re-initialized at the start of every
/// iteration, like the paper's per-iteration initialization barrier.
///
/// # Example
///
/// ```
/// use mtc_isa::litmus;
/// use mtc_sim::{Simulator, SystemConfig};
///
/// let test = litmus::store_buffering();
/// let mut sim = Simulator::new(&test.program, SystemConfig::x86_desktop());
/// let exec = sim.run(42)?;
/// assert_eq!(exec.reads_from.len(), 2); // both loads observed
/// # Ok::<(), mtc_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    config: SystemConfig,
    cache: CacheModel,
    predictor: Option<BranchPredictor>,
    /// `ops[tid][idx]`: the per-op table.
    ops: Vec<Vec<OpInfo>>,
    /// Every load, in `(tid, idx)` order (the order of `RunState::values`).
    loads: Vec<OpId>,
    /// Candidate lists per dense load (schema order).
    candidates: Vec<Vec<Value>>,
    /// Signature words per thread (for epilogue timing).
    words_per_thread: Vec<usize>,
    /// Model the register-flushing baseline: one extra store per load on
    /// the committing core's critical path.
    flush_overlay: bool,
    /// Record the commit order into [`Execution::trace`].
    record_trace: bool,
    state: RunState,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` on a system described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no threads or more than 64.
    pub fn new(program: &'p Program, config: SystemConfig) -> Self {
        assert!(program.num_threads() > 0, "program must have threads");
        let layout = program.layout();
        let mcm = config.mcm;
        // A window of `w` ops reaches at most `w - 1` ops back.
        let reach = config
            .scheduler
            .reorder_window
            .max(1)
            .saturating_sub(1)
            .min(MASK_BITS);
        let mut loads = Vec::new();
        let mut num_lines = 0usize;
        let ops: Vec<Vec<OpInfo>> = program
            .threads()
            .iter()
            .enumerate()
            .map(|(t, code)| {
                code.iter()
                    .enumerate()
                    .map(|(i, instr)| {
                        let line = instr.addr().map_or(NO_LINE, |a| layout.line_of(a));
                        if line != NO_LINE {
                            num_lines = num_lines.max(line as usize + 1);
                        }
                        let ordered_after = (0..reach.min(i))
                            .filter(|&k| mcm.orders(&code[i - 1 - k], instr))
                            .fold(0u64, |mask, k| mask | 1 << k);
                        let load = loads.len() as u32;
                        if instr.is_load() {
                            loads.push(OpId::new(Tid(t as u32), i as u32));
                        }
                        let prev_store = (0..i)
                            .rev()
                            .find(|&j| code[j].is_store() && code[j].addr() == instr.addr())
                            .map_or(NO_OP, |j| j as u32);
                        OpInfo {
                            line,
                            ordered_after,
                            load,
                            prev_store,
                            chain: None,
                        }
                    })
                    .collect()
            })
            .collect();
        let t_count = program.num_threads();
        let cache = CacheModel::new(config.cache, t_count, num_lines);
        let num_addrs = program.num_addrs() as usize;
        let memory = match config.store_atomicity {
            crate::StoreAtomicity::MultipleCopy => SimMemory::multiple_copy(num_addrs),
            crate::StoreAtomicity::NonMultipleCopy {
                max_propagation_cycles,
            } => SimMemory::non_multiple_copy(num_addrs, max_propagation_cycles),
        };
        let state = RunState {
            committed: ops.iter().map(|code| vec![false; code.len()]).collect(),
            oldest: vec![0; t_count],
            vtime: vec![0; t_count],
            instr_cycles: vec![0; t_count],
            spec: vec![Vec::new(); t_count],
            memory,
            values: vec![Value::INIT; loads.len()],
            lookahead: Lookahead::new(t_count, num_lines),
            runnable: Vec::new(),
        };
        Simulator {
            program,
            config,
            cache,
            predictor: None,
            ops,
            loads,
            candidates: Vec::new(),
            words_per_thread: Vec::new(),
            flush_overlay: false,
            record_trace: false,
            state,
        }
    }

    /// Attaches an instrumentation schema: subsequent runs also account the
    /// cycles of signature computation (branch chains, predictor effects,
    /// signature stores).
    pub fn instrument(&mut self, schema: &SignatureSchema) {
        let mut chain_lengths = Vec::new();
        self.candidates.clear();
        self.words_per_thread.clear();
        for info in self.ops.iter_mut().flatten() {
            info.chain = None;
        }
        for thread in schema.threads() {
            self.words_per_thread.push(thread.num_words);
            for slot in &thread.loads {
                let dense = chain_lengths.len();
                chain_lengths.push(slot.cardinality());
                self.candidates.push(slot.candidates.clone());
                self.ops[slot.op.tid.index()][slot.op.idx as usize].chain = Some(dense as u32);
            }
        }
        self.predictor = Some(BranchPredictor::new(&chain_lengths));
    }

    /// Enables or disables the register-flushing overlay (\[24\] in the
    /// paper: TSOtool): every load is followed by a store of its value to a
    /// per-thread log, *on the core's critical path*. Unlike signature
    /// instrumentation — whose compare/add chains stay off the memory race
    /// (§3.1: "this instrumentation does not perturb the sequence of memory
    /// accesses") — flushing displaces the core in virtual time at every
    /// load and thereby perturbs the very interleavings under validation.
    /// The `ablation` bench binary quantifies the shift.
    pub fn set_flush_overlay(&mut self, on: bool) {
        self.flush_overlay = on;
    }

    /// Enables or disables commit-trace recording (off by default: traces
    /// are exactly the per-operation logging MTraceCheck exists to avoid,
    /// but they are invaluable for debugging and for witness-based
    /// soundness tests).
    pub fn set_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The branch predictor, when the test is instrumented.
    pub fn predictor(&self) -> Option<&BranchPredictor> {
        self.predictor.as_ref()
    }

    /// Hard reset: cold caches and predictors (applied between *test runs*
    /// in the paper, not between loop iterations).
    pub fn reset_microarch(&mut self) {
        let num_lines = self.state.lookahead.lines;
        self.cache = CacheModel::new(self.config.cache, self.program.num_threads(), num_lines);
        if self.predictor.is_some() {
            let chain_lengths: Vec<usize> = self.candidates.iter().map(Vec::len).collect();
            self.predictor = Some(BranchPredictor::new(&chain_lengths));
        }
    }

    /// Executes one iteration of the test and returns its observation.
    ///
    /// Deterministic in `seed` *given* the accumulated microarchitectural
    /// state: cache warmth shapes latencies, latencies shape the race, so
    /// (exactly as on silicon) outcomes depend on the history of prior
    /// iterations as well as the seed.
    ///
    /// # Errors
    ///
    /// [`SimError::ProtocolDeadlock`] when injected bug 3 corrupts the
    /// coherence protocol; [`SimError::Livelock`] if the engine fails to
    /// make progress (a simulator defect, not a test outcome).
    pub fn run(&mut self, seed: u64) -> Result<Execution, SimError> {
        if self.config.scheduler.reorder_window <= MASK_BITS {
            self.run_with::<u64>(seed)
        } else {
            self.run_with::<WideMask>(seed)
        }
    }

    /// The engine body of [`Simulator::run`], generic over the ready-set
    /// representation.
    fn run_with<M: ReadyMask>(&mut self, seed: u64) -> Result<Execution, SimError> {
        let Simulator {
            program,
            config,
            cache,
            predictor,
            ops,
            loads,
            candidates,
            words_per_thread,
            flush_overlay,
            record_trace,
            state,
        } = self;
        let (program, ops, loads): (&Program, &[Vec<OpInfo>], &[OpId]) = (program, ops, loads);
        let sched = config.scheduler;
        let mcm = config.mcm;
        let timing = config.timing;
        let bug = config.bug;
        let t_count = ops.len();
        let total: usize = ops.iter().map(Vec::len).sum();
        let window = sched.reorder_window.max(1);
        let lookahead_len = sched.conflict_lookahead;
        let RunState {
            committed,
            oldest,
            vtime,
            instr_cycles,
            spec,
            memory,
            values,
            lookahead,
            runnable,
        } = state;
        let mut ready = M::with_width(window);

        let mut rng = SmallRng::seed_from_u64(seed);
        committed.iter_mut().for_each(|c| c.fill(false));
        oldest.fill(0);
        instr_cycles.fill(0);
        spec.iter_mut().for_each(Vec::clear);
        memory.reset();
        lookahead.clear();
        for (t, code) in ops.iter().enumerate() {
            for op in &code[..lookahead_len.min(code.len())] {
                lookahead.enter(t, op.line);
            }
        }
        // Barrier-release skew: each core gets a random head start, which
        // selects this run's racing access pairs.
        for v in vtime.iter_mut() {
            *v = rng.gen_range(0..=sched.barrier_skew_cycles) as u64;
        }
        let mut stats = ExecStats::default();
        let mut trace = Vec::new();
        if *record_trace {
            trace.reserve(total);
        }
        let mut last_thread = usize::MAX;
        let mut step = 0u64;
        let mut done = 0usize;
        let max_steps = (total as u64 + 1).saturating_mul(config.max_steps_per_op);

        while done < total {
            step += 1;
            if step > max_steps {
                return Err(SimError::Livelock { step });
            }

            // Thread choice: the core with the smallest virtual time commits
            // next (all cores run in parallel); the SC reference machine
            // picks uniformly instead.
            let t = match sched.kind {
                SchedulerKind::UniformRandom => {
                    runnable.clear();
                    runnable.extend((0..t_count).filter(|&u| oldest[u] < ops[u].len()));
                    runnable[rng.gen_range(0..runnable.len())]
                }
                SchedulerKind::Lockstep => (0..t_count)
                    .filter(|&u| oldest[u] < ops[u].len())
                    .min_by_key(|&u| vtime[u])
                    .expect("some thread is unfinished while done < total"),
            };
            if t != last_thread {
                if last_thread != usize::MAX {
                    stats.switches += 1;
                }
                last_thread = t;
            }
            let code = &program.threads()[t];
            let info = &ops[t];
            let len = info.len();

            // Operation choice within the LSQ-like window: an op is ready
            // unless an uncommitted earlier op in the window is ordered
            // before it. `pending` bit `k` marks op `d - 1 - k` uncommitted.
            let start = oldest[t];
            let window_end = (start + window).min(len);
            ready.clear();
            let mut pending = 0u64;
            let slots = committed[t][start..window_end]
                .iter()
                .zip(&info[start..window_end]);
            for (d, (&done, op)) in slots.enumerate() {
                let mut free = !done & (pending & op.ordered_after == 0);
                if M::WIDE && d > MASK_BITS && free {
                    let i = start + d;
                    free = !(start..i - MASK_BITS)
                        .any(|j| !committed[t][j] && mcm.orders(&code[j], &code[i]));
                }
                ready.insert(d, free);
                pending = pending << 1 | u64::from(!done);
            }
            let count = ready.count();
            debug_assert!(count > 0, "oldest uncommitted op is always ready");
            // Out-of-order commit within the ready window. The primary
            // policy is latency-driven and deterministic — a younger ready
            // L1 hit overtakes an older miss, exactly how an OoO core hides
            // miss latency — with `reorder_prob` adding occasional
            // speculative free choice on top.
            let d = if count > 1 && sched.reorder_prob > 0.0 && rng.gen_bool(sched.reorder_prob) {
                ready.nth(rng.gen_range(0..count))
            } else if count > 1 {
                ready.min_by_key(|d| match info[start + d].line {
                    NO_LINE => 0,
                    line => cache.peek_latency(t, line),
                })
            } else {
                ready.nth(0)
            };
            let i = start + d;

            // Commit.
            committed[t][i] = true;
            while oldest[t] < len && committed[t][oldest[t]] {
                oldest[t] += 1;
            }
            // The committed op leaves the thread's lookahead if it was in
            // it; the uncommitted ops the advancing oldest op brings into
            // reach enter it. A commit that neither lies in the lookahead
            // nor moves the oldest op changes no mask.
            if d < lookahead_len {
                lookahead.leave(t, info[i].line);
            }
            let reach = oldest[t].saturating_add(lookahead_len).min(len);
            for j in start.saturating_add(lookahead_len).max(oldest[t])..reach {
                if !committed[t][j] {
                    lookahead.enter(t, info[j].line);
                }
            }
            done += 1;
            stats.commits += 1;
            if *record_trace {
                trace.push(OpId::new(Tid(t as u32), i as u32));
            }
            // Another core's imminent ops also target the line: two cores
            // pull on it concurrently (coherence contention).
            let contended = |line: u32| lookahead.contended(t, line);

            let mut dt = timing.base_cycles as u64;
            match code[i] {
                Instr::Fence(_) => {}
                Instr::Load { addr } => {
                    let spec_hit = spec[t]
                        .iter()
                        .position(|e| e.idx == i as u32)
                        .map(|pos| spec[t].remove(pos));
                    let value = match spec_hit {
                        Some(e) if e.stale => {
                            stats.spec_stale += 1;
                            e.value
                        }
                        _ => {
                            // Store-buffer forwarding, else memory.
                            forwarded(code, info, &committed[t], oldest[t], i)
                                .unwrap_or_else(|| memory.read(addr.index(), t, vtime[t]))
                        }
                    };
                    values[info[i].load as usize] = value;

                    let line = info[i].line;
                    let out = cache.access(t, line, false, step);
                    if out.hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                    }
                    dt += cache.latency(&out) as u64;
                    if contended(line) {
                        stats.contention_events += 1;
                        if sched.contention_backoff_cycles > 0 {
                            dt += rng.gen_range(0..=sched.contention_backoff_cycles) as u64;
                        }
                    }
                    protocol_race(bug, &mut rng, &out, t, oldest, ops, step)?;

                    if *flush_overlay {
                        // The flushed value's store: base cost plus an L1
                        // hit in the private log region.
                        dt += timing.base_cycles as u64 + cache.config().hit_cycles as u64;
                        stats.flush_stores += 1;
                    }

                    // Instrumented chain timing.
                    if let (Some(chain), Some(pred)) = (info[i].chain, predictor.as_mut()) {
                        let chain = chain as usize;
                        let cands = &candidates[chain];
                        match cands.iter().position(|&c| c == value) {
                            Some(idx) => {
                                instr_cycles[t] += pred.chain_cost(chain, idx, &timing);
                            }
                            None => {
                                // Assertion path: the whole chain runs and
                                // the tail assertion fires.
                                instr_cycles[t] += cands.len() as u64
                                    * timing.chain_link_cycles as u64
                                    + timing.mispredict_cycles as u64;
                            }
                        }
                    }
                }
                Instr::Store { addr, value } => {
                    memory.write(
                        addr.index(),
                        Value::from(value),
                        t,
                        vtime[t],
                        t_count,
                        &mut rng,
                    );
                    let line = info[i].line;

                    // Invalidation traffic vs speculative loads. Without a
                    // load->load bug no load is ever performed early, so
                    // every queue is empty and there is nothing to do.
                    if bug.needs_speculation() {
                        for (u, entries) in spec.iter_mut().enumerate() {
                            if u == t {
                                // Own same-address stores force re-execution
                                // at commit (forwarding handles the value).
                                let before = entries.len();
                                entries.retain(|e| code[e.idx as usize].addr() != Some(addr));
                                stats.spec_squashed += (before - entries.len()) as u64;
                                continue;
                            }
                            let u_info = &ops[u];
                            let u_oldest = oldest[u];
                            // Bug 1's race window is only open while the
                            // S->M upgrade is in flight: the victim's *head*
                            // op is an uncommitted store to the invalidated
                            // line.
                            let pending_store_to_line = u_oldest < u_info.len()
                                && program.threads()[u][u_oldest].is_store()
                                && u_info[u_oldest].line == line;
                            let mut squashed = 0u64;
                            for e in entries.iter_mut() {
                                if e.stale || u_info[e.idx as usize].line != line {
                                    continue;
                                }
                                let keep_stale = match bug {
                                    BugKind::LoadLoadLsq => true,
                                    // The invalidation must land within the
                                    // few-cycle window while the upgrade
                                    // request is outstanding.
                                    BugKind::LoadLoadCoherence => {
                                        pending_store_to_line && rng.gen_bool(0.1)
                                    }
                                    _ => false,
                                };
                                if keep_stale {
                                    // Counted at commit via `spec_stale`.
                                    e.stale = true;
                                } else {
                                    e.idx = u32::MAX; // mark for removal
                                    squashed += 1;
                                }
                            }
                            if squashed > 0 {
                                entries.retain(|e| e.idx != u32::MAX);
                            }
                            stats.spec_squashed += squashed;
                        }
                    }

                    let out = cache.access(t, line, true, step);
                    if out.hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                    }
                    dt += cache.latency(&out) as u64;
                    if contended(line) {
                        stats.contention_events += 1;
                        if sched.contention_backoff_cycles > 0 {
                            dt += rng.gen_range(0..=sched.contention_backoff_cycles) as u64;
                        }
                    }
                    protocol_race(bug, &mut rng, &out, t, oldest, ops, step)?;
                }
            }

            // Core speed asymmetry (big.LITTLE): slow-cluster cores pay a
            // fixed factor on every operation.
            if !config.core_speed_percent.is_empty() {
                let speed = config.core_speed_percent[t % config.core_speed_percent.len()] as u64;
                dt = (dt * speed).div_ceil(100);
            }

            // Timing perturbations: per-op jitter, rare long stalls, OS
            // preemption. These displace this core in virtual time, which
            // is what shifts the race against the other cores.
            if sched.jitter > 0.0 {
                let factor = rng.gen_range(1.0 - sched.jitter..1.0 + sched.jitter);
                dt = ((dt as f64) * factor).round().max(1.0) as u64;
            }
            if sched.stall_prob > 0.0 && rng.gen_bool(sched.stall_prob) {
                dt += sched.stall_cycles as u64;
            }
            if let Some(os) = sched.os {
                if rng.gen_bool(os.preempt_prob) {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    dt += (-os.mean_slice_cycles * (1.0 - u).ln()).ceil() as u64;
                    stats.preemptions += 1;
                }
            }
            vtime[t] += dt;

            // Speculative early performs (only modelled when a load->load
            // bug needs them; correct squashing makes them invisible
            // otherwise).
            if bug.needs_speculation() && rng.gen_bool(sched.spec_prob) {
                let window_end = (oldest[t] + window).min(len);
                for j in oldest[t]..window_end {
                    if committed[t][j] {
                        continue;
                    }
                    let Instr::Load { addr } = code[j] else {
                        continue;
                    };
                    if spec[t].iter().any(|e| e.idx == j as u32) {
                        continue;
                    }
                    // Loads that would forward from the store buffer cannot
                    // be invalidated; skip them.
                    if forwarded(code, info, &committed[t], oldest[t], j).is_some() {
                        continue;
                    }
                    spec[t].push(SpecEntry {
                        idx: j as u32,
                        value: memory.read(addr.index(), t, vtime[t]),
                        stale: false,
                    });
                    stats.spec_performed += 1;
                    break;
                }
            }
        }

        // Signature epilogue: initialize + store each signature word.
        for (t, &words) in words_per_thread.iter().enumerate() {
            instr_cycles[t] += words as u64 * timing.sig_store_cycles as u64;
        }

        Ok(Execution {
            reads_from: loads.iter().copied().zip(values.iter().copied()).collect(),
            test_cycles: vtime.iter().copied().max().unwrap_or(0),
            instr_cycles: instr_cycles.iter().copied().max().unwrap_or(0),
            stats,
            trace,
        })
    }
}

/// The value store-buffer forwarding gives load `i`: that of the youngest
/// earlier store to its address that is still uncommitted. Stores before
/// the thread's `oldest` op are all committed, so the walk along the
/// same-address stores stops there.
fn forwarded(
    code: &[Instr],
    info: &[OpInfo],
    committed: &[bool],
    oldest: usize,
    i: usize,
) -> Option<Value> {
    let mut j = info[i].prev_store;
    while j != NO_OP && j as usize >= oldest {
        if let (false, Instr::Store { value, .. }) = (committed[j as usize], code[j as usize]) {
            return Some(Value::from(value));
        }
        j = info[j as usize].prev_store;
    }
    None
}

/// Injected bug 3: when an access evicted a dirty line — a writeback
/// (`PUTX`) is in flight — and another core's head op requests the same
/// line, the protocol wedges with probability `prob`.
fn protocol_race(
    bug: BugKind,
    rng: &mut SmallRng,
    out: &crate::AccessOutcome,
    committer: usize,
    oldest: &[usize],
    ops: &[Vec<OpInfo>],
    step: u64,
) -> Result<(), SimError> {
    let BugKind::ProtocolRace { prob } = bug else {
        return Ok(());
    };
    let Some(evicted) = out.evicted_dirty else {
        return Ok(());
    };
    let racing = ops.iter().enumerate().any(|(u, info)| {
        u != committer && oldest[u] < info.len() && info[oldest[u]].line == evicted
    });
    if racing && rng.gen_bool(prob) {
        return Err(SimError::ProtocolDeadlock {
            step,
            line: evicted,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_isa::{litmus, Addr};

    fn aggressive(config: SystemConfig) -> SystemConfig {
        config.with_aggressive_interleaving()
    }

    #[test]
    fn simulator_is_send_and_clonable_for_worker_pools() {
        // The campaign shards iterations across scoped threads by cloning
        // the instrumented simulator once per shard; both bounds are load-
        // bearing and must not regress.
        fn assert_send<T: Send>() {}
        fn assert_clone<T: Clone>() {}
        assert_send::<Simulator<'static>>();
        assert_clone::<Simulator<'static>>();
    }

    #[test]
    fn exhausted_step_budget_reports_livelock() {
        // The livelock guard is the engine-level watchdog: with a zeroed
        // budget every run must fail fast with `SimError::Livelock` instead
        // of committing a single operation, for any seed.
        let t = litmus::message_passing();
        let mut sim = Simulator::new(&t.program, SystemConfig::arm_soc().with_step_budget(0));
        for seed in 0..10 {
            match sim.run(seed) {
                Err(SimError::Livelock { step }) => assert_eq!(step, 1),
                other => panic!("expected livelock, got {other:?}"),
            }
        }
        // A sane budget on the same simulator state completes normally.
        let mut sim = Simulator::new(&t.program, SystemConfig::arm_soc());
        assert!(sim.run(0).is_ok());
    }

    #[test]
    fn cloned_simulator_replays_identically() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        let p = generate(&TestConfig::new(IsaKind::Arm, 2, 30, 16).with_seed(5));
        let mut original = Simulator::new(&p, SystemConfig::arm_soc());
        let mut clone = original.clone();
        for seed in 0..50 {
            let a = original.run(seed).unwrap();
            let b = clone.run(seed).unwrap();
            assert_eq!(a.reads_from, b.reads_from, "clone diverged at {seed}");
            assert_eq!(a.test_cycles, b.test_cycles);
        }
    }

    fn outcomes(
        program: &Program,
        config: SystemConfig,
        runs: u64,
    ) -> std::collections::BTreeSet<ReadsFrom> {
        let mut sim = Simulator::new(program, config);
        (0..runs)
            .map(|s| sim.run(s).expect("bug-free runs succeed").reads_from)
            .collect()
    }

    fn sb_relaxed_seen(program: &Program, config: SystemConfig, runs: u64) -> bool {
        // SB relaxed outcome: both loads read init.
        outcomes(program, config, runs)
            .iter()
            .any(|rf| rf.iter().all(|(_, v)| v.is_init()))
    }

    #[test]
    fn deterministic_given_seed() {
        let t = litmus::message_passing();
        let mut a = Simulator::new(&t.program, SystemConfig::arm_soc());
        let mut b = Simulator::new(&t.program, SystemConfig::arm_soc());
        for seed in 0..50 {
            assert_eq!(
                a.run(seed).unwrap().reads_from,
                b.run(seed).unwrap().reads_from
            );
        }
    }

    #[test]
    fn sc_forbids_sb_relaxed_outcome() {
        let t = litmus::store_buffering();
        assert!(!sb_relaxed_seen(
            &t.program,
            SystemConfig::sc_reference(),
            2000
        ));
    }

    #[test]
    fn tso_allows_sb_relaxed_outcome() {
        let t = litmus::store_buffering();
        assert!(sb_relaxed_seen(
            &t.program,
            aggressive(SystemConfig::x86_desktop()),
            2000
        ));
    }

    #[test]
    fn fences_restore_order_under_tso_and_weak() {
        let t = litmus::store_buffering_fenced();
        assert!(!sb_relaxed_seen(
            &t.program,
            aggressive(SystemConfig::x86_desktop()),
            2000
        ));
        assert!(!sb_relaxed_seen(
            &t.program,
            aggressive(SystemConfig::arm_soc()),
            2000
        ));
    }

    #[test]
    fn weak_allows_mp_stale_data_but_tso_does_not() {
        let t = litmus::message_passing();
        let stale = |config| {
            outcomes(&t.program, config, 3000).iter().any(|rf| {
                let flag = rf.value_of(OpId::new(Tid(1), 0)).unwrap();
                let data = rf.value_of(OpId::new(Tid(1), 1)).unwrap();
                !flag.is_init() && data.is_init()
            })
        };
        assert!(
            stale(SystemConfig::arm_soc()),
            "weak model should show MP relaxation"
        );
        assert!(!stale(SystemConfig::x86_desktop()), "TSO must order ld->ld");
    }

    #[test]
    fn every_loaded_value_is_a_static_candidate() {
        use mtc_gen::{generate, TestConfig};
        use mtc_instr::{analyze, SourcePruning};
        use mtc_isa::IsaKind;
        for (isa, config) in [
            (IsaKind::X86, SystemConfig::x86_desktop()),
            (IsaKind::Arm, SystemConfig::arm_soc()),
        ] {
            let p = generate(&TestConfig::new(isa, 4, 40, 8).with_seed(9));
            let analysis = analyze(&p, &SourcePruning::none());
            let mut sim = Simulator::new(&p, config);
            for seed in 0..200 {
                let exec = sim.run(seed).unwrap();
                for (load, v) in exec.reads_from.iter() {
                    let cands = analysis.candidates(load).unwrap();
                    assert!(
                        cands.contains(&v),
                        "{isa:?}: load {load} observed non-candidate {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn bug2_produces_stale_coherence_violations() {
        // Writer thread hammers one address; reader loads it repeatedly.
        // With the LSQ bug, some pair of same-address loads must read
        // anti-coherent values eventually.
        let mut b = mtc_isa::ProgramBuilder::new(1, mtc_isa::MemoryLayout::no_false_sharing());
        let mut t0 = b.thread(0);
        for _ in 0..10 {
            t0 = t0.store(Addr(0));
        }
        let mut t1 = b.thread(1);
        for _ in 0..10 {
            t1 = t1.load(Addr(0));
        }
        let p = b.build().unwrap();
        let config = aggressive(SystemConfig::gem5_x86()).with_bug(BugKind::LoadLoadLsq);
        let mut sim = Simulator::new(&p, config);
        let mut stale_seen = 0u64;
        for seed in 0..2000 {
            let exec = sim.run(seed).unwrap();
            stale_seen += exec.stats.spec_stale;
        }
        assert!(stale_seen > 0, "bug 2 never manifested in 2000 iterations");
    }

    #[test]
    fn bug3_crashes_under_tiny_cache() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        let p = generate(
            &TestConfig::new(IsaKind::X86, 7, 200, 64)
                .with_words_per_line(4)
                .with_seed(3),
        );
        let config = SystemConfig::gem5_x86()
            .with_cache(crate::CacheConfig::l1_1k())
            .with_bug(BugKind::ProtocolRace { prob: 0.02 });
        let mut sim = Simulator::new(&p, config);
        let crashed = (0..200).any(|seed| sim.run(seed).is_err());
        assert!(crashed, "bug 3 never deadlocked the protocol");
    }

    #[test]
    fn correct_system_never_crashes() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        let p = generate(
            &TestConfig::new(IsaKind::X86, 4, 100, 16)
                .with_words_per_line(4)
                .with_seed(5),
        );
        let mut sim = Simulator::new(
            &p,
            SystemConfig::gem5_x86().with_cache(crate::CacheConfig::l1_1k()),
        );
        for seed in 0..300 {
            sim.run(seed).expect("correct hardware must not crash");
        }
    }

    #[test]
    fn slow_cluster_cores_fall_behind() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        // 7 threads on the big.LITTLE ARM SoC: threads 4-6 land on the slow
        // A7 cluster and commit later on average.
        let p = generate(&TestConfig::new(IsaKind::Arm, 7, 40, 32).with_seed(3));
        let mut sim = Simulator::new(&p, SystemConfig::arm_soc());
        sim.set_trace(true);
        let mut fast_mean = 0.0;
        let mut slow_mean = 0.0;
        for seed in 0..50 {
            let exec = sim.run(seed).unwrap();
            let mut sums = [0usize; 7];
            let mut counts = [0usize; 7];
            for (at, op) in exec.trace.iter().enumerate() {
                sums[op.tid.index()] += at;
                counts[op.tid.index()] += 1;
            }
            fast_mean += (0..4)
                .map(|t| sums[t] as f64 / counts[t] as f64)
                .sum::<f64>()
                / 4.0;
            slow_mean += (4..7)
                .map(|t| sums[t] as f64 / counts[t] as f64)
                .sum::<f64>()
                / 3.0;
        }
        assert!(
            slow_mean > fast_mean * 1.1,
            "A7 threads should trail: fast {fast_mean:.0} vs slow {slow_mean:.0}"
        );
    }

    #[test]
    fn os_mode_preempts() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        let p = generate(&TestConfig::new(IsaKind::Arm, 4, 100, 32).with_seed(1));
        let mut sim = Simulator::new(&p, SystemConfig::arm_soc().with_os());
        let mut preemptions = 0;
        for seed in 0..50 {
            preemptions += sim.run(seed).unwrap().stats.preemptions;
        }
        assert!(preemptions > 0, "OS mode never preempted");
    }

    #[test]
    fn trace_records_every_commit_in_a_legal_order() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        let p = generate(&TestConfig::new(IsaKind::Arm, 3, 20, 8).with_seed(4));
        let mut sim = Simulator::new(&p, SystemConfig::arm_soc());
        sim.set_trace(true);
        for seed in 0..50 {
            let exec = sim.run(seed).unwrap();
            assert_eq!(exec.trace.len(), p.num_instrs());
            // Every instruction appears exactly once, and program-order
            // positions respect the MCM's ordering rule.
            let mut position = std::collections::HashMap::new();
            for (at, &op) in exec.trace.iter().enumerate() {
                assert!(position.insert(op, at).is_none(), "duplicate {op}");
            }
            for (op, instr) in p.iter_ops() {
                for later_idx in (op.idx + 1)..p.thread_len(op.tid) as u32 {
                    let later = OpId::new(op.tid, later_idx);
                    let later_instr = p.instr(later).unwrap();
                    if sim.config().mcm.orders(instr, later_instr) {
                        assert!(
                            position[&op] < position[&later],
                            "{op} must commit before {later}"
                        );
                    }
                }
            }
        }
        // Tracing off: empty trace.
        sim.set_trace(false);
        assert!(sim.run(99).unwrap().trace.is_empty());
    }

    #[test]
    fn nmca_allows_fenced_iriw_relaxation_mca_does_not() {
        // With fenced readers (loads ordered), disagreeing on the order of
        // the two independent writes requires non-MCA stores.
        let t = litmus::iriw_fenced();
        let relaxed = |rf: &ReadsFrom| {
            rf.value_of(OpId::new(Tid(2), 0)) == Some(Value(1))
                && rf.value_of(OpId::new(Tid(2), 2)) == Some(Value::INIT)
                && rf.value_of(OpId::new(Tid(3), 0)) == Some(Value(2))
                && rf.value_of(OpId::new(Tid(3), 2)) == Some(Value::INIT)
        };
        let seen = |config: SystemConfig, runs: u64| {
            let mut sim = Simulator::new(&t.program, config);
            (0..runs).any(|s| relaxed(&sim.run(s).unwrap().reads_from))
        };
        assert!(
            seen(
                SystemConfig::arm_soc_nmca().with_aggressive_interleaving(),
                6000
            ),
            "nMCA must expose the fenced-IRIW relaxation"
        );
        assert!(
            !seen(SystemConfig::arm_soc().with_aggressive_interleaving(), 6000),
            "MCA must never show fenced-IRIW relaxation"
        );
    }

    #[test]
    fn nmca_with_fences_exceeds_the_mca_checkers_model() {
        // KNOWN LIMITATION (the §8 store-atomicity caveat): the checker's
        // rf/fr edge set assumes multiple-copy atomicity, so a *legal*
        // fenced-IRIW relaxation on nMCA hardware is flagged as a cycle.
        // Validating fenced tests on non-MCA silicon needs the additional
        // dependency-edge machinery the paper cites ([10, 33]). Fence-free
        // generated tests — the paper's workload — stay sound (see
        // `nmca_executions_check_clean_under_weak`).
        use mtc_graph::{check_conventional, CheckOptions, TestGraphSpec};
        let t = litmus::iriw_fenced();
        let mut rf = ReadsFrom::new();
        rf.record(OpId::new(Tid(2), 0), Value(1));
        rf.record(OpId::new(Tid(2), 2), Value::INIT);
        rf.record(OpId::new(Tid(3), 0), Value(2));
        rf.record(OpId::new(Tid(3), 2), Value::INIT);
        let spec = TestGraphSpec::new(&t.program, mtc_isa::Mcm::Weak);
        let obs = spec.observe(&t.program, &rf, &CheckOptions::default());
        assert_eq!(
            check_conventional(&spec, &[obs], false).violation_count(),
            1,
            "the MCA checker flags the nMCA-legal fenced-IRIW outcome"
        );
    }

    #[test]
    fn nmca_executions_check_clean_under_weak() {
        use mtc_gen::{generate, TestConfig};
        use mtc_graph::{check_conventional, CheckOptions, TestGraphSpec};
        use mtc_isa::IsaKind;
        // The checker's edge set (no cross-thread ws, no intra-thread rf)
        // must stay sound for non-MCA weak hardware — exactly footnote 4's
        // concern, generalized.
        let test = TestConfig::new(IsaKind::Arm, 4, 30, 4).with_seed(11);
        let p = generate(&test);
        let spec = TestGraphSpec::new(&p, mtc_isa::Mcm::Weak);
        let mut sim = Simulator::new(
            &p,
            SystemConfig::arm_soc_nmca().with_aggressive_interleaving(),
        );
        let observations: Vec<_> = (0..400u64)
            .map(|s| {
                let rf = sim.run(s).unwrap().reads_from;
                spec.observe(&p, &rf, &CheckOptions::default())
            })
            .collect();
        let outcome = check_conventional(&spec, &observations, false);
        assert_eq!(
            outcome.violation_count(),
            0,
            "checker flagged a legal nMCA execution"
        );
    }

    #[test]
    fn flush_overlay_perturbs_interleavings() {
        use mtc_gen::{generate, TestConfig};
        use mtc_isa::IsaKind;
        use std::collections::BTreeSet;
        let p = generate(&TestConfig::new(IsaKind::Arm, 4, 50, 16).with_seed(6));
        let mut plain = Simulator::new(&p, SystemConfig::arm_soc());
        let mut flushing = Simulator::new(&p, SystemConfig::arm_soc());
        flushing.set_flush_overlay(true);
        let mut differs = false;
        let mut plain_set = BTreeSet::new();
        let mut flush_set = BTreeSet::new();
        for seed in 0..300 {
            let a = plain.run(seed).unwrap();
            let b = flushing.run(seed).unwrap();
            assert_eq!(b.stats.flush_stores, p.num_loads() as u64);
            assert_eq!(a.stats.flush_stores, 0);
            differs |= a.reads_from != b.reads_from;
            plain_set.insert(a.reads_from);
            flush_set.insert(b.reads_from);
        }
        assert!(differs, "flushing must perturb at least one interleaving");
        assert_ne!(plain_set, flush_set, "flushing shifts the population");
    }

    #[test]
    fn instrumentation_costs_cycles_but_not_outcomes() {
        use mtc_gen::{generate, TestConfig};
        use mtc_instr::{analyze, SignatureSchema, SourcePruning};
        use mtc_isa::IsaKind;
        let p = generate(&TestConfig::new(IsaKind::Arm, 2, 50, 32).with_seed(2));
        let schema = SignatureSchema::build(&p, &analyze(&p, &SourcePruning::none()), 32);
        let mut plain = Simulator::new(&p, SystemConfig::arm_soc());
        let mut instrumented = Simulator::new(&p, SystemConfig::arm_soc());
        instrumented.instrument(&schema);
        for seed in 0..100 {
            let a = plain.run(seed).unwrap();
            let b = instrumented.run(seed).unwrap();
            assert_eq!(
                a.reads_from, b.reads_from,
                "instrumentation must not perturb rf"
            );
            assert_eq!(a.instr_cycles, 0);
            assert!(b.instr_cycles > 0);
        }
        assert!(instrumented.predictor().unwrap().executed_links() > 0);
    }
}

//! The single-pass lockstep scan kernel of the reach phase.
//!
//! A speculative chunk scan must run `k` runs — one per possible initial
//! state — over the same bytes. Scanning per run costs `k` passes over the
//! chunk: every byte is classified `k` times and the text is pulled
//! through cache `k` times. This kernel makes **one** pass, advancing all
//! runs in lockstep and merging runs that have *converged* to the same
//! state (the state-convergence optimization of the data-parallel FSM
//! literature the paper's conclusion points at), so the per-byte cost
//! shrinks monotonically as runs die or merge — on realistic texts it
//! collapses from `k` towards 1 within a few hundred bytes.
//!
//! Design points, all in service of an allocation-free inner loop:
//!
//! * **Flat origin groups.** Runs currently sharing a state form a
//!   *group*. Each group's member origins are kept as an intrusive singly
//!   linked list in one flat `next_origin` array (one `u32` per origin,
//!   head/tail per group), so merging two groups is a constant-time link
//!   splice — no `Vec<Vec<u32>>` origin lists, no per-byte churn.
//! * **Generation-stamped dedup slots.** Per byte, target states are
//!   deduplicated through a slot array stamped with a monotonically
//!   increasing generation, avoiding an `O(table)` clear per byte.
//! * **Dead-run compaction.** Groups are compacted in place every byte;
//!   a group whose transition dies is simply not carried over, so the
//!   live-group prefix only ever shrinks.
//! * **Premultiplied rows.** Group state is tracked as a premultiplied
//!   row offset (`state * stride`, see
//!   [`Dfa::premultiplied_table`](ridfa_automata::dfa::Dfa::premultiplied_table)),
//!   making the transition a single indexed load `ptable[row + class]`.
//! * **Shared byte classification.** The chunk is translated byte→class
//!   block-wise (4 KiB at a time) into a stack buffer *once*, instead of
//!   every run paying a classifier lookup per byte
//!   ([`ByteClasses::classify_into`]).
//! * **Dependency-breaking finishes.** Once every run has died or merged
//!   into one group, or the partition has stopped changing, no more
//!   bookkeeping pays. A survivor on an *absorbing* row (every class
//!   leads back to it, like an accept-all `[\s\S]*` suffix) ends the
//!   chunk where it stands and is not walked. Each other survivor in
//!   turn takes `strided_walk`: 64 KiB windows, each cut into four
//!   interleaved strides whose speculative chains re-seed from the start
//!   row when they die, repaired against per-stride checkpoints. It
//!   keeps its buffers on the stack, so the scratch-less first chunk can
//!   call it too. On a rest below the walk's floor, two to four moving
//!   survivors instead advance as interleaved chains in one pass.
//!
//! The byte classifier is the one vectorized step (AVX2, detected at run
//! time, switched off by `RIDFA_NO_SIMD`); the kernel itself is the same
//! scalar code on every host.
//!
//! All working memory lives in a reusable per-worker [`Scratch`]; after
//! its first-use warm-up a scan performs **zero heap allocations**, which
//! `tests/kernel_alloc.rs` asserts with a counting global allocator.

use ridfa_automata::alphabet::ByteClasses;
use ridfa_automata::counter::Counter;
use ridfa_automata::{StateId, DEAD};

use super::budget::InterruptProbe;

/// Size of the stack-resident byte→class translation buffer. 4 KiB keeps
/// the buffer comfortably inside L1 alongside the group arrays.
pub(crate) const CLASS_BLOCK: usize = 4096;

/// Sentinel terminating a group's origin list.
const NONE: u32 = u32::MAX;

/// Which scan strategy executes a speculative chunk scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One independent pass per speculative start (the paper's baseline
    /// reach phase). Cheapest bookkeeping; cost is `k` passes over the
    /// chunk regardless of convergence.
    PerRun,
    /// The fused kernel: a single lockstep pass with convergence merging
    /// and block-wise shared byte classification, until one group is
    /// left or the partition is stable (no merge, no death for a
    /// horizon). A survivor on an absorbing row keeps that row to the
    /// chunk's end without a walk. Finishes that break the per-byte
    /// load-to-load dependency chain then move the others: each takes
    /// the windowed, re-seeding checkpoint-and-repair stride walk
    /// (`strided_walk`, Ko et al.) in turn, or, on a rest too short for
    /// the walk, two to four advance as interleaved chains. A first
    /// chunk's single run takes the same walk when this kernel resolves
    /// for it.
    LockstepShared,
    /// Pick per chunk via [`select`], from the number of runs, the chunk
    /// length and the table size.
    Auto,
}

impl Kernel {
    /// Short display name for `via …` reporting lines.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::PerRun => "per-run",
            Kernel::LockstepShared => "lockstep-shared",
            Kernel::Auto => "auto",
        }
    }
}

/// Chunk length from which [`select`] picks [`Kernel::LockstepShared`]
/// for any run count, one or two included: from here its finishes beat
/// the per-run serial loop. Shorter chunks follow the per-run rules.
pub const LOCKSTEP_ANY_RUNS_MIN_CHUNK: usize = 4096;

/// Chains interleaved by the few-survivor finishes (`multi_chain_finish`
/// and `strided_walk`). Four ~5-cycle dependent load chains saturate
/// the L1 load ports without spilling the row state out of registers.
const NUM_CHAINS: usize = 4;

/// Runs shorter than this skip `strided_walk` — a single run walks
/// byte-serially, two to four lockstep survivors interleaved: the repair
/// floor (one checkpoint interval per stride) would eat the latency win.
pub const STRIDE_MIN: usize = 8 * 1024;

/// Longest window of `strided_walk`. A window's four strides keep their
/// class buffers and checkpoints on the stack, and its speculative chains
/// start from the window's true entry row, so a wrong guess costs at most
/// one window.
pub const WINDOW: usize = 64 << 10;

/// Checkpoint spacing of `strided_walk`. Repair scans at most this many
/// bytes past the point where the true run meets a chain.
const CKPT_INTERVAL: usize = 256;

// The walk records checkpoints per interval inside each class segment,
// and repair compares them at the same stride offsets.
const _: () = assert!(CLASS_BLOCK.is_multiple_of(CKPT_INTERVAL));

/// Checkpoints one chain records in a full window: one at the end of
/// every full interval of its stride.
const WINDOW_CKPTS: usize = WINDOW / NUM_CHAINS / CKPT_INTERVAL;

/// Resolves [`Kernel::Auto`] for one chunk scan. The matrix is the same
/// on every host.
///
/// Any chunk of at least [`LOCKSTEP_ANY_RUNS_MIN_CHUNK`] bytes takes
/// [`Kernel::LockstepShared`], whatever the run count: merging beats
/// per-run passes at high run counts, and the strided and interleaved
/// finishes beat the serial load-to-load chain at low ones.
///
/// Shorter chunks keep small problems on the bookkeeping-free path:
///
/// * `k ≤ 2` — merging at most two runs can never pay for group
///   tracking, *no matter how large the table*: the lockstep pass would
///   pay per-byte dedup bookkeeping on a scan that is at worst two plain
///   row walks. Scan per run. (Checked first — an earlier version tested
///   the table size before this bail-out and sent 1–2-run scans over big
///   tables through `LockstepShared` for nothing.)
/// * large tables (> 1 MiB) — `k ≥ 3` per-run passes thrash the cache
///   with `k` disjoint row walks; the single lockstep pass touches each
///   hot row once per byte, so prefer it even for short chunks.
/// * short chunks (`len < 64` or `len < 4·k`) — runs have no room to
///   converge, so the lockstep pass would do `k` transitions per byte
///   *plus* dedup work; scan per run.
/// * otherwise — the fused lockstep kernel with shared classification.
pub fn select(num_runs: usize, chunk_len: usize, table_entries: usize) -> Kernel {
    const LARGE_TABLE_ENTRIES: usize = (1 << 20) / std::mem::size_of::<StateId>();
    if chunk_len >= LOCKSTEP_ANY_RUNS_MIN_CHUNK && num_runs >= 1 {
        return Kernel::LockstepShared;
    }
    if num_runs <= 2 {
        return Kernel::PerRun;
    }
    if table_entries >= LARGE_TABLE_ENTRIES {
        return Kernel::LockstepShared;
    }
    if chunk_len < 64 || chunk_len < 4 * num_runs {
        return Kernel::PerRun;
    }
    Kernel::LockstepShared
}

/// The strategy [`scan_into`] actually runs for a `configured` kernel on
/// a chunk of `chunk_len` bytes with `runs` speculative starts:
/// [`Kernel::Auto`] goes through [`select`], and a pinned kernel runs as
/// pinned. Never `Auto`. Chunk automata report this as their effective
/// kernel, so what a caller is told ran and what ran come from one
/// decision.
pub fn resolve(configured: Kernel, runs: usize, chunk_len: usize, table_entries: usize) -> Kernel {
    match configured {
        Kernel::Auto => select(runs, chunk_len, table_entries),
        pinned => pinned,
    }
}

/// The dense transition structure a kernel scan reads. Borrowed from a
/// [`Dfa`](ridfa_automata::dfa::Dfa) or an
/// [`RiDfa`](crate::ridfa::RiDfa) — both share the flat
/// `state * stride + class` layout.
#[derive(Clone, Copy)]
pub struct DenseTable<'a> {
    /// Premultiplied table: entries are `target * stride` (see
    /// `premultiplied_table`). Row 0 is the dead state.
    pub ptable: &'a [StateId],
    /// Row stride = number of byte classes.
    pub stride: usize,
    /// The byte→class map the table is compressed with.
    pub classes: &'a ByteClasses,
    /// Premultiplied row of the automaton's start state
    /// (`start * stride`). A first-chunk scan runs from it, and
    /// `strided_walk` re-seeds a speculative chain that dies here: a
    /// record of a record-structured text begins in the start state, so
    /// the chain resyncs at the next record instead of staying dead.
    pub start_row: usize,
}

/// Reusable per-worker working memory of the lockstep kernel.
///
/// All vectors grow to the high-water mark of the automata scanned and
/// then stay put: after this warm-up a scan allocates nothing. One
/// `Scratch` must not be shared between concurrent scans (each reach
/// claimant owns one; see [`Session`](super::Session)).
#[derive(Debug, Default)]
pub struct Scratch {
    /// Premultiplied row offset of each live group (compacted prefix).
    rows: Vec<StateId>,
    /// First origin of each group's member list.
    heads: Vec<u32>,
    /// Last origin of each group's member list (for O(1) splicing).
    tails: Vec<u32>,
    /// Intrusive linked list over origins: `next_origin[o]` = next member
    /// of o's group, [`NONE`] at the tail.
    next_origin: Vec<u32>,
    /// Generation stamp per table row; a slot is live iff its stamp
    /// equals the current generation.
    slot_gen: Vec<u64>,
    /// Group index the stamped row currently maps to.
    slot_idx: Vec<u32>,
    /// Monotonic generation counter (u64: never wraps in practice).
    generation: u64,
    /// Stack-sized class translation buffer, heap-allocated once so
    /// `Scratch` stays `Default` + cheap to construct.
    class_buf: Vec<u8>,
    /// Interrupt probe of the budgeted call currently driving this
    /// scratch, checked once per classification block. `None` (the
    /// default and the unbudgeted state) keeps the hot loops untouched.
    interrupt: Option<InterruptProbe>,
}

impl Scratch {
    /// Arms (`Some`) or clears (`None`) the deadline/cancellation probe
    /// consulted by kernel scans through this scratch. Budgeted executors
    /// set it on every chunk claim; passing `None` costs one store.
    pub fn set_interrupt(&mut self, probe: Option<InterruptProbe>) {
        self.interrupt = probe;
    }
    /// Clears the group arrays and grows everything to serve `table_len`
    /// rows and `num_origins` origins. Capacity only ever grows —
    /// repeated scans of the same automaton allocate nothing.
    fn warm_up(&mut self, table_len: usize, num_origins: usize) {
        if self.slot_gen.len() < table_len {
            self.slot_gen.resize(table_len, 0);
            self.slot_idx.resize(table_len, 0);
        }
        if self.next_origin.len() < num_origins {
            self.next_origin.resize(num_origins, NONE);
        }
        self.rows.clear();
        self.heads.clear();
        self.tails.clear();
        // At most one group per origin can ever exist.
        self.rows.reserve(num_origins);
        self.heads.reserve(num_origins);
        self.tails.reserve(num_origins);
        if self.class_buf.len() < CLASS_BLOCK {
            self.class_buf.resize(CLASS_BLOCK, 0);
        }
    }
}

/// Scans `chunk` speculatively from every `(origin, start)` pair and
/// writes the λ mapping into `out`: `out[origin]` = last active state of
/// the run started at `start`, [`DEAD`] if it died. `out` is cleared and
/// resized to `num_origins` first (no allocation once its capacity has
/// warmed up).
///
/// `kernel` picks the strategy through [`resolve`], with `num_origins`
/// as the run count (`starts` is not re-iterable); a caller that starts
/// fewer runs than it has origins passes its own resolved kernel, which
/// `resolve` returns unchanged. Counts are exact executed transitions;
/// the serial, strided and interleaved walks add theirs from loop
/// indices when a phase exits (a run's end or death, a checkpoint
/// interval, a classified segment), not per byte. Per strategy:
///
/// * per-run: every live transition of every run — the paper's `k`-pass
///   reach-phase workload measure;
/// * lockstep: the work actually executed — one per *group* advance
///   while runs merge, then every live transition of each finishing
///   chain, stride-walk speculation that repair discards included. A
///   survivor on an absorbing row counts nothing past the merge phase:
///   it is not walked.
#[allow(clippy::too_many_arguments)] // the kernel entry point is the hot seam; a config struct would cost a rebuild of every caller's borrows
pub fn scan_into(
    table: DenseTable<'_>,
    starts: impl Iterator<Item = (u32, StateId)>,
    num_origins: usize,
    chunk: &[u8],
    kernel: Kernel,
    scratch: &mut Scratch,
    counter: &mut impl Counter,
    out: &mut Vec<StateId>,
) {
    out.clear();
    out.resize(num_origins, DEAD);
    debug_assert!(table.ptable.len().is_multiple_of(table.stride.max(1)));
    match resolve(kernel, num_origins, chunk.len(), table.ptable.len()) {
        Kernel::PerRun => per_run_scan(
            table,
            starts,
            chunk,
            scratch.interrupt.as_ref(),
            counter,
            out,
        ),
        Kernel::LockstepShared => lockstep_scan(table, starts, chunk, scratch, counter, out),
        Kernel::Auto => unreachable!("resolve never returns Auto"),
    }
}

/// Runs one premultiplied row serially over `bytes`: one indexed load per
/// byte. Returns the final row, or `0` (the dead row, whose state is
/// [`DEAD`]) if the run died. On exit it counts the live transitions it
/// executed: the bytes it walked before the one it died at, or all of
/// them. Shared by the per-run strategy and the lockstep finishing loop
/// so their counting and death semantics can never diverge.
#[inline(always)]
fn run_row_serial(
    table: DenseTable<'_>,
    mut row: usize,
    bytes: &[u8],
    counter: &mut impl Counter,
) -> usize {
    for (walked, &byte) in bytes.iter().enumerate() {
        let next = table.ptable[row + table.classes.get(byte) as usize];
        if next == 0 {
            counter.add(walked as u64);
            return 0;
        }
        row = next as usize;
    }
    counter.add(bytes.len() as u64);
    row
}

/// Segmented interruptible row run: like [`run_row_serial`] but checks
/// the probe once per [`CLASS_BLOCK`]. Only reached when a budget is
/// armed, so the unbudgeted hot loop stays byte-identical. On a trip the
/// partial row is returned — the budgeted caller discards the whole
/// mapping anyway.
fn run_row_interruptible(
    table: DenseTable<'_>,
    mut row: usize,
    bytes: &[u8],
    counter: &mut impl Counter,
    probe: &InterruptProbe,
) -> usize {
    for segment in bytes.chunks(CLASS_BLOCK) {
        if probe.should_stop() {
            break;
        }
        row = run_row_serial(table, row, segment, counter);
        if row == 0 {
            break;
        }
    }
    row
}

/// [`run_row_serial`], or [`run_row_interruptible`] when a probe is armed.
fn run_row(
    table: DenseTable<'_>,
    row: usize,
    bytes: &[u8],
    probe: Option<&InterruptProbe>,
    counter: &mut impl Counter,
) -> usize {
    match probe {
        None => run_row_serial(table, row, bytes, counter),
        Some(p) => run_row_interruptible(table, row, bytes, counter, p),
    }
}

/// The single run of a first chunk, from [`DenseTable::start_row`]:
/// through [`strided_walk`] where `kernel` resolves to
/// [`Kernel::LockstepShared`] for one run, byte-serially otherwise — so
/// [`Kernel::PerRun`] keeps the paper's transition counts. Returns the
/// last state, [`DEAD`] if the run died.
pub(crate) fn scan_first(
    table: DenseTable<'_>,
    kernel: Kernel,
    chunk: &[u8],
    counter: &mut impl Counter,
) -> StateId {
    let row = match resolve(kernel, 1, chunk.len(), table.ptable.len()) {
        Kernel::LockstepShared => strided_walk(table, table.start_row, chunk, None, counter),
        _ => run_row_serial(table, table.start_row, chunk, counter),
    };
    (row / table.stride) as StateId
}

/// Runs one premultiplied row over `bytes` like [`run_row_serial`] —
/// same final row, `0` if the run died — but breaks the one-load-per-byte
/// dependency chain with a checkpointed strided walk (Ko et al.). An
/// armed `probe` is checked once per [`CLASS_BLOCK`] of each stride; on a
/// trip the partial row is returned, which the budgeted caller discards.
///
/// The bytes are cut into balanced windows of at most [`WINDOW`] bytes,
/// walked in order. A window is split into [`NUM_CHAINS`] strides that
/// advance interleaved, so their dependent loads overlap:
///
/// * chain 0 walks stride 0 from the window's true entry row;
/// * chains 1–3 *speculate*: each walks its stride from the same entry
///   row as a guess and records its row at the end of every full
///   [`CKPT_INTERVAL`]. A chain that dies is re-seeded at the next byte
///   from [`DenseTable::start_row`] — on record-structured text it
///   resyncs at the next record — and the byte it died at is remembered.
///   The re-seed is a rarely taken branch, off the chains' load path.
/// * Repair then walks strides 1–3 from the true row, an interval at a
///   time, until the true row equals the chain's checkpoint. By
///   determinism both share one trajectory from there, so the chain's
///   end row is the true one — unless the chain died after that
///   checkpoint, in which case the true run dies at that same byte.
///
/// Counts are the executed transitions of every chain, speculation the
/// repair discards included, added per checkpoint interval as
/// `4 × steps − deaths`: the re-seed branch sees every death.
pub(crate) fn strided_walk(
    table: DenseTable<'_>,
    mut row: usize,
    bytes: &[u8],
    probe: Option<&InterruptProbe>,
    counter: &mut impl Counter,
) -> usize {
    if bytes.len() < STRIDE_MIN {
        return run_row(table, row, bytes, probe, counter);
    }
    // Balanced windows: with more than one, none is shorter than half a
    // window, so each stays well above STRIDE_MIN.
    let window_len = bytes.len().div_ceil(bytes.len().div_ceil(WINDOW));
    for window in bytes.chunks(window_len) {
        if row == 0 {
            break; // dead is absorbing
        }
        row = walk_window(table, row, window, probe, counter);
    }
    row
}

/// One window of [`strided_walk`], entered at the true row `entry`.
fn walk_window(
    table: DenseTable<'_>,
    entry: usize,
    window: &[u8],
    probe: Option<&InterruptProbe>,
    counter: &mut impl Counter,
) -> usize {
    debug_assert!((STRIDE_MIN..=WINDOW).contains(&window.len()));
    let ptable = table.ptable;
    let stride_len = window.len() / NUM_CHAINS;
    // The strides' classes of the current segment, every chain's row at
    // each full interval's end, and the offset just past the byte each
    // chain last died at (0: never died).
    let mut class_bufs = [[0u8; CLASS_BLOCK]; NUM_CHAINS];
    let mut ckpt = [[0usize; NUM_CHAINS]; WINDOW_CKPTS];
    let mut died = [0usize; NUM_CHAINS];
    let mut r = [entry; NUM_CHAINS];
    let mut n_ckpt = 0;
    for seg_start in (0..stride_len).step_by(CLASS_BLOCK) {
        if probe.is_some_and(|p| p.should_stop()) {
            return r[0]; // abandoned: the budgeted caller discards the mapping
        }
        let seg_len = (stride_len - seg_start).min(CLASS_BLOCK);
        for (j, buf) in class_bufs.iter_mut().enumerate() {
            let from = j * stride_len + seg_start;
            table
                .classes
                .classify_into(&window[from..from + seg_len], buf);
        }
        for at in (0..seg_len).step_by(CKPT_INTERVAL) {
            let end = (at + CKPT_INTERVAL).min(seg_len);
            // Chain steps of this interval that died: every other step
            // executed a live transition.
            let mut deaths = 0;
            for k in at..end {
                r = [
                    ptable[r[0] + class_bufs[0][k] as usize] as usize,
                    ptable[r[1] + class_bufs[1][k] as usize] as usize,
                    ptable[r[2] + class_bufs[2][k] as usize] as usize,
                    ptable[r[3] + class_bufs[3][k] as usize] as usize,
                ];
                if (r[0] == 0) | (r[1] == 0) | (r[2] == 0) | (r[3] == 0) {
                    deaths += r.iter().filter(|&&row| row == 0).count();
                    if r[0] == 0 {
                        // The true run died.
                        counter.add((NUM_CHAINS * (k + 1 - at) - deaths) as u64);
                        return 0;
                    }
                    for (chain, died) in r.iter_mut().zip(&mut died).skip(1) {
                        if *chain == 0 {
                            *chain = table.start_row;
                            *died = seg_start + k + 1;
                        }
                    }
                }
            }
            counter.add((NUM_CHAINS * (end - at) - deaths) as u64);
            if end - at == CKPT_INTERVAL {
                ckpt[n_ckpt] = r;
                n_ckpt += 1;
            }
        }
    }

    // Repair: resolve the true row stride by stride.
    let mut cur = r[0];
    'strides: for j in 1..NUM_CHAINS {
        let stride = &window[j * stride_len..][..stride_len];
        for (t, interval) in stride.chunks(CKPT_INTERVAL).enumerate() {
            if t % (CLASS_BLOCK / CKPT_INTERVAL) == 0 && probe.is_some_and(|p| p.should_stop()) {
                return cur; // abandoned: the partial row is discarded
            }
            cur = run_row_serial(table, cur, interval, counter);
            if cur == 0 {
                return 0; // dead is absorbing
            }
            if interval.len() == CKPT_INTERVAL && cur == ckpt[t][j] {
                // The true run meets chain j here and follows it: to its
                // end row, or to the byte it died at after this point.
                if died[j] > (t + 1) * CKPT_INTERVAL {
                    return 0;
                }
                cur = r[j];
                continue 'strides;
            }
        }
        // No checkpoint matched: `cur` was rescanned to the stride's end
        // and is the true row; the speculation is discarded.
    }
    // The division remainder (< NUM_CHAINS bytes) after the last stride.
    run_row_serial(table, cur, &window[NUM_CHAINS * stride_len..], counter)
}

/// The baseline strategy: each run scans the whole chunk independently.
fn per_run_scan(
    table: DenseTable<'_>,
    starts: impl Iterator<Item = (u32, StateId)>,
    chunk: &[u8],
    interrupt: Option<&InterruptProbe>,
    counter: &mut impl Counter,
    out: &mut [StateId],
) {
    let stride = table.stride;
    for (origin, start) in starts {
        if start == DEAD {
            continue;
        }
        if interrupt.is_some_and(|p| p.should_stop()) {
            return; // abandoned: the caller discards the mapping
        }
        let row = run_row(table, start as usize * stride, chunk, interrupt, counter);
        out[origin as usize] = (row / stride) as StateId;
    }
}

/// The fused strategy: one pass, all runs in lockstep, converged runs
/// merged, with the chunk pre-classified block-wise.
fn lockstep_scan(
    table: DenseTable<'_>,
    starts: impl Iterator<Item = (u32, StateId)>,
    chunk: &[u8],
    scratch: &mut Scratch,
    counter: &mut impl Counter,
    out: &mut [StateId],
) {
    scratch.warm_up(table.ptable.len(), out.len());
    let stride = table.stride;
    let mut len = seed_groups(scratch, starts, stride);
    let mut consumed = 0;
    // Split borrows: the class buffer must be readable while the group
    // arrays are advanced.
    let mut class_buf = std::mem::take(&mut scratch.class_buf);
    // Partition-stabilization cutover: convergence happens in early
    // bursts (runs die or merge within the first few dozen bytes on
    // realistic texts). Once no group has merged or died for a full
    // horizon, the survivors are tracking distinct trajectories and
    // further convergence is unlikely — stop paying per-byte dedup
    // bookkeeping and finish each group with the lean walks below, so
    // lockstep never loses badly to per-run scanning.
    const STABLE_HORIZON: usize = 256;
    let mut since_change = 0;
    'blocks: while consumed < chunk.len() && len > 1 {
        if scratch.interrupt.as_ref().is_some_and(|p| p.should_stop()) {
            break 'blocks;
        }
        let block = &chunk[consumed..(consumed + CLASS_BLOCK).min(chunk.len())];
        table.classes.classify_into(block, &mut class_buf);
        for &class in &class_buf[..block.len()] {
            let next_len = advance(table.ptable, scratch, len, class, counter);
            consumed += 1;
            since_change = if next_len == len { since_change + 1 } else { 0 };
            len = next_len;
            if len <= 1 || since_change >= STABLE_HORIZON {
                break 'blocks;
            }
        }
    }
    scratch.class_buf = class_buf;

    // The finishes, once one group is left or the partition is stable.
    // A survivor on an absorbing row ends the chunk where it stands, so
    // it is moved past the survivors that still move and walked by none
    // of them. Those take the stride walk in turn; below the walk's
    // floor, where that would be one serial loop per survivor, two to
    // four advance interleaved instead. A group that dies parks on row 0,
    // whose state is DEAD — exactly what its origins should map to.
    // Merging before walking trades never-merging languages for pruned
    // wide interfaces. Measured on a 2-core AVX2 Xeon: RID
    // interiors under `Auto` at 16 positions of a 4 MiB text, medians of
    // 11 pairs alternated with a kernel that gathered eight rows per
    // byte, stopped merging at four groups and skipped merging when four
    // or fewer runs started (ns/B, that kernel → this one):
    // * traffic under feasible-start: 3.76 → 2.86 at 4 KiB, 2.32 → 1.50
    //   at 16 KiB, 1.69 → 1.12 at 64 KiB, 1.77 → 1.18 at 512 KiB, at an
    //   exact 1.01–1.05 transitions/B against 1.14–1.33: its few pruned
    //   seeds merge before they are walked;
    // * fasta under lockstep: 5.08 → 3.94 at 4 KiB, 3.51 → 3.34 at
    //   16 KiB, 0.89–1.01× as fast at 64–512 KiB, where neither side won
    //   more than 6 of 11 pairs;
    // * never-merging counters `([ab]{n})*`, n = 3, 6, 16, 32: 0.47–0.64×
    //   as fast at 4 KiB; at 512 KiB 0.69× (n = 6) down to 0.42×
    //   (n = 32), as the walk's chains guess the wrong phase and repair
    //   rescans whole strides (56 transitions/B against 32 at n = 32);
    //   n = 3 at 16–64 KiB and n = 6 at 64 KiB run 1.5–2.2× faster.
    // The small-chunk cost is only partly the merging phase's
    // STABLE_HORIZON, which the gathering kernel skipped when four or
    // fewer runs started: with a 32-byte horizon (5 pairs), n = 3 at
    // 4 KiB ran 1.28× faster, n = 6–32 only 1.09–1.10×, and traffic from
    // 16 KiB up 0.75–0.86× as fast.
    // Every bible and fasta interior ends the merge phase with two
    // survivors, one of them the accept-all `[\s\S]*` suffix. Leaving
    // that one where it stands took bible's interiors, at the same
    // positions on the same host (3 runs alternated with a kernel that
    // walked both), from 2.03–2.25 to 1.02–1.22 executed transitions/B
    // at 4–512 KiB, and from 3.1–3.7 to 1.1–1.9 ns/B at 0.5–1 MiB;
    // fasta's from 2.00–2.14 to 1.01–1.11 transitions/B.
    if consumed < chunk.len() {
        let rest = &chunk[consumed..];
        let moving = park_absorbing(table, scratch, len);
        if (2..=NUM_CHAINS).contains(&moving) && rest.len() < STRIDE_MIN {
            multi_chain_finish(table, scratch, moving, rest, counter);
        } else {
            let probe = scratch.interrupt.as_ref();
            for row in &mut scratch.rows[..moving] {
                *row = strided_walk(table, *row as usize, rest, probe, counter) as StateId;
            }
        }
    }

    write_mapping(scratch, len, stride, out);
}

/// Moves the groups among the first `len` whose row is absorbing (each
/// of its `stride` entries points back to it) behind the rest, and
/// returns how many still move. An absorbing group's end state is its
/// row whatever bytes follow, so the finishes skip it and count nothing
/// for it.
fn park_absorbing(table: DenseTable<'_>, scratch: &mut Scratch, len: usize) -> usize {
    let mut moving = len;
    let mut g = 0;
    while g < moving {
        let row = scratch.rows[g] as usize;
        if table.ptable[row..row + table.stride]
            .iter()
            .all(|&next| next as usize == row)
        {
            moving -= 1;
            scratch.rows.swap(g, moving);
            scratch.heads.swap(g, moving);
            scratch.tails.swap(g, moving);
        } else {
            g += 1;
        }
    }
    moving
}

/// Runs the 2..=[`NUM_CHAINS`] surviving groups to the end of the chunk
/// as *interleaved* independent chains: one shared classification pass,
/// one loop, [`NUM_CHAINS`] in-flight loads per byte (unused chains are
/// parked on the absorbing dead row and never counted). Replaces walking
/// the rest `len` times, with a bare dependency chain each. Each
/// classified segment counts, per chain live at its start, the segment's
/// length, or the bytes before its death byte, which a replay of the
/// segment finds for a chain that died inside it.
fn multi_chain_finish(
    table: DenseTable<'_>,
    scratch: &mut Scratch,
    len: usize,
    rest: &[u8],
    counter: &mut impl Counter,
) {
    debug_assert!((2..=NUM_CHAINS).contains(&len));
    let ptable = table.ptable;
    let mut r = [0usize; NUM_CHAINS];
    for (chain, &row) in r.iter_mut().zip(&scratch.rows[..len]) {
        *chain = row as usize;
    }
    let mut class_buf = std::mem::take(&mut scratch.class_buf);
    let probe = scratch.interrupt.clone();
    for seg in rest.chunks(CLASS_BLOCK) {
        if probe.as_ref().is_some_and(|p| p.should_stop()) {
            break; // abandoned: the budgeted caller discards the mapping
        }
        table.classes.classify_into(seg, &mut class_buf);
        let classes = &class_buf[..seg.len()];
        let entry = r;
        for &class in classes {
            let c = class as usize;
            r = [
                ptable[r[0] + c] as usize,
                ptable[r[1] + c] as usize,
                ptable[r[2] + c] as usize,
                ptable[r[3] + c] as usize,
            ];
        }
        for (&from, &to) in entry.iter().zip(&r) {
            if from != 0 {
                let walked = if to != 0 {
                    classes.len()
                } else {
                    steps_before_death(ptable, from, classes)
                };
                counter.add(walked as u64);
            }
        }
    }
    scratch.class_buf = class_buf;
    for (row, &chain) in scratch.rows[..len].iter_mut().zip(&r) {
        *row = chain as StateId;
    }
}

/// How many of `classes` the premultiplied `row` walks before its death
/// byte, for [`multi_chain_finish`]'s count of a chain that died.
fn steps_before_death(ptable: &[StateId], mut row: usize, classes: &[u8]) -> usize {
    for (walked, &class) in classes.iter().enumerate() {
        row = ptable[row + class as usize] as usize;
        if row == 0 {
            return walked;
        }
    }
    classes.len()
}

/// Builds the initial origin groups from the `(origin, start)` pairs:
/// distinct starts may already coincide (delegated interface states, for
/// instance), so they are deduplicated through the generation slots.
/// Returns the live-group count.
fn seed_groups(
    scratch: &mut Scratch,
    starts: impl Iterator<Item = (u32, StateId)>,
    stride: usize,
) -> usize {
    scratch.generation += 1;
    let generation = scratch.generation;
    for (origin, start) in starts {
        if start == DEAD {
            continue; // defensive: a dead start maps to DEAD, run nothing
        }
        scratch.next_origin[origin as usize] = NONE;
        let row = start as usize * stride;
        if scratch.slot_gen[row] == generation {
            let g = scratch.slot_idx[row] as usize;
            scratch.next_origin[scratch.tails[g] as usize] = origin;
            scratch.tails[g] = origin;
        } else {
            scratch.slot_gen[row] = generation;
            scratch.slot_idx[row] = scratch.rows.len() as u32;
            scratch.rows.push(row as StateId);
            scratch.heads.push(origin);
            scratch.tails.push(origin);
        }
    }
    scratch.rows.len()
}

/// Writes the final mapping: walks each surviving group's origin list
/// and records the group's state. Dead origins keep the DEAD the caller
/// pre-filled.
fn write_mapping(scratch: &Scratch, len: usize, stride: usize, out: &mut [StateId]) {
    for g in 0..len {
        let state = (scratch.rows[g] as usize / stride) as StateId;
        let mut origin = scratch.heads[g];
        while origin != NONE {
            out[origin as usize] = state;
            origin = scratch.next_origin[origin as usize];
        }
    }
}

/// Advances all `len` live groups by one byte class, merging groups that
/// land on the same target row and compacting out groups that die.
/// Returns the new live-group count.
#[inline(always)]
fn advance(
    ptable: &[StateId],
    scratch: &mut Scratch,
    len: usize,
    class: u8,
    counter: &mut impl Counter,
) -> usize {
    scratch.generation += 1;
    let generation = scratch.generation;
    let mut write = 0;
    for read in 0..len {
        let target = ptable[scratch.rows[read] as usize + class as usize];
        if target == 0 {
            continue; // the group died: its origins stay DEAD
        }
        counter.incr();
        let slot = target as usize;
        if scratch.slot_gen[slot] == generation {
            // Converged with an already-advanced group: splice the origin
            // lists in O(1). `idx < write ≤ read`, so both live in the
            // compacted prefix.
            let idx = scratch.slot_idx[slot] as usize;
            scratch.next_origin[scratch.tails[idx] as usize] = scratch.heads[read];
            scratch.tails[idx] = scratch.tails[read];
        } else {
            scratch.slot_gen[slot] = generation;
            scratch.slot_idx[slot] = write as u32;
            scratch.rows[write] = target;
            scratch.heads[write] = scratch.heads[read];
            scratch.tails[write] = scratch.tails[read];
            write += 1;
        }
    }
    write
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridfa_automata::dfa::powerset::determinize;
    use ridfa_automata::dfa::Dfa;
    use ridfa_automata::nfa::glushkov;
    use ridfa_automata::regex::parse;
    use ridfa_automata::{NoCount, TransitionCount};

    fn dfa_for(pattern: &str) -> Dfa {
        determinize(&glushkov::build(&parse(pattern).unwrap()).unwrap())
    }

    fn dense<'a>(dfa: &'a Dfa, ptable: &'a [StateId]) -> DenseTable<'a> {
        DenseTable {
            ptable,
            stride: dfa.stride(),
            classes: dfa.classes(),
            start_row: dfa.start() as usize * dfa.stride(),
        }
    }

    fn scan(dfa: &Dfa, chunk: &[u8], kernel: Kernel) -> (Vec<StateId>, u64) {
        let ptable = dfa.premultiplied_table();
        let table = dense(dfa, &ptable);
        let mut scratch = Scratch::default();
        let mut counter = TransitionCount::default();
        let mut out = Vec::new();
        scan_into(
            table,
            dfa.live_states().map(|s| (s, s)),
            dfa.num_states(),
            chunk,
            kernel,
            &mut scratch,
            &mut counter,
            &mut out,
        );
        (out, counter.get())
    }

    /// Oracle: the naive per-run scan through the unfused `Dfa` API.
    fn oracle(dfa: &Dfa, chunk: &[u8]) -> Vec<StateId> {
        let mut mapping = vec![DEAD; dfa.num_states()];
        for s in dfa.live_states() {
            mapping[s as usize] = dfa.run_from(s, chunk, &mut NoCount);
        }
        mapping
    }

    #[test]
    fn all_kernels_match_the_oracle() {
        // The last pattern's accept-all state is absorbing: on `ab…` its
        // runs park there, ahead of the never-merging `(ab)*` phases,
        // which still move.
        for pattern in [
            "(a|b)*abb",
            "a{2,4}b*",
            "[ab]*a[ab][ab]",
            "abc",
            r"a[\s\S]*|b(ab)*",
        ] {
            let dfa = dfa_for(pattern);
            for chunk in [
                &b""[..],
                b"a",
                b"abab",
                b"zzz",
                b"abbabbabbabb",
                &b"ab".repeat(3000),
                // Long enough to reach the strided walk of the survivors
                // (> STRIDE_MIN bytes past convergence).
                &b"ab".repeat(20_000),
            ] {
                let expected = oracle(&dfa, chunk);
                for kernel in [Kernel::PerRun, Kernel::LockstepShared, Kernel::Auto] {
                    let (got, _) = scan(&dfa, chunk, kernel);
                    assert_eq!(
                        got,
                        expected,
                        "{pattern} {kernel:?} on {:?}…",
                        &chunk[..chunk.len().min(8)]
                    );
                }
            }
        }
    }

    #[test]
    fn per_run_counts_match_plain_scan_semantics() {
        // No run over {a,b} text can die in this language, so the per-run
        // kernel must count exactly k × |chunk|.
        let dfa = dfa_for("[ab]*a[ab][ab]");
        let chunk = b"abab";
        let (_, count) = scan(&dfa, chunk, Kernel::PerRun);
        assert_eq!(count, (dfa.num_live_states() * chunk.len()) as u64);
    }

    #[test]
    fn lockstep_executes_fewer_transitions_on_converging_text() {
        let dfa = dfa_for("(a|b)*abb");
        let chunk = b"ab".repeat(512);
        let (_, per_run) = scan(&dfa, &chunk, Kernel::PerRun);
        let (_, lockstep) = scan(&dfa, &chunk, Kernel::LockstepShared);
        assert!(
            lockstep < per_run,
            "lockstep {lockstep} must beat per-run {per_run}"
        );
        // Fully converged tail: cost approaches one transition per byte.
        assert!(lockstep < chunk.len() as u64 + (dfa.num_live_states() * 64) as u64);
    }

    #[test]
    fn auto_picks_per_run_for_tiny_problems_and_lockstep_for_large() {
        let floor = LOCKSTEP_ANY_RUNS_MIN_CHUNK;
        assert_eq!(select(2, floor - 1, 1024), Kernel::PerRun);
        assert_eq!(select(8, 16, 1024), Kernel::PerRun);
        assert_eq!(select(8, 1 << 20, 1024), Kernel::LockstepShared);
        assert_eq!(select(3, 4, 1 << 20), Kernel::LockstepShared);
        // A long chunk fuses even two runs.
        assert_eq!(select(2, 1 << 20, 1024), Kernel::LockstepShared);
        // `Auto` resolves through `select` — the runtime wiring is exactly
        // this delegation.
        for (k, len, table) in [(2, 1 << 20, 1024), (8, 16, 1024), (8, 1 << 20, 1024)] {
            assert_eq!(resolve(Kernel::Auto, k, len, table), select(k, len, table));
        }
    }

    #[test]
    fn selection_matrix_is_pinned() {
        // Entries on either side of the 1 MiB large-table threshold.
        const LARGE: usize = (1 << 20) / std::mem::size_of::<StateId>();
        const SMALL: usize = 1024;
        const FLOOR: usize = LOCKSTEP_ANY_RUNS_MIN_CHUNK;
        // From the floor up every run count takes the fused kernel — one
        // and two runs for its finishes — whatever the table size. With
        // no runs there is nothing to fuse.
        for table in [SMALL, LARGE - 1, LARGE, 1 << 21] {
            for k in [1, 2, 3, 8, 100, 5000] {
                for len in [FLOOR, 1 << 20] {
                    assert_eq!(
                        select(k, len, table),
                        Kernel::LockstepShared,
                        "k={k} len={len} table={table}"
                    );
                }
            }
            assert_eq!(select(0, 1 << 20, table), Kernel::PerRun, "k=0");
        }
        // Below it, k ≤ 2 always scans per run — group bookkeeping cannot
        // pay with at most one possible merge, regardless of the table
        // size (the regression: big tables used to win this tie).
        for table in [SMALL, LARGE] {
            for len in [0, 16, FLOOR - 1] {
                assert_eq!(select(1, len, table), Kernel::PerRun, "k=1 len={len}");
                assert_eq!(select(2, len, table), Kernel::PerRun, "k=2 len={len}");
            }
        }
        // k ≥ 3 over a large table: lockstep even for short chunks; one
        // entry less and the chunk length decides.
        for len in [0, 16, 63] {
            assert_eq!(select(3, len, LARGE), Kernel::LockstepShared, "len={len}");
            assert_eq!(select(100, len, LARGE), Kernel::LockstepShared, "len={len}");
            assert_eq!(select(3, len, LARGE - 1), Kernel::PerRun, "len={len}");
        }
        // k ≥ 3, small table: chunk length decides.
        assert_eq!(select(8, 63, SMALL), Kernel::PerRun, "len < 64");
        assert_eq!(select(8, 64, SMALL), Kernel::LockstepShared);
        assert_eq!(select(100, 399, SMALL), Kernel::PerRun, "len < 4k");
        assert_eq!(select(100, 400, SMALL), Kernel::LockstepShared);
        // `resolve` is `select` for `Auto` and keeps a pinned kernel.
        for (k, len) in [(2, FLOOR - 1), (2, FLOOR), (100, 256)] {
            assert_eq!(resolve(Kernel::Auto, k, len, SMALL), select(k, len, SMALL));
        }
        for pinned in [Kernel::PerRun, Kernel::LockstepShared] {
            assert_eq!(resolve(pinned, 1, 16, SMALL), pinned);
            assert_eq!(resolve(pinned, 100, 1 << 20, LARGE), pinned);
        }
    }

    #[test]
    fn scratch_is_reusable_across_automata() {
        // One scratch serving two different automata back to back must
        // not leak group state between scans.
        let small = dfa_for("ab");
        let big = dfa_for("(a|b|c)*abc(a|b)*");
        let ptable_small = small.premultiplied_table();
        let ptable_big = big.premultiplied_table();
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            for (dfa, ptable) in [(&small, &ptable_small), (&big, &ptable_big)] {
                scan_into(
                    dense(dfa, ptable),
                    dfa.live_states().map(|s| (s, s)),
                    dfa.num_states(),
                    b"abcabcab",
                    Kernel::LockstepShared,
                    &mut scratch,
                    &mut NoCount,
                    &mut out,
                );
                assert_eq!(out, oracle(dfa, b"abcabcab"));
            }
        }
    }

    #[test]
    fn duplicate_start_states_share_one_run() {
        // Two origins starting in the same state must be grouped from
        // byte 0 and charged once.
        let dfa = dfa_for("[ab]*");
        let ptable = dfa.premultiplied_table();
        let table = dense(&dfa, &ptable);
        let start = dfa.start();
        let mut scratch = Scratch::default();
        let mut counter = TransitionCount::default();
        let mut out = Vec::new();
        scan_into(
            table,
            [(0u32, start), (1u32, start)].into_iter(),
            2,
            b"abab",
            Kernel::LockstepShared,
            &mut scratch,
            &mut counter,
            &mut out,
        );
        assert_eq!(out[0], out[1]);
        assert_ne!(out[0], DEAD);
        assert_eq!(counter.get(), 4, "one merged run, one count per byte");
    }

    /// Per-step reference of [`run_row_serial`]: the end row, and one
    /// count per live transition as it executes.
    fn serial_steps(table: DenseTable<'_>, mut row: usize, bytes: &[u8]) -> (usize, u64) {
        let mut count = 0;
        for &byte in bytes {
            row = table.ptable[row + table.classes.get(byte) as usize] as usize;
            if row == 0 {
                return (0, count);
            }
            count += 1;
        }
        (row, count)
    }

    /// Per-step reference of [`walk_window`]: the same chains, re-seeds,
    /// checkpoints and repair, one byte at a time, counting every live
    /// transition as it executes.
    fn window_steps(table: DenseTable<'_>, entry: usize, window: &[u8]) -> (usize, u64) {
        let step = |row: usize, byte: u8| table.ptable[row + table.classes.get(byte) as usize];
        let stride_len = window.len() / NUM_CHAINS;
        let mut count = 0;
        let mut r = [entry; NUM_CHAINS];
        let mut died = [0; NUM_CHAINS];
        let mut ckpt = Vec::new();
        for k in 0..stride_len {
            for (j, row) in r.iter_mut().enumerate() {
                *row = step(*row, window[j * stride_len + k]) as usize;
                count += (*row != 0) as u64;
            }
            if r[0] == 0 {
                return (0, count);
            }
            for j in 1..NUM_CHAINS {
                if r[j] == 0 {
                    r[j] = table.start_row;
                    died[j] = k + 1;
                }
            }
            if (k + 1) % CKPT_INTERVAL == 0 {
                ckpt.push(r);
            }
        }
        let mut cur = r[0];
        'strides: for j in 1..NUM_CHAINS {
            for k in 0..stride_len {
                cur = step(cur, window[j * stride_len + k]) as usize;
                if cur == 0 {
                    return (0, count);
                }
                count += 1;
                if (k + 1) % CKPT_INTERVAL == 0 && cur == ckpt[k / CKPT_INTERVAL][j] {
                    if died[j] > k + 1 {
                        return (0, count);
                    }
                    cur = r[j];
                    continue 'strides;
                }
            }
        }
        let (row, rest) = serial_steps(table, cur, &window[NUM_CHAINS * stride_len..]);
        (row, count + rest)
    }

    /// Runs `f` with a fresh tally; returns its result and the count.
    fn tallied<T>(f: impl FnOnce(&mut TransitionCount) -> T) -> (T, u64) {
        let mut counter = TransitionCount::default();
        let out = f(&mut counter);
        (out, counter.get())
    }

    #[test]
    fn exit_counts_equal_per_step_counts() {
        // Deaths at every offset of one checkpoint interval and across a
        // classification-block boundary.
        let offsets: Vec<usize> = (0..CKPT_INTERVAL)
            .chain(CLASS_BLOCK - 4..CLASS_BLOCK + 4)
            .collect();
        // Four tracks: the state after `a`, `b`, `c` or `d` reads `x` and
        // three of `pqrs`, so `p`, `q`, `r` or `s` kills exactly one
        // track, `z` every one, and the start state dies on `x`.
        let tracks = dfa_for("a[qrsx]*|b[prsx]*|c[pqsx]*|d[pqrx]*");
        let after = |lead: &[u8]| tracks.run_from(tracks.start(), lead, &mut NoCount);

        // The serial loop: no death, a death at the first and at the last
        // byte, and at each offset.
        let dfa = dfa_for("(a|b)*abb");
        let ptable = dfa.premultiplied_table();
        let table = dense(&dfa, &ptable);
        let text = b"ab".repeat(CLASS_BLOCK);
        let kills = [None, Some(0), Some(text.len() - 1)];
        for at in kills.into_iter().chain(offsets.iter().map(|&o| Some(o))) {
            let mut text = text.clone();
            if let Some(at) = at {
                text[at] = b'c';
            }
            for entry in dfa.live_states() {
                let row = entry as usize * dfa.stride();
                assert_eq!(
                    tallied(|c| run_row_serial(table, row, &text, c)),
                    serial_steps(table, row, &text),
                    "serial loop from state {entry}, kill at {at:?}"
                );
            }
        }

        // The strided window: chain 0 and a speculative chain killed at
        // each offset of their strides, on a universal kill byte, on
        // out-of-phase pairs whose chains also die unprompted, and on a
        // track whose re-seeded chain dies again on every byte.
        let stride_len = CLASS_BLOCK + CKPT_INTERVAL + 7;
        let window_len = NUM_CHAINS * stride_len + 3;
        for (pattern, word, kill, lead) in [
            ("(a|b)*abb", &b"ab"[..], b'c', &b""[..]),
            ("(ab|ba)*", b"abba", b'c', b""),
            ("a[qrsx]*|b[prsx]*|c[pqsx]*|d[pqrx]*", b"xqrsx", b'p', b"a"),
        ] {
            let dfa = dfa_for(pattern);
            let ptable = dfa.premultiplied_table();
            let table = dense(&dfa, &ptable);
            let entry = dfa.run_from(dfa.start(), lead, &mut NoCount) as usize * dfa.stride();
            let text: Vec<u8> = word.iter().copied().cycle().take(window_len).collect();
            for chain in [0, 2] {
                for &offset in &offsets {
                    let mut text = text.clone();
                    text[chain * stride_len + offset] = kill;
                    assert_eq!(
                        tallied(|c| walk_window(table, entry, &text, None, c)),
                        window_steps(table, entry, &text),
                        "{pattern}: chain {chain} killed at {offset}"
                    );
                }
            }
        }

        // The interleaved finish: two to four chains (the rest parked on
        // the dead row), the first or the last of them killed, or all at
        // once, at each offset of a rest that spans two segments.
        let ptable = tracks.premultiplied_table();
        let table = dense(&tracks, &ptable);
        let rest = vec![b'x'; CLASS_BLOCK + CKPT_INTERVAL];
        let mut scratch = Scratch::default();
        scratch.warm_up(ptable.len(), NUM_CHAINS);
        for len in 2..=NUM_CHAINS {
            let rows: Vec<usize> = [&b"a"[..], b"b", b"c", b"d"][..len]
                .iter()
                .map(|lead| after(lead) as usize * tracks.stride())
                .collect();
            for kill in [b'p', b"pqrs"[len - 1], b'z'] {
                for &offset in &offsets {
                    let mut rest = rest.clone();
                    rest[offset] = kill;
                    scratch.rows.clear();
                    scratch.rows.extend(rows.iter().map(|&row| row as StateId));
                    let ((), count) =
                        tallied(|c| multi_chain_finish(table, &mut scratch, len, &rest, c));
                    let mut expected = 0;
                    for (g, &row) in rows.iter().enumerate() {
                        let (end, steps) = serial_steps(table, row, &rest);
                        assert_eq!(scratch.rows[g] as usize, end, "{len} chains, chain {g}");
                        expected += steps;
                    }
                    assert_eq!(
                        count, expected,
                        "{len} chains, {:?} at {offset}",
                        kill as char
                    );
                }
            }
        }
    }

    #[test]
    fn strided_walk_matches_the_serial_loop() {
        // The walk itself is scalar, so this holds on every host. The
        // patterns stress re-seeding: out-of-phase pairs, a start state
        // that never recurs, and a parity whose chains never meet the
        // true run. Each text is a member (or, for the parity, any
        // string over its alphabet), walked from every live entry row
        // intact and with a killing byte in stride 0, in the middle of
        // stride 2 (after its chain has met a checkpoint) or near the end.
        let mut seed = 0x5EEDu64;
        let mut pick = |n: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize % n
        };
        for (pattern, prefix, words, kill) in [
            ("(ab|ba)*", &b""[..], &[&b"ab"[..], b"ba"][..], b'c'),
            ("abc(d|e)*", b"abc", &[b"d", b"e"], b'a'),
            ("(a*ba*b)*a*", b"", &[b"a", b"b"], b'c'),
            ("(a|b)*abb", b"", &[b"a", b"b"], b'c'),
        ] {
            let dfa = dfa_for(pattern);
            let ptable = dfa.premultiplied_table();
            let table = dense(&dfa, &ptable);
            for len in [STRIDE_MIN - 1, STRIDE_MIN, WINDOW + 1, 3 * WINDOW + 3] {
                let mut text = prefix.to_vec();
                while text.len() < len {
                    text.extend_from_slice(words[pick(words.len())]);
                }
                text.truncate(len);
                let stride_len = len.div_ceil(len.div_ceil(WINDOW)) / 4;
                for at in [
                    None,
                    Some(stride_len / 2),
                    Some(5 * stride_len / 2),
                    Some(len - 2),
                ] {
                    let mut text = text.clone();
                    if let Some(at) = at {
                        text[at] = kill;
                    }
                    for entry in dfa.live_states() {
                        let row = entry as usize * dfa.stride();
                        assert_eq!(
                            strided_walk(table, row, &text, None, &mut NoCount),
                            run_row_serial(table, row, &text, &mut NoCount),
                            "{pattern} from state {entry}, {len} bytes, kill at {at:?}"
                        );
                    }
                }
            }
        }
    }
}

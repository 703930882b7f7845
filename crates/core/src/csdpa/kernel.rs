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
//! * **Single-run fast path.** Once every run has died or converged into
//!   one group, the scan degenerates to the plain serial loop: one load
//!   per byte, zero bookkeeping.
//!
//! All working memory lives in a reusable per-worker [`Scratch`]; after
//! its first-use warm-up a scan performs **zero heap allocations**, which
//! `tests/kernel_alloc.rs` asserts with a counting global allocator.

use ridfa_automata::alphabet::ByteClasses;
use ridfa_automata::counter::Counter;
use ridfa_automata::{StateId, DEAD};

use super::budget::InterruptProbe;

mod simd;

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
    /// The default fused kernel: a single lockstep pass with convergence
    /// merging, block-wise shared byte classification through a stack
    /// buffer, and the *partition-stabilization cutover* — when a full
    /// block passes with no merge and no death, the surviving groups
    /// finish with lean serial loops instead of paying per-byte dedup
    /// bookkeeping.
    LockstepShared,
    /// The data-parallel kernel (AVX2, runtime-detected): vectorized
    /// byte classification, a gather-based lockstep step advancing eight
    /// speculative runs per instruction (Ko et al.'s speculative SIMD
    /// membership test), and — once the scan converges to few runs — an
    /// interleaved multi-chain / checkpoint-and-repair strided walk that
    /// breaks the per-byte load-to-load dependency chain. Falls back to
    /// [`Kernel::LockstepShared`] (bit-identical mappings) when the CPU
    /// feature is missing, `RIDFA_NO_SIMD` is set, or the table shape
    /// does not allow gathers.
    Simd,
    /// Pick per chunk via [`select`], from the number of runs, the chunk
    /// length, the table size, and the runtime CPU features.
    Auto,
}

impl Kernel {
    /// Short display name for `via …` reporting lines.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::PerRun => "per-run",
            Kernel::LockstepShared => "lockstep-shared",
            Kernel::Simd => "simd",
            Kernel::Auto => "auto",
        }
    }
}

/// Can [`Kernel::Simd`] actually execute on this machine and table? True
/// iff the CPU reports AVX2 at runtime (`RIDFA_NO_SIMD` unset — see
/// [`ridfa_automata::simd::enabled`]) and the premultiplied table is
/// addressable by the 32-bit gather indices the kernel uses. [`select`]
/// consults this, so `Auto` never resolves to a kernel that would only
/// fall back.
pub fn simd_supported(table_entries: usize) -> bool {
    simd::supported(table_entries)
}

/// Minimum chunk length for which [`select`] picks [`Kernel::Simd`]:
/// below this the vector setup (row broadcasts, stride bookkeeping)
/// cannot amortize and the scalar matrix applies unchanged.
pub const SIMD_MIN_CHUNK: usize = 4096;

/// Resolves [`Kernel::Auto`] for one chunk scan, consulting the actual
/// runtime CPU features (AVX2 detection + the `RIDFA_NO_SIMD` kill
/// switch) — not compile-time `cfg` — so the same binary adapts to the
/// machine it lands on. Delegates to [`select_with`].
pub fn select(num_runs: usize, chunk_len: usize, table_entries: usize) -> Kernel {
    select_with(
        num_runs,
        chunk_len,
        table_entries,
        simd::supported(table_entries),
    )
}

/// The selection matrix with the SIMD capability made explicit (tests
/// pin both halves; [`select`] passes the detected capability).
///
/// With `simd` available, any chunk of at least [`SIMD_MIN_CHUNK`] bytes
/// takes [`Kernel::Simd`]: vectorized classification pays at every run
/// count, the gather step beats per-byte dedup bookkeeping at high run
/// counts, and the interleaved/strided walks beat the serial
/// load-to-load chain at low ones.
///
/// The scalar half keeps small problems on the bookkeeping-free path:
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
pub fn select_with(num_runs: usize, chunk_len: usize, table_entries: usize, simd: bool) -> Kernel {
    const LARGE_TABLE_ENTRIES: usize = (1 << 20) / std::mem::size_of::<StateId>();
    if simd && chunk_len >= SIMD_MIN_CHUNK && num_runs >= 1 {
        return Kernel::Simd;
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
/// [`Kernel::Auto`] goes through [`select`], and a pinned
/// [`Kernel::Simd`] is demoted to its documented scalar fallback when the
/// CPU feature or the table shape rules gathers out. Never `Auto`. Chunk
/// automata report this as their effective kernel, so what a caller is
/// told ran and what ran come from one decision.
pub fn resolve(configured: Kernel, runs: usize, chunk_len: usize, table_entries: usize) -> Kernel {
    match configured {
        Kernel::Auto => select(runs, chunk_len, table_entries),
        Kernel::Simd if !simd::supported(table_entries) => Kernel::LockstepShared,
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
}

/// Reusable per-worker working memory of the lockstep kernel.
///
/// All vectors grow to the high-water mark of the automata scanned and
/// then stay put: after this warm-up a scan allocates nothing. One
/// `Scratch` must not be shared between concurrent scans (each worker
/// thread owns one; see `parallel::run_indexed_with`).
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
    /// Per-stride class buffers of the SIMD strided walks
    /// (`simd::NUM_CHAINS × CLASS_BLOCK`), grown on first SIMD scan.
    simd_class_buf: Vec<u8>,
    /// Checkpoint rows of the SIMD speculative strided walk, grown to
    /// the chunk-length high-water mark on first use.
    simd_ckpt: Vec<StateId>,
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
/// `resolve` returns unchanged. Counting semantics per strategy:
///
/// * per-run: one increment per executed live transition per run — the
///   paper's `k`-pass reach-phase workload measure;
/// * lockstep: one increment per *group* advance — the work actually
///   executed after merging, strictly fewer on any text where runs
///   converge or die.
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
        Kernel::Simd => simd::scan(table, starts, chunk, scratch, counter, out),
        Kernel::Auto => unreachable!("resolve never returns Auto"),
    }
}

/// Runs one premultiplied row serially over `bytes`: one indexed load per
/// byte, counting each live transition. Returns the final row, or `0`
/// (the dead row, whose state is [`DEAD`]) if the run died. Shared by the
/// per-run strategy and the lockstep finishing loop so their counting and
/// death semantics can never diverge.
#[inline(always)]
fn run_row_serial(
    table: DenseTable<'_>,
    mut row: usize,
    bytes: &[u8],
    counter: &mut impl Counter,
) -> usize {
    for &byte in bytes {
        let next = table.ptable[row + table.classes.get(byte) as usize];
        if next == 0 {
            return 0;
        }
        counter.incr();
        row = next as usize;
    }
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
        let row = match interrupt {
            None => run_row_serial(table, start as usize * stride, chunk, counter),
            Some(probe) => {
                if probe.should_stop() {
                    return; // abandoned: the caller discards the mapping
                }
                run_row_interruptible(table, start as usize * stride, chunk, counter, probe)
            }
        };
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
    // bookkeeping and finish each group with the lean loop below. (The
    // transitions executed stay the same; only bookkeeping is shed, so
    // lockstep never loses badly to per-run scanning.)
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

    if consumed < chunk.len() {
        // Finish the surviving groups with the plain serial loop — one
        // load per byte, zero bookkeeping. One group when every run
        // converged or died (the fast path); several after a
        // stabilization cutover. A group that dies parks on row 0, whose
        // state is DEAD — exactly what its origins should map to.
        let rest = &chunk[consumed..];
        let probe = scratch.interrupt.clone();
        for g in 0..len {
            let row = match &probe {
                None => run_row_serial(table, scratch.rows[g] as usize, rest, counter),
                Some(p) => run_row_interruptible(table, scratch.rows[g] as usize, rest, counter, p),
            };
            scratch.rows[g] = row as StateId;
        }
    }

    write_mapping(scratch, len, stride, out);
}

/// Builds the initial origin groups from the `(origin, start)` pairs:
/// distinct starts may already coincide (delegated interface states, for
/// instance), so they are deduplicated through the generation slots.
/// Returns the live-group count. Shared by the scalar lockstep scan and
/// the SIMD scan so seeding semantics can never diverge.
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
/// pre-filled. Shared epilogue of the scalar and SIMD scans.
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

/// Deduplicates and compacts the live groups *in place* after a merge
/// period of the SIMD gather step (which advances groups without per-byte
/// bookkeeping): groups that landed on the same row are spliced together,
/// groups that died (row 0) are dropped. Returns the new live count.
fn merge_compact(scratch: &mut Scratch, len: usize) -> usize {
    scratch.generation += 1;
    let generation = scratch.generation;
    let mut write = 0;
    for read in 0..len {
        let row = scratch.rows[read];
        if row == 0 {
            continue; // the group died during the period: origins stay DEAD
        }
        let slot = row as usize;
        if scratch.slot_gen[slot] == generation {
            let idx = scratch.slot_idx[slot] as usize;
            scratch.next_origin[scratch.tails[idx] as usize] = scratch.heads[read];
            scratch.tails[idx] = scratch.tails[read];
        } else {
            scratch.slot_gen[slot] = generation;
            scratch.slot_idx[slot] = write as u32;
            scratch.rows[write] = row;
            scratch.heads[write] = scratch.heads[read];
            scratch.tails[write] = scratch.tails[read];
            write += 1;
        }
    }
    write
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

    fn scan(dfa: &Dfa, chunk: &[u8], kernel: Kernel) -> (Vec<StateId>, u64) {
        let ptable = dfa.premultiplied_table();
        let table = DenseTable {
            ptable: &ptable,
            stride: dfa.stride(),
            classes: dfa.classes(),
        };
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
        for pattern in ["(a|b)*abb", "a{2,4}b*", "[ab]*a[ab][ab]", "abc"] {
            let dfa = dfa_for(pattern);
            for chunk in [
                &b""[..],
                b"a",
                b"abab",
                b"zzz",
                b"abbabbabbabb",
                &b"ab".repeat(3000),
                // Long enough to reach the SIMD strided single-run walk
                // (> STRIDE_MIN bytes past convergence).
                &b"ab".repeat(20_000),
            ] {
                let expected = oracle(&dfa, chunk);
                for kernel in [
                    Kernel::PerRun,
                    Kernel::LockstepShared,
                    Kernel::Simd,
                    Kernel::Auto,
                ] {
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
        // Scalar half (SIMD capability off).
        assert_eq!(select_with(2, 1 << 20, 1024, false), Kernel::PerRun);
        assert_eq!(select_with(8, 16, 1024, false), Kernel::PerRun);
        assert_eq!(select_with(8, 1 << 20, 1024, false), Kernel::LockstepShared);
        assert_eq!(select_with(3, 4, 1 << 20, false), Kernel::LockstepShared);
        // `select` must agree with `select_with` under the detected
        // capability — the runtime wiring is exactly this delegation.
        for (k, len, table) in [(2, 1 << 20, 1024), (8, 16, 1024), (8, 1 << 20, 1024)] {
            assert_eq!(
                select(k, len, table),
                select_with(k, len, table, simd_supported(table)),
            );
        }
    }

    #[test]
    fn selection_matrix_is_pinned() {
        const BIG: usize = 1 << 20; // entries ≥ the large-table threshold
        const SMALL: usize = 1024;
        let select = |k, len, table| select_with(k, len, table, false);
        // k ≤ 2 always scans per run — group bookkeeping cannot pay with
        // at most one possible merge, regardless of the table size (the
        // regression: big tables used to win this tie).
        for table in [SMALL, BIG] {
            for len in [0, 16, 1 << 20] {
                assert_eq!(select(1, len, table), Kernel::PerRun, "k=1 len={len}");
                assert_eq!(select(2, len, table), Kernel::PerRun, "k=2 len={len}");
            }
        }
        // k ≥ 3 over a big table: lockstep even for short chunks.
        for len in [0, 16, 63, 1 << 20] {
            assert_eq!(select(3, len, BIG), Kernel::LockstepShared, "len={len}");
            assert_eq!(select(100, len, BIG), Kernel::LockstepShared, "len={len}");
        }
        // k ≥ 3, small table: chunk length decides.
        assert_eq!(select(8, 63, SMALL), Kernel::PerRun, "len < 64");
        assert_eq!(select(8, 64, SMALL), Kernel::LockstepShared);
        assert_eq!(select(100, 256, SMALL), Kernel::PerRun, "len < 4k");
        assert_eq!(select(100, 400, SMALL), Kernel::LockstepShared);
    }

    #[test]
    fn simd_selection_is_pinned() {
        // With the capability available, chunk length alone gates SIMD:
        // any run count benefits (vector classification at least).
        for k in [1, 2, 8, 100] {
            assert_eq!(
                select_with(k, SIMD_MIN_CHUNK, 1024, true),
                Kernel::Simd,
                "k={k}"
            );
            assert_eq!(
                select_with(k, 1 << 20, 1 << 21, true),
                Kernel::Simd,
                "k={k} big table"
            );
        }
        // Below the SIMD floor the scalar matrix applies unchanged.
        assert_eq!(
            select_with(2, SIMD_MIN_CHUNK - 1, 1024, true),
            Kernel::PerRun
        );
        assert_eq!(
            select_with(8, SIMD_MIN_CHUNK - 1, 1024, true),
            Kernel::LockstepShared
        );
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
                let table = DenseTable {
                    ptable,
                    stride: dfa.stride(),
                    classes: dfa.classes(),
                };
                scan_into(
                    table,
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
        let table = DenseTable {
            ptable: &ptable,
            stride: dfa.stride(),
            classes: dfa.classes(),
        };
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
}

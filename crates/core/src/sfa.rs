//! Simultaneous Finite Automata (SFA) — the paper's reference \[25\],
//! originally built here as an ablation comparator and now a first-class
//! engine an [`EnginePlan`](crate::csdpa::EnginePlan) can select.
//!
//! An SFA state is the *transition function* `δ_w : Q → Q ∪ {dead}` of the
//! underlying automaton for some word `w`: a chunk automaton run from the
//! identity function tracks *all* speculative runs simultaneously, so
//! speculation disappears — one deterministic transition per byte,
//! regardless of `|Q|`. The price (the reason the paper rejects SFA in
//! general) is state explosion: the reachable function space can be
//! astronomically larger than `|Q|`. Every construction here is therefore
//! budget-bounded — both the dense table ([`ConstructionBudget::grow_table`])
//! and the *retained* function/inverse structures (`charge_bytes`, the
//! `"SFA ids bytes"` axis) fail typed before the blow-up allocates.
//!
//! Construction follows Jung & Burgstaller's multicore recipe: the
//! function space is discovered in breadth-first **waves**; within a wave
//! every frontier state's successors are computed in parallel on the
//! shared [`ThreadPool`], deduplicated against a sharded 64-bit
//! Rabin-fingerprint seen-table (exact comparison on fingerprint hits, so
//! collisions cost a memcmp, never a wrong merge), and merged serially in
//! `(frontier position, byte class)` order — state numbering is therefore
//! **deterministic**: independent of worker count, scheduling, and of
//! whether the build ran on a pool at all.
//!
//! **The chunk walk.** A run started at the identity state yields the
//! *exact* function of the bytes it read (Sin'ya et al.), so a chunk can be
//! cut anywhere and its pieces joined by composition. Every [`SfaCa`] scan
//! walks its chunk this way:
//!
//! * **One premultiplied table.** Entries are `target * stride`, so a step
//!   is a single indexed load `table[row + class]`; serialization divides
//!   the rows back out ([`Sfa::table`]), so artifacts are unchanged.
//! * **Block classification.** Bytes are translated to classes one 4 KiB
//!   block at a time through [`ByteClasses::classify_into`] into a stack
//!   buffer, instead of one class lookup per byte inside the chain.
//! * **Four exact chains.** A chunk of at least four such blocks is cut
//!   into four contiguous quarters, walked as interleaved chains that
//!   each start at the identity, then joined by three [`Sfa::compose`]
//!   lookups. The independent dependent-load chains overlap in the
//!   pipeline (Ko et al.'s dependency-breaking interleave), so the walk is
//!   no longer bound by one load latency per byte.
//!
//! Unlike the reach kernel's strided single-run walk, whose later strides
//! guess their entry state and need checkpoints and a repair pass, each
//! chain here computes the exact function of its quarter: nothing is
//! guessed, so nothing is repaired. The walk allocates nothing — the class
//! blocks and the join key live on the stack — and counts exactly one
//! transition per byte. Base automata with more than 512 states, whose
//! join key would not fit the stack buffer, walk unsplit.

use std::collections::HashMap;

use ridfa_automata::alphabet::ByteClasses;
use ridfa_automata::counter::Counter;
use ridfa_automata::dfa::Dfa;
use ridfa_automata::{BitSet, ConstructionBudget, Error, Result, StateId, DEAD};

use crate::csdpa::kernel::CLASS_BLOCK;
use crate::csdpa::ChunkAutomaton;
use crate::parallel::ThreadPool;
use crate::ridfa::RiDfa;

/// Budget axis labels for SFA construction.
const WHAT_STATES: &str = "SFA states";
const WHAT_BYTES: &str = "SFA table bytes";
/// The *retained* side structures: one function vector plus one inverse-map
/// key clone per state. Charged against the budget's byte axis before each
/// state is allocated, so a pathological pattern fails typed first.
const WHAT_IDS_BYTES: &str = "SFA ids bytes";

/// Shards of the fingerprint seen-table (reduces probe clustering; the
/// table is read concurrently during a wave and mutated only serially).
const SEEN_SHARDS: usize = 64;

/// Cap on transient per-wave candidate memory: a frontier is expanded in
/// slices small enough that undiscovered-function buffers stay bounded
/// even when the budget is about to trip.
const WAVE_CANDIDATE_BYTES: usize = 4 << 20;

/// Chains interleaved by the chunk walk. Four ~5-cycle dependent-load
/// chains keep the load ports busy without spilling rows from registers.
const CHAINS: usize = 4;

/// Shortest chunk the walk splits into [`CHAINS`] quarters: one
/// classification block per chain. Shorter chunks walk as one chain,
/// where the three joins and the per-quarter block set-up would not pay.
const SPLIT_MIN: usize = CHAINS * CLASS_BLOCK;

/// Capacity, in base states, of the stack key the quarter joins compose
/// into (2 KiB). Base automata with more states walk unsplit.
const KEY_CAP: usize = 512;

/// 64-bit Rabin-style rolling fingerprint over a function vector
/// (iterative multiply-accumulate; the seen-table confirms hits with an
/// exact comparison, so collisions are benign).
fn fingerprint(f: &[StateId]) -> u64 {
    const B: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &q in f {
        h = h.wrapping_mul(B) ^ (q as u64).wrapping_add(0x100);
    }
    h
}

/// Resolves a function vector to its already-assigned state id, if any.
fn resolve(
    seen: &[HashMap<u64, Vec<StateId>>],
    functions: &[Vec<StateId>],
    fp: u64,
    g: &[StateId],
) -> Option<StateId> {
    seen[fp as usize % SEEN_SHARDS]
        .get(&fp)?
        .iter()
        .copied()
        .find(|&id| functions[id as usize] == g)
}

/// A successor function computed during a wave: either already known
/// (id resolved against the pre-wave seen-table) or a candidate new state.
enum Cand {
    Known(StateId),
    New(u64, Vec<StateId>),
}

/// A Simultaneous Finite Automaton derived from a DFA or an RI-DFA.
#[derive(Debug, Clone)]
pub struct Sfa {
    /// Dense SFA transition table with premultiplied rows: entry
    /// `table[s * stride + class]` is `target * stride`. Row 0 is the
    /// identity state, not a dead row.
    table: Vec<StateId>,
    stride: usize,
    byte_classes: ByteClasses,
    /// `functions[s]` = the base-state mapping this SFA state denotes
    /// (`functions[s][q]` = where a run started in `q` currently is).
    functions: Vec<Vec<StateId>>,
    /// Inverse of `functions`: resolves a composed function back to its
    /// SFA state id (the function space is closed under composition —
    /// `δ_v ∘ δ_w = δ_wv` and every word's function is discovered by the
    /// construction).
    ids: HashMap<Vec<StateId>, StateId>,
    /// The underlying automaton's start/finals (needed at join time).
    dfa_start: StateId,
    dfa_finals: BitSet,
}

impl Sfa {
    /// Builds the SFA of `dfa`, failing with
    /// [`Error::LimitExceeded`] once
    /// more than `max_states` function states have been discovered.
    pub fn build_limited(dfa: &Dfa, max_states: usize) -> Result<Sfa> {
        // Historical convention: `max_states` is a cap on the total state
        // count (error once `functions.len() >= max_states`), which maps
        // onto the shared `charge_state` by charging the post-insert count.
        Sfa::build_budgeted(
            dfa,
            &ConstructionBudget::with_max_states(max_states.saturating_sub(1)),
        )
    }

    /// Builds the SFA of `dfa` under a full [`ConstructionBudget`] on the
    /// calling thread.
    pub fn build_budgeted(dfa: &Dfa, budget: &ConstructionBudget) -> Result<Sfa> {
        Sfa::build_of_dfa(dfa, budget, None)
    }

    /// Builds the SFA of `dfa` with wave-parallel state discovery on
    /// `pool`. Produces the exact same automaton (same state numbering)
    /// as [`build_budgeted`](Sfa::build_budgeted).
    pub fn build_parallel(
        dfa: &Dfa,
        budget: &ConstructionBudget,
        pool: &ThreadPool,
    ) -> Result<Sfa> {
        Sfa::build_of_dfa(dfa, budget, Some(pool))
    }

    fn build_of_dfa(
        dfa: &Dfa,
        budget: &ConstructionBudget,
        pool: Option<&ThreadPool>,
    ) -> Result<Sfa> {
        build_inner(
            dfa.num_states(),
            dfa.stride(),
            dfa.classes(),
            dfa.start(),
            dfa.finals(),
            |q, class| dfa.next_class(q, class),
            budget,
            pool,
        )
    }

    /// Builds the SFA of an RI-DFA on the calling thread — the serving
    /// registry's trial build for `EnginePlan::Auto` resolution (the
    /// registry holds RI-DFA tables, never a DFA).
    pub fn build_rid_budgeted(rid: &RiDfa, budget: &ConstructionBudget) -> Result<Sfa> {
        Sfa::build_of_rid(rid, budget, None)
    }

    /// Builds the SFA of an RI-DFA with wave-parallel state discovery on
    /// `pool`; same numbering as the serial build.
    pub fn build_rid_parallel(
        rid: &RiDfa,
        budget: &ConstructionBudget,
        pool: &ThreadPool,
    ) -> Result<Sfa> {
        Sfa::build_of_rid(rid, budget, Some(pool))
    }

    fn build_of_rid(
        rid: &RiDfa,
        budget: &ConstructionBudget,
        pool: Option<&ThreadPool>,
    ) -> Result<Sfa> {
        build_inner(
            rid.num_states(),
            rid.stride(),
            rid.classes(),
            rid.start(),
            rid.finals(),
            |q, class| rid.next_class(q, class),
            budget,
            pool,
        )
    }

    /// Reassembles an SFA from its serialized parts against the RI-DFA it
    /// was built from, re-validating everything a fresh construction
    /// establishes: `functions[0]` must be the identity, every function
    /// value must be a base state, and every table entry must agree with
    /// a direct application of the base automaton
    /// (`functions[table[s·stride+c]] == δ_c ∘ functions[s]`). Together
    /// these guarantee (by induction from the identity) that every state
    /// denotes the function of some word and the space is closed under
    /// composition — so [`compose`](Sfa::compose) on decoded tables can
    /// never miss its inverse lookup, even on forged input. `table` is
    /// indexed by state id, as [`table`](Sfa::table) returns it; the rows
    /// are premultiplied once validated.
    pub fn from_rid_parts(
        rid: &RiDfa,
        mut table: Vec<StateId>,
        functions_flat: Vec<StateId>,
    ) -> std::result::Result<Sfa, String> {
        let n = rid.num_states();
        let stride = rid.stride();
        if n == 0 || stride == 0 {
            return Err("SFA over an empty base automaton".into());
        }
        if !table.len().is_multiple_of(stride) {
            return Err(format!(
                "SFA table of {} entries is not a multiple of stride {stride}",
                table.len()
            ));
        }
        let num_states = table.len() / stride;
        if num_states == 0 {
            return Err("SFA with zero states".into());
        }
        if functions_flat.len() != num_states * n {
            return Err(format!(
                "SFA function section holds {} entries, expected {num_states} states × {n}",
                functions_flat.len()
            ));
        }
        let functions: Vec<Vec<StateId>> = functions_flat.chunks(n).map(|f| f.to_vec()).collect();
        if functions[0]
            .iter()
            .enumerate()
            .any(|(q, &v)| v != q as StateId)
        {
            return Err("SFA state 0 is not the identity function".into());
        }
        for (s, f) in functions.iter().enumerate() {
            for &q in f {
                if q as usize >= n {
                    return Err(format!("SFA state {s} maps to base state {q} ≥ {n}"));
                }
            }
        }
        for (s, f) in functions.iter().enumerate() {
            for class in 0..stride {
                let target = table[s * stride + class];
                if target as usize >= num_states {
                    return Err(format!(
                        "SFA transition ({s}, class {class}) targets state {target} ≥ {num_states}"
                    ));
                }
                let expected = &functions[target as usize];
                let consistent = f
                    .iter()
                    .zip(expected.iter())
                    .all(|(&q, &e)| rid.next_class(q, class as u8) == e);
                if !consistent {
                    return Err(format!(
                        "SFA transition ({s}, class {class}) disagrees with the base automaton"
                    ));
                }
            }
        }
        if !premultiply_in_place(&mut table, stride) {
            return Err(format!(
                "SFA table of {} entries exceeds 32-bit row offsets",
                table.len()
            ));
        }
        let mut ids = HashMap::with_capacity(num_states);
        for (s, f) in functions.iter().enumerate() {
            // Duplicate function vectors keep the first id — behaviorally
            // identical by the consistency check above.
            ids.entry(f.clone()).or_insert(s as StateId);
        }
        Ok(Sfa {
            table,
            stride,
            byte_classes: rid.classes().clone(),
            functions,
            ids,
            dfa_start: rid.start(),
            dfa_finals: rid.finals().clone(),
        })
    }

    /// The SFA state denoting `g ∘ f` (apply `f` first). `key` is a
    /// reusable buffer for the composed function.
    pub fn compose(&self, f: StateId, g: StateId, key: &mut Vec<StateId>) -> StateId {
        key.resize(self.function(f).len(), 0);
        self.compose_in(f, g, key)
    }

    /// [`compose`](Sfa::compose) into a key of exactly one entry per base
    /// state, looked up in the inverse map as a slice — so the chunk walk
    /// can compose into a stack buffer without allocating.
    fn compose_in(&self, f: StateId, g: StateId, key: &mut [StateId]) -> StateId {
        let gf = self.function(g);
        // functions[·][DEAD] is DEAD for every SFA state, so death
        // propagates without a branch.
        for (k, &q) in key.iter_mut().zip(self.function(f)) {
            *k = gf[q as usize];
        }
        *self
            .ids
            .get(&*key)
            .expect("SFA function space is closed under composition")
    }

    /// Number of SFA states (reachable transition functions).
    pub fn num_states(&self) -> usize {
        self.functions.len()
    }

    /// The identity state every chunk run starts from.
    pub fn identity(&self) -> StateId {
        0
    }

    /// The base-state function denoted by SFA state `s`.
    pub fn function(&self, s: StateId) -> &[StateId] {
        &self.functions[s as usize]
    }

    /// The dense transition table indexed by state id,
    /// `table[s * stride + class]` (serialization). The SFA keeps only the
    /// premultiplied rows, so this divides each entry back out.
    pub fn table(&self) -> Vec<StateId> {
        let stride = self.stride as StateId;
        self.table.iter().map(|&row| row / stride).collect()
    }

    /// Byte classes per transition row (serialization).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// All function vectors flattened row-major (serialization).
    pub fn flattened_functions(&self) -> Vec<StateId> {
        self.functions.iter().flatten().copied().collect()
    }

    /// Heap bytes the SFA keeps resident: its one (premultiplied) dense
    /// table plus the function vectors and their inverse-map key clones —
    /// the number a serving registry books against its residency cap.
    pub fn resident_bytes(&self) -> usize {
        let entry = std::mem::size_of::<StateId>();
        let function_bytes: usize = self.functions.iter().map(|f| f.len() * entry).sum();
        self.table.len() * entry + 2 * function_bytes
    }

    /// Runs from SFA state `s` over `chunk`, one class lookup and one load
    /// per byte (total function — SFA runs never die; death is absorbed
    /// into the function values). The byte-serial oracle of the chunk
    /// walk the [`SfaCa`] scans run.
    pub fn run_from(&self, s: StateId, chunk: &[u8], counter: &mut impl Counter) -> StateId {
        // SFA shares the base automaton's byte classes.
        let mut row = s as usize * self.stride;
        for &byte in chunk {
            row = self.table[row + self.byte_classes.get(byte) as usize] as usize;
            counter.incr();
        }
        self.state_of(row)
    }

    /// The SFA state of `chunk`'s exact function — the chunk walk (see the
    /// module docs). Counts one transition per byte, like
    /// [`run_from`](Sfa::run_from) from the identity.
    fn walk(&self, chunk: &[u8], counter: &mut impl Counter) -> StateId {
        counter.add(chunk.len() as u64);
        let n = self.function(self.identity()).len();
        if chunk.len() < SPLIT_MIN || n > KEY_CAP {
            return self.state_of(self.walk_row(0, chunk));
        }
        let quarters = self.walk_quarters(chunk);
        let mut key = [0; KEY_CAP];
        let key = &mut key[..n];
        quarters[1..].iter().fold(quarters[0], |prefix, &quarter| {
            self.compose_in(prefix, quarter, key)
        })
    }

    /// Walks one premultiplied row over `bytes`, classifying one
    /// [`CLASS_BLOCK`] at a time. Returns the final row.
    fn walk_row(&self, mut row: usize, bytes: &[u8]) -> usize {
        let mut classes = [0u8; CLASS_BLOCK];
        for block in bytes.chunks(CLASS_BLOCK) {
            let classes = &mut classes[..block.len()];
            self.byte_classes.classify_into(block, classes);
            for &class in classes.iter() {
                row = self.table[row + class as usize] as usize;
            }
        }
        row
    }

    /// Walks the [`CHAINS`] contiguous quarters of `chunk` as interleaved
    /// chains, each started at the identity (row 0), and returns the SFA
    /// state of each quarter. The division remainder (fewer than
    /// [`CHAINS`] bytes) belongs to the last quarter.
    fn walk_quarters(&self, chunk: &[u8]) -> [StateId; CHAINS] {
        let table = &self.table[..];
        let quarter = chunk.len() / CHAINS;
        let mut classes = [0u8; CHAINS * CLASS_BLOCK];
        let mut r = [0usize; CHAINS];
        for from in (0..quarter).step_by(CLASS_BLOCK) {
            let len = (quarter - from).min(CLASS_BLOCK);
            for (j, out) in classes.chunks_exact_mut(CLASS_BLOCK).enumerate() {
                let start = j * quarter + from;
                self.byte_classes
                    .classify_into(&chunk[start..start + len], out);
            }
            let (c0, rest) = classes.split_at(CLASS_BLOCK);
            let (c1, rest) = rest.split_at(CLASS_BLOCK);
            let (c2, c3) = rest.split_at(CLASS_BLOCK);
            let steps = c0[..len]
                .iter()
                .zip(&c1[..len])
                .zip(&c2[..len])
                .zip(&c3[..len]);
            for (((&a, &b), &c), &d) in steps {
                r = [
                    table[r[0] + a as usize] as usize,
                    table[r[1] + b as usize] as usize,
                    table[r[2] + c as usize] as usize,
                    table[r[3] + d as usize] as usize,
                ];
            }
        }
        r[CHAINS - 1] = self.walk_row(r[CHAINS - 1], &chunk[CHAINS * quarter..]);
        r.map(|row| self.state_of(row))
    }

    /// The SFA state whose premultiplied row starts at `row`.
    fn state_of(&self, row: usize) -> StateId {
        (row / self.stride) as StateId
    }
}

/// Rewrites a state-id table as premultiplied row offsets
/// (`target * stride`) in place, so construction never holds a second
/// table its budget did not charge. False, leaving the table untouched,
/// when some offset would not fit a [`StateId`]. Every target is a state
/// of the table, so its offset stays below `table.len()`.
fn premultiply_in_place(table: &mut [StateId], stride: usize) -> bool {
    if StateId::try_from(table.len()).is_err() {
        return false;
    }
    for entry in table.iter_mut() {
        *entry *= stride as StateId;
    }
    true
}

/// The shared construction engine: breadth-first waves over the function
/// space, expanded serially or on `pool`, merged deterministically in
/// `(frontier position, byte class)` order.
#[allow(clippy::too_many_arguments)]
fn build_inner<F>(
    n: usize,
    stride: usize,
    classes: &ByteClasses,
    start: StateId,
    finals: &BitSet,
    next: F,
    budget: &ConstructionBudget,
    pool: Option<&ThreadPool>,
) -> Result<Sfa>
where
    F: Fn(StateId, u8) -> StateId + Sync,
{
    let entry = std::mem::size_of::<StateId>();
    // Retained bytes per state: the function vector plus its inverse-map
    // key clone. Charged BEFORE the state allocates, so a pathological
    // pattern fails typed without the blow-up.
    let per_state_bytes = 2 * n * entry;
    let mut ids_bytes = per_state_bytes;
    budget.charge_bytes(ids_bytes, WHAT_IDS_BYTES)?;

    let identity: Vec<StateId> = (0..n as StateId).collect();
    let mut seen: Vec<HashMap<u64, Vec<StateId>>> =
        (0..SEEN_SHARDS).map(|_| HashMap::new()).collect();
    let fp0 = fingerprint(&identity);
    seen[fp0 as usize % SEEN_SHARDS]
        .entry(fp0)
        .or_default()
        .push(0);
    let mut ids: HashMap<Vec<StateId>, StateId> = HashMap::new();
    ids.insert(identity.clone(), 0);
    let mut functions: Vec<Vec<StateId>> = vec![identity];
    let mut table: Vec<StateId> = Vec::new();
    budget.grow_table(&mut table, stride, u32::MAX, WHAT_BYTES)?;

    // Transient candidate buffers are bounded per slice; the slice size
    // does NOT depend on the pool, so numbering never does either.
    let slice_states = (WAVE_CANDIDATE_BYTES / (stride * n * entry).max(1)).max(1);
    let mut frontier: Vec<StateId> = vec![0];
    let mut locals: Vec<Vec<(u32, u8, Cand)>> = (0..pool.map_or(1, |p| p.num_workers() + 1))
        .map(|_| Vec::new())
        .collect();

    while !frontier.is_empty() {
        let mut next_frontier: Vec<StateId> = Vec::new();
        for wave in frontier.chunks(slice_states) {
            // Expand: compute every (frontier state, class) successor and
            // resolve it against the frozen pre-wave seen-table. Workers
            // only read shared state and write their private local.
            {
                let seen = &seen;
                let functions = &functions;
                let next = &next;
                let expand = |local: &mut Vec<(u32, u8, Cand)>, t: usize| {
                    let f = &functions[wave[t] as usize];
                    for class in 0..stride {
                        let g: Vec<StateId> = f.iter().map(|&q| next(q, class as u8)).collect();
                        let fp = fingerprint(&g);
                        let cand = match resolve(seen, functions, fp, &g) {
                            Some(id) => Cand::Known(id),
                            None => Cand::New(fp, g),
                        };
                        local.push((t as u32, class as u8, cand));
                    }
                };
                match pool {
                    Some(pool) => pool.invoke_all_scoped(wave.len(), &mut locals, expand),
                    None => {
                        for t in 0..wave.len() {
                            expand(&mut locals[0], t);
                        }
                    }
                }
            }
            // Merge serially in (frontier position, class) order — the
            // single point of id assignment, so numbering is independent
            // of worker count and interleaving.
            let mut cands: Vec<(u32, u8, Cand)> =
                locals.iter_mut().flat_map(|l| l.drain(..)).collect();
            cands.sort_unstable_by_key(|&(t, c, _)| (t, c));
            for (t, class, cand) in cands {
                let s = wave[t as usize];
                let id = match cand {
                    Cand::Known(id) => id,
                    Cand::New(fp, g) => {
                        // A sibling candidate in this same wave may have
                        // claimed the function already.
                        match resolve(&seen, &functions, fp, &g) {
                            Some(id) => id,
                            None => {
                                budget.charge_state(functions.len(), WHAT_STATES)?;
                                ids_bytes += per_state_bytes;
                                budget.charge_bytes(ids_bytes, WHAT_IDS_BYTES)?;
                                budget.grow_table(&mut table, stride, u32::MAX, WHAT_BYTES)?;
                                let id = functions.len() as StateId;
                                seen[fp as usize % SEEN_SHARDS]
                                    .entry(fp)
                                    .or_default()
                                    .push(id);
                                ids.insert(g.clone(), id);
                                functions.push(g);
                                next_frontier.push(id);
                                id
                            }
                        }
                    }
                };
                table[s as usize * stride + class as usize] = id;
            }
        }
        frontier = next_frontier;
    }
    if !premultiply_in_place(&mut table, stride) {
        return Err(Error::LimitExceeded {
            what: WHAT_BYTES,
            limit: StateId::MAX as usize * entry,
        });
    }
    Ok(Sfa {
        table,
        stride,
        byte_classes: classes.clone(),
        functions,
        ids,
        dfa_start: start,
        dfa_finals: finals.clone(),
    })
}

/// CSDPA chunk automaton wrapping an [`Sfa`]: zero speculation, one exact
/// chunk walk per chunk (see the module docs), at the cost of the
/// (potentially huge) SFA table.
#[derive(Debug, Clone)]
pub struct SfaCa<'a> {
    sfa: &'a Sfa,
}

impl<'a> SfaCa<'a> {
    /// Wraps `sfa`.
    pub fn new(sfa: &'a Sfa) -> Self {
        SfaCa { sfa }
    }
}

impl ChunkAutomaton for SfaCa<'_> {
    /// The SFA state (transition function) the chunk's single run reached.
    type Mapping = StateId;
    type Scratch = ();
    /// Buffer for the composed function during the inverse lookup.
    type ComposeScratch = Vec<StateId>;

    fn scan_into(
        &self,
        chunk: &[u8],
        _scratch: &mut (),
        counter: &mut impl Counter,
        out: &mut StateId,
    ) {
        *out = self.sfa.walk(chunk, counter);
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut StateId) {
        // The first chunk also runs from the identity: the start state is
        // applied at join time.
        *out = self.sfa.walk(chunk, counter);
    }

    /// SFA states *are* transition functions, so composition is the
    /// inverse table lookup of the composed function — speculation-free
    /// like the scans themselves.
    fn compose_into(
        &self,
        left: &StateId,
        right: &StateId,
        scratch: &mut Vec<StateId>,
        out: &mut StateId,
    ) {
        *out = self.sfa.compose(*left, *right, scratch);
    }

    fn accepts_mapping(&self, mapping: &StateId) -> bool {
        let q = self.sfa.function(*mapping)[self.sfa.dfa_start as usize];
        q != DEAD && self.sfa.dfa_finals.contains(q)
    }

    fn mapping_is_dead(&self, mapping: &StateId) -> bool {
        self.sfa.function(*mapping).iter().all(|&q| q == DEAD)
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        self.accepts_mapping(&self.sfa.walk(text, counter))
    }

    fn num_speculative_starts(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "sfa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{recognize, recognize_counted, Executor};
    use ridfa_automata::dfa::minimize::minimize;
    use ridfa_automata::dfa::powerset::determinize;
    use ridfa_automata::dfa::premultiply;
    use ridfa_automata::nfa::glushkov;
    use ridfa_automata::regex::parse;
    use ridfa_automata::{NoCount, TransitionCount};

    fn sfa_for(pattern: &str) -> (Sfa, Dfa) {
        let dfa = determinize(&glushkov::build(&parse(pattern).unwrap()).unwrap());
        let sfa = Sfa::build_limited(&dfa, 1 << 16).unwrap();
        (sfa, dfa)
    }

    /// The SFA of the minimized DFA (minimization merges `a*`'s states, so
    /// a word of a's denotes the identity).
    fn min_sfa_for(pattern: &str) -> Sfa {
        let dfa = minimize(&determinize(
            &glushkov::build(&parse(pattern).unwrap()).unwrap(),
        ));
        Sfa::build_limited(&dfa, 1 << 16).unwrap()
    }

    /// Deterministic xorshift text over `alphabet`.
    fn text_over(alphabet: &[u8], len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                alphabet[(x % alphabet.len() as u64) as usize]
            })
            .collect()
    }

    #[test]
    fn chunk_walk_matches_the_byte_serial_oracle() {
        // Lengths around the split threshold and far above it, at
        // unaligned offsets. Walks are compared as functions: the oracle
        // and the joins may name one function by different ids.
        let lengths = [0, 1, SPLIT_MIN - 1, SPLIT_MIN, SPLIT_MIN + 3, 1 << 20];
        for (pattern, alphabet) in [
            ("(a|b)*abb", &b"ab"[..]),
            // `z` kills every run wherever it occurs.
            ("[ab]*a[ab]{3}", b"abz"),
            // Minimized, every non-empty word of a's denotes the identity,
            // so chains land back on row 0 — which is live here.
            ("a*", b"a"),
            ("a*", b"ab"),
            // Every run dies on the first byte.
            ("abc", b"z"),
            // More base states than the join key holds: walks unsplit.
            ("a{600}", b"a"),
        ] {
            let sfa = min_sfa_for(pattern);
            for &len in &lengths {
                let text = text_over(alphabet, len + 3, len as u64);
                for offset in [0, 1, 3] {
                    let chunk = &text[offset..offset + len];
                    let mut walked = TransitionCount::default();
                    let got = sfa.walk(chunk, &mut walked);
                    let want = sfa.run_from(sfa.identity(), chunk, &mut NoCount);
                    assert_eq!(
                        sfa.function(got),
                        sfa.function(want),
                        "{pattern}: {len} bytes at offset {offset}"
                    );
                    assert_eq!(walked.get(), len as u64, "one transition per byte");
                }
            }
        }
        let sfa = min_sfa_for("a*");
        assert_eq!(sfa.walk(&b"a".repeat(SPLIT_MIN), &mut NoCount), 0);
        assert!(min_sfa_for("a{600}").function(0).len() > KEY_CAP);
    }

    #[test]
    fn chunk_walk_joins_quarters_of_a_decoded_sfa() {
        // A decoded SFA is validated, not rebuilt: the joins must find
        // every composed function in its inverse map too.
        let nfa = glushkov::build(&parse("[ab]*a[ab]{2}").unwrap()).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        let back = Sfa::from_rid_parts(&rid, sfa.table(), sfa.flattened_functions()).unwrap();
        let text = text_over(b"ab", 4 * SPLIT_MIN + 1, 7);
        let want = sfa.run_from(sfa.identity(), &text, &mut NoCount);
        assert_eq!(
            back.function(back.walk(&text, &mut NoCount)),
            sfa.function(want)
        );
    }

    #[test]
    fn sfa_agrees_with_dfa() {
        let (sfa, dfa) = sfa_for("(a|b)*abb");
        let ca = SfaCa::new(&sfa);
        for text in [&b"aababb"[..], b"abb", b"ab", b"", b"bbbb"] {
            let out = recognize(&ca, text, 3, Executor::Serial);
            assert_eq!(out.accepted, dfa.accepts(text), "{text:?}");
            let mut nc = NoCount;
            assert_eq!(ca.accepts_serial(text, &mut nc), dfa.accepts(text));
        }
    }

    #[test]
    fn sfa_runs_have_zero_speculation() {
        let (sfa, _) = sfa_for("[ab]*a[ab]{3}");
        let ca = SfaCa::new(&sfa);
        // The short text's chunks walk unsplit; the long text's 256 KiB
        // chunks take the four-chain walk, which must count the same.
        for text in [b"abababababab".to_vec(), b"abab".repeat(1 << 18)] {
            let out = recognize_counted(&ca, &text, 4, Executor::Serial);
            // One run per chunk: exactly |text| transitions in total.
            assert_eq!(out.transitions, text.len() as u64);
            let mut serial = TransitionCount::default();
            ca.accepts_serial(&text, &mut serial);
            assert_eq!(serial.get(), text.len() as u64);
        }
    }

    #[test]
    fn resident_bytes_count_one_table_the_functions_and_the_inverse_map() {
        let (sfa, dfa) = sfa_for("(a|b)*abb");
        let entry = std::mem::size_of::<StateId>();
        let table = sfa.num_states() * sfa.stride() * entry;
        let functions = sfa.num_states() * dfa.num_states() * entry;
        // The inverse map keeps one key clone per function.
        assert_eq!(sfa.resident_bytes(), table + 2 * functions);
    }

    #[test]
    fn sfa_explodes_beyond_dfa_size() {
        // SFA states are functions: typically far more than DFA states.
        let (sfa, dfa) = sfa_for("[ab]*a[ab]{3}");
        assert!(sfa.num_states() > dfa.num_states());
    }

    #[test]
    fn sfa_limit_enforced() {
        let dfa = determinize(&glushkov::build(&parse("[ab]*a[ab]{8}").unwrap()).unwrap());
        let err = Sfa::build_limited(&dfa, 64).unwrap_err();
        assert!(matches!(err, Error::LimitExceeded { .. }));
    }

    #[test]
    fn sfa_byte_budget_enforced() {
        // The byte axis now covers the retained function/inverse
        // structures too: a large base automaton under a tiny byte budget
        // trips the "SFA ids bytes" ledger before the identity function
        // is even retained; roomier budgets trip on the dense table.
        let dfa = determinize(&glushkov::build(&parse("[ab]*a[ab]{8}").unwrap()).unwrap());
        let err = Sfa::build_budgeted(&dfa, &ConstructionBudget::with_max_table_bytes(1 << 10))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::LimitExceeded {
                what: "SFA ids bytes" | "SFA table bytes",
                ..
            }
        ));
    }

    #[test]
    fn sfa_ids_budget_fails_typed_before_allocating() {
        // Regression (ISSUE 9 satellite): the retained `ids` inverse map
        // was not budget-accounted — a pathological pattern could blow
        // memory through the side structures while the table stayed under
        // its cap. The charge must land before any function allocates:
        // the very first (identity) retention already exceeds this budget.
        let dfa = determinize(&glushkov::build(&parse("[ab]*a[ab]{8}").unwrap()).unwrap());
        let budget = ConstructionBudget::with_max_table_bytes(
            2 * dfa.num_states() * std::mem::size_of::<StateId>() - 1,
        );
        let err = Sfa::build_budgeted(&dfa, &budget).unwrap_err();
        assert!(matches!(
            err,
            Error::LimitExceeded {
                what: "SFA ids bytes",
                ..
            }
        ));
    }

    #[test]
    fn parallel_build_equals_serial_build() {
        let pool = ThreadPool::new(3);
        for pattern in ["(a|b)*abb", "[ab]*a[ab]{3}", "abc", "(ab|ba)*c?"] {
            let dfa = determinize(&glushkov::build(&parse(pattern).unwrap()).unwrap());
            let serial = Sfa::build_budgeted(&dfa, &ConstructionBudget::UNLIMITED).unwrap();
            let parallel =
                Sfa::build_parallel(&dfa, &ConstructionBudget::UNLIMITED, &pool).unwrap();
            // Deterministic numbering: byte-identical tables and functions.
            assert_eq!(serial.table, parallel.table, "{pattern}");
            assert_eq!(serial.functions, parallel.functions, "{pattern}");
            assert_eq!(serial.num_states(), parallel.num_states(), "{pattern}");
        }
    }

    #[test]
    fn rid_build_agrees_with_language() {
        let nfa = glushkov::build(&parse("(a|b)*abb").unwrap()).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        let ca = SfaCa::new(&sfa);
        for text in [&b"aababb"[..], b"abb", b"ab", b"", b"bbbb", b"babb"] {
            let mut nc = NoCount;
            assert_eq!(
                ca.accepts_serial(text, &mut nc),
                nfa.accepts(text),
                "{text:?}"
            );
            let out = recognize(&ca, text, 3, Executor::Serial);
            assert_eq!(out.accepted, nfa.accepts(text), "{text:?}");
        }
    }

    #[test]
    fn rid_parts_roundtrip_and_validate() {
        let nfa = glushkov::build(&parse("[ab]*a[ab]{2}").unwrap()).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        // Serialization divides the premultiplied rows back out.
        assert_eq!(premultiply(&sfa.table(), sfa.stride()), sfa.table);
        let back = Sfa::from_rid_parts(&rid, sfa.table(), sfa.flattened_functions()).unwrap();
        assert_eq!(back.table, sfa.table);
        assert_eq!(back.functions, sfa.functions);
        // A forged table entry that disagrees with the base automaton is
        // rejected (this is what makes decoded compose() panic-free).
        let mut bad_table = sfa.table();
        bad_table[0] = (sfa.num_states() as StateId).saturating_sub(1);
        if Sfa::from_rid_parts(&rid, bad_table.clone(), sfa.flattened_functions()).is_ok() {
            // Only acceptable if the forgery happened to be a no-op.
            assert_eq!(bad_table, sfa.table());
        }
        // A non-identity state 0 is rejected outright.
        let mut bad_fns = sfa.flattened_functions();
        bad_fns[0] = bad_fns[0].wrapping_add(1) % rid.num_states() as StateId;
        assert!(Sfa::from_rid_parts(&rid, sfa.table(), bad_fns).is_err());
    }

    #[test]
    fn identity_function_is_identity() {
        let (sfa, dfa) = sfa_for("abc");
        let id = sfa.function(sfa.identity());
        for q in 0..dfa.num_states() as StateId {
            assert_eq!(id[q as usize], q);
        }
    }
}

//! First-class speculation policy: the per-pattern [`EnginePlan`] and
//! the resolved [`Engine`] that carries its tables.
//!
//! The paper's core trade-off — *minimize* speculation (RID lockstep)
//! vs *eliminate* it (SFA) vs *shrink* it (feasible-start pruning à la
//! PaREM) — is an explicit, portable, per-pattern choice. An
//! [`EnginePlan`] names it; [`Engine::resolve`] turns a requested plan
//! into a concrete [`Engine`] once per pattern, building whatever tables
//! the plan needs. The serving registry resolves at insert time and
//! `ridfa compile` at compile time, through this one function, so the
//! two cannot drift: only the residency headroom they pass differs. The
//! plan is persisted in the binary artifact's engine section and carried
//! everywhere the pattern travels — registry entries, serve replicas,
//! `inspect-artifact`. Inside the crate, an engine's chunk automaton is
//! one `EngineCa` value, so every registry lane dispatches once.
//!
//! Three concrete engines exist:
//!
//! * **Lockstep** — the speculative path: one run per interface state
//!   through the convergence-merging kernel. Always available; the
//!   fallback of every other plan.
//! * **Sfa** — zero speculation: one deterministic run per chunk over
//!   the (pre-built, budget-bounded) simultaneous automaton
//!   ([`crate::sfa::Sfa`]). Only viable when the SFA function space
//!   stayed small; [`select`] probes that with a capped trial build.
//! * **FeasibleStart** — speculation shrunk at every chunk boundary: a
//!   per-byte-class [`FeasibleTable`] (computed once per pattern) kills
//!   the runs whose origin state cannot survive the chunk's first byte
//!   *before* they are seeded, so the kernel starts `|feasible(c)|`
//!   runs instead of `|interface|`. Sound because the kernel skips
//!   [`DEAD`] seeds and a run whose first transition dies yields the
//!   same `DEAD` entry — mappings are bit-identical, verified by the
//!   engine differential suite.
//!
//! The lockstep and feasible-start engines scan with the same chunk
//! automaton: a [`RidCa`] on [`Kernel::Auto`], given the feasible table
//! through [`RidCa::with_feasible`] for the latter.

use ridfa_automata::counter::Counter;
use ridfa_automata::{ConstructionBudget, StateId, DEAD};

use crate::parallel::ThreadPool;
use crate::ridfa::RiDfa;
use crate::sfa::{Sfa, SfaCa};

use super::budget::InterruptProbe;
use super::kernel::{Kernel, Scratch};
use super::{ChunkAutomaton, RidCa, RidMapping};

/// SFA state-count cap for `Auto` plan resolution: a trial SFA build
/// that exceeds this many function states fails fast and the plan
/// falls back to a speculative engine. Small/medium DFAs (the regime
/// where SFA wins) stay far under it; explosion-prone patterns trip it
/// in milliseconds.
pub const SFA_AUTO_MAX_STATES: usize = 1 << 12;

/// SFA table-byte cap for `Auto` plan resolution (dense table plus the
/// retained function/inverse structures, each bounded separately).
pub const SFA_AUTO_MAX_TABLE_BYTES: usize = 8 << 20;

/// Interface size at which feasible-start pruning can pay: below this,
/// the lockstep kernel's convergence merging already collapses the few
/// speculative runs faster than a boundary pre-pass can prune them.
pub const FEASIBLE_MIN_INTERFACE: usize = 16;

/// The per-pattern speculation policy. `Auto` only exists *before*
/// resolution (in CLI flags and freshly parsed artifacts); a registry
/// entry always carries one of the three concrete engines (see
/// [`Engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePlan {
    /// Not yet decided: resolve via [`select`] at registration time.
    #[default]
    Auto,
    /// Speculative lockstep kernel over the full interface.
    Lockstep,
    /// Zero-speculation simultaneous automaton (requires prebuilt SFA
    /// tables).
    Sfa,
    /// Lockstep kernel with feasible-start boundary pruning (requires a
    /// prebuilt [`FeasibleTable`]).
    FeasibleStart,
}

impl EnginePlan {
    /// The artifact tag byte.
    pub fn tag(self) -> u8 {
        match self {
            EnginePlan::Auto => 0,
            EnginePlan::Lockstep => 1,
            EnginePlan::Sfa => 2,
            EnginePlan::FeasibleStart => 3,
        }
    }

    /// Parses an artifact tag byte.
    pub fn from_tag(tag: u8) -> Option<EnginePlan> {
        match tag {
            0 => Some(EnginePlan::Auto),
            1 => Some(EnginePlan::Lockstep),
            2 => Some(EnginePlan::Sfa),
            3 => Some(EnginePlan::FeasibleStart),
            _ => None,
        }
    }

    /// Short display name (CLI flag values and registry stats lines).
    pub fn name(self) -> &'static str {
        match self {
            EnginePlan::Auto => "auto",
            EnginePlan::Lockstep => "lockstep",
            EnginePlan::Sfa => "sfa",
            EnginePlan::FeasibleStart => "feasible",
        }
    }

    /// Parses a CLI flag value (`--engine auto|lockstep|sfa|feasible`).
    pub fn parse_flag(s: &str) -> Option<EnginePlan> {
        match s {
            "auto" => Some(EnginePlan::Auto),
            "lockstep" => Some(EnginePlan::Lockstep),
            "sfa" => Some(EnginePlan::Sfa),
            "feasible" => Some(EnginePlan::FeasibleStart),
            _ => None,
        }
    }
}

/// Resolves `Auto` into a concrete engine. Pure and pinned (see the
/// `engine_selection_matrix_is_pinned` test): callers pass the outcome
/// of a capped trial SFA build (`Some(states)` if it completed under
/// [`SFA_AUTO_MAX_STATES`] / [`SFA_AUTO_MAX_TABLE_BYTES`], `None` if it
/// tripped the budget) plus the pattern's interface size.
///
/// * SFA viable → **Sfa**: with the function space small, one
///   deterministic run per chunk beats any amount of speculation.
/// * SFA exploded, wide interface → **FeasibleStart**: pruning at
///   boundaries is the only lever left, and wide interfaces are where
///   it pays.
/// * SFA exploded, narrow interface → **Lockstep**: few runs to begin
///   with; convergence merging already wins.
pub fn select(sfa_states: Option<usize>, interface_len: usize) -> EnginePlan {
    match sfa_states {
        Some(states) if states <= SFA_AUTO_MAX_STATES => EnginePlan::Sfa,
        _ if interface_len >= FEASIBLE_MIN_INTERFACE => EnginePlan::FeasibleStart,
        _ => EnginePlan::Lockstep,
    }
}

/// A resolved speculation engine: the concrete plan together with the
/// tables it scans with. Built once per pattern by
/// [`resolve`](Engine::resolve).
#[derive(Debug, Clone)]
pub enum Engine {
    /// Speculative lockstep over the full interface (no extra tables).
    Lockstep,
    /// Lockstep with feasible-start boundary pruning.
    FeasibleStart(FeasibleTable),
    /// The zero-speculation simultaneous automaton.
    Sfa(Sfa),
}

impl Engine {
    /// Resolves `requested` to a concrete engine for `rid`, building
    /// whatever tables the plan needs and is not already carrying (an
    /// artifact may carry them).
    ///
    /// `Auto` runs a trial SFA build on `pool` under `budget` *capped* by
    /// [`SFA_AUTO_MAX_STATES`] / [`SFA_AUTO_MAX_TABLE_BYTES`] — a budget
    /// trip there is the expected "SFA not viable" signal, not an error —
    /// and keeps the SFA only if its tables fit `headroom` bytes. Otherwise
    /// it falls back through [`select`]: feasible-start pruning on wide
    /// interfaces, plain lockstep on narrow ones. An *explicit* `Sfa`
    /// request builds under the full `budget` and surfaces its failure.
    pub fn resolve(
        rid: &RiDfa,
        requested: EnginePlan,
        carried_sfa: Option<Sfa>,
        carried_feasible: Option<FeasibleTable>,
        budget: &ConstructionBudget,
        headroom: usize,
        pool: &ThreadPool,
    ) -> ridfa_automata::Result<Engine> {
        let feasible = || carried_feasible.unwrap_or_else(|| FeasibleTable::build(rid));
        Ok(match requested {
            EnginePlan::Lockstep => Engine::Lockstep,
            EnginePlan::FeasibleStart => Engine::FeasibleStart(feasible()),
            EnginePlan::Sfa => Engine::Sfa(match carried_sfa {
                Some(sfa) => sfa,
                None => Sfa::build_rid_parallel(rid, budget, pool)?,
            }),
            EnginePlan::Auto => {
                let capped = ConstructionBudget {
                    max_states: budget.max_states.min(SFA_AUTO_MAX_STATES),
                    max_table_bytes: budget.max_table_bytes.min(SFA_AUTO_MAX_TABLE_BYTES),
                };
                match Sfa::build_rid_parallel(rid, &capped, pool) {
                    Ok(sfa) if sfa.resident_bytes() <= headroom => Engine::Sfa(sfa),
                    _ => match select(None, rid.interface().len()) {
                        EnginePlan::FeasibleStart => Engine::FeasibleStart(feasible()),
                        _ => Engine::Lockstep,
                    },
                }
            }
        })
    }

    /// The concrete plan (never `Auto`).
    pub fn plan(&self) -> EnginePlan {
        match self {
            Engine::Lockstep => EnginePlan::Lockstep,
            Engine::FeasibleStart(_) => EnginePlan::FeasibleStart,
            Engine::Sfa(_) => EnginePlan::Sfa,
        }
    }

    /// Heap bytes of the engine's own tables (on top of the RI-DFA's).
    pub fn resident_bytes(&self) -> usize {
        match self {
            Engine::Lockstep => 0,
            Engine::FeasibleStart(table) => table.resident_bytes(),
            Engine::Sfa(sfa) => sfa.resident_bytes(),
        }
    }

    /// The engine's chunk automaton over `rid`, the RI-DFA's chunk
    /// automaton built on the same tables (unused by the SFA engine).
    pub(crate) fn ca<'a>(&'a self, rid: RidCa<'a>) -> EngineCa<'a> {
        match self {
            Engine::Lockstep => EngineCa::Rid(rid.with_kernel(Kernel::Auto)),
            Engine::FeasibleStart(table) => {
                EngineCa::Rid(rid.with_kernel(Kernel::Auto).with_feasible(table))
            }
            Engine::Sfa(sfa) => EngineCa::Sfa(SfaCa::new(sfa)),
        }
    }
}

/// The feasible-start table of a pattern: for every byte class `c`, the
/// set of interface positions whose origin state survives a `c`
/// transition. Computed once per pattern (`O(|interface| × stride)`),
/// consulted once per chunk/stream-block boundary; storage is
/// `stride × ⌈|interface| / 64⌉` words — a few hundred bytes for
/// typical patterns, accounted in the registry's resident ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeasibleTable {
    /// Interface positions covered per class (bit `i` of class row `c` =
    /// interface position `i` survives class `c`).
    words: Vec<u64>,
    /// Bitset words per class row.
    words_per_class: usize,
    /// Number of byte classes (rows).
    stride: usize,
    /// Number of interface positions (bits used per row).
    interface_len: usize,
}

impl FeasibleTable {
    /// Builds the table of `rid` by probing one transition per
    /// (interface state, byte class) pair.
    pub fn build(rid: &RiDfa) -> FeasibleTable {
        let interface = rid.interface();
        let stride = rid.stride();
        let words_per_class = interface.len().div_ceil(64).max(1);
        let mut words = vec![0u64; stride * words_per_class];
        for (i, &p) in interface.iter().enumerate() {
            for class in 0..stride {
                if rid.next_class(p, class as u8) != DEAD {
                    words[class * words_per_class + i / 64] |= 1 << (i % 64);
                }
            }
        }
        FeasibleTable {
            words,
            words_per_class,
            stride,
            interface_len: interface.len(),
        }
    }

    /// Rebuilds a table from its serialized parts, validating shape (the
    /// artifact decoder re-verifies *content* against the decoded RI-DFA
    /// by comparing with a fresh [`build`](FeasibleTable::build)).
    pub fn from_parts(
        stride: usize,
        interface_len: usize,
        words: Vec<u64>,
    ) -> Result<FeasibleTable, String> {
        let words_per_class = interface_len.div_ceil(64).max(1);
        if stride == 0 {
            return Err("feasible table with zero byte classes".into());
        }
        if words.len() != stride * words_per_class {
            return Err(format!(
                "feasible table holds {} words, expected {stride} classes × {words_per_class}",
                words.len()
            ));
        }
        Ok(FeasibleTable {
            words,
            words_per_class,
            stride,
            interface_len,
        })
    }

    /// Does the run from interface position `i` survive a first byte of
    /// class `class`?
    #[inline]
    pub fn is_feasible(&self, class: u8, i: usize) -> bool {
        debug_assert!(i < self.interface_len);
        let row = class as usize * self.words_per_class;
        self.words[row + i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of feasible origins for a first byte of class `class`.
    pub fn feasible_count(&self, class: u8) -> usize {
        let row = class as usize * self.words_per_class;
        self.words[row..row + self.words_per_class]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The raw bitset words (serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of byte classes (rows).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of interface positions covered per row.
    pub fn interface_len(&self) -> usize {
        self.interface_len
    }

    /// Heap bytes this table keeps resident (registry ledger).
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// The chunk automaton of a resolved [`Engine`]: one type for all three
/// engines, delegating every call to the engine's own chunk automaton,
/// so a caller that serves any engine dispatches once. The lockstep and
/// feasible-start engines are both a [`RidCa`] (the latter with a
/// feasible table).
pub(crate) enum EngineCa<'a> {
    Rid(RidCa<'a>),
    Sfa(SfaCa<'a>),
}

/// A mapping slot of [`EngineCa`]: the RID shape of the lockstep and
/// feasible-start engines, or the single state of the SFA engine. A slot
/// takes the shape of whatever is written into it.
#[derive(Debug)]
pub(crate) enum EngineMapping {
    Rid(RidMapping),
    Sfa(StateId),
}

impl Default for EngineMapping {
    fn default() -> EngineMapping {
        EngineMapping::Rid(RidMapping::default())
    }
}

impl EngineMapping {
    fn rid(&self) -> &RidMapping {
        match self {
            EngineMapping::Rid(m) => m,
            EngineMapping::Sfa(_) => unreachable!("an SFA mapping given to a RID engine"),
        }
    }

    fn sfa(&self) -> &StateId {
        match self {
            EngineMapping::Sfa(s) => s,
            EngineMapping::Rid(_) => unreachable!("a RID mapping given to the SFA engine"),
        }
    }

    fn rid_mut(&mut self) -> &mut RidMapping {
        if let EngineMapping::Sfa(_) = self {
            *self = EngineMapping::default();
        }
        match self {
            EngineMapping::Rid(m) => m,
            EngineMapping::Sfa(_) => unreachable!("converted above"),
        }
    }

    fn sfa_mut(&mut self) -> &mut StateId {
        if let EngineMapping::Rid(_) = self {
            *self = EngineMapping::Sfa(0);
        }
        match self {
            EngineMapping::Sfa(s) => s,
            EngineMapping::Rid(_) => unreachable!("converted above"),
        }
    }
}

/// Runs `$rid` with `$ca` bound to the RID chunk automaton, or `$sfa`
/// with it bound to the SFA one (`$rid` for both when no `$sfa` is
/// given).
macro_rules! dispatch {
    ($self:expr, |$ca:ident| $rid:expr, $sfa:expr) => {
        match $self {
            EngineCa::Rid($ca) => $rid,
            EngineCa::Sfa($ca) => $sfa,
        }
    };
    ($self:expr, |$ca:ident| $any:expr) => {
        dispatch!($self, |$ca| $any, $any)
    };
}

impl ChunkAutomaton for EngineCa<'_> {
    type Mapping = EngineMapping;
    type Scratch = Scratch;
    type ComposeScratch = (Vec<StateId>, Vec<StateId>);

    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Scratch,
        counter: &mut impl Counter,
        out: &mut EngineMapping,
    ) {
        dispatch!(
            self,
            |ca| ca.scan_into(chunk, scratch, counter, out.rid_mut()),
            ca.scan_into(chunk, &mut (), counter, out.sfa_mut())
        )
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut EngineMapping) {
        dispatch!(
            self,
            |ca| ca.scan_first_into(chunk, counter, out.rid_mut()),
            ca.scan_first_into(chunk, counter, out.sfa_mut())
        )
    }

    fn arm_interrupt(&self, scratch: &mut Scratch, probe: Option<&InterruptProbe>) {
        dispatch!(
            self,
            |ca| ca.arm_interrupt(scratch, probe),
            ca.arm_interrupt(&mut (), probe)
        )
    }

    fn compose_into(
        &self,
        left: &EngineMapping,
        right: &EngineMapping,
        scratch: &mut (Vec<StateId>, Vec<StateId>),
        out: &mut EngineMapping,
    ) {
        dispatch!(
            self,
            |ca| ca.compose_into(left.rid(), right.rid(), scratch, out.rid_mut()),
            ca.compose_into(left.sfa(), right.sfa(), &mut scratch.0, out.sfa_mut())
        )
    }

    fn accepts_mapping(&self, mapping: &EngineMapping) -> bool {
        dispatch!(
            self,
            |ca| ca.accepts_mapping(mapping.rid()),
            ca.accepts_mapping(mapping.sfa())
        )
    }

    fn mapping_is_dead(&self, mapping: &EngineMapping) -> bool {
        dispatch!(
            self,
            |ca| ca.mapping_is_dead(mapping.rid()),
            ca.mapping_is_dead(mapping.sfa())
        )
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        dispatch!(self, |ca| ca.accepts_serial(text, counter))
    }

    fn num_speculative_starts(&self) -> usize {
        dispatch!(self, |ca| ca.num_speculative_starts())
    }

    fn effective_kernel(&self, chunk_len: usize) -> Option<Kernel> {
        dispatch!(self, |ca| ca.effective_kernel(chunk_len))
    }

    fn name(&self) -> &'static str {
        dispatch!(self, |ca| ca.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{recognize, Executor};
    use crate::ridfa::construct::tests::figure1_nfa;
    use ridfa_automata::NoCount;

    #[test]
    fn plan_tags_roundtrip() {
        for plan in [
            EnginePlan::Auto,
            EnginePlan::Lockstep,
            EnginePlan::Sfa,
            EnginePlan::FeasibleStart,
        ] {
            assert_eq!(EnginePlan::from_tag(plan.tag()), Some(plan));
            assert_eq!(EnginePlan::parse_flag(plan.name()), Some(plan));
        }
        assert_eq!(EnginePlan::from_tag(9), None);
        assert_eq!(EnginePlan::parse_flag("turbo"), None);
    }

    #[test]
    fn feasible_table_matches_direct_probing() {
        let rid = RiDfa::from_nfa(&figure1_nfa()).minimized();
        let table = FeasibleTable::build(&rid);
        assert_eq!(table.interface_len(), rid.interface().len());
        for (i, &p) in rid.interface().iter().enumerate() {
            for class in 0..rid.stride() as u8 {
                assert_eq!(
                    table.is_feasible(class, i),
                    rid.next_class(p, class) != DEAD,
                    "origin {i} class {class}"
                );
            }
        }
        // Shape survives a serialization roundtrip.
        let back = FeasibleTable::from_parts(
            table.stride(),
            table.interface_len(),
            table.words().to_vec(),
        )
        .unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn feasible_mappings_are_bit_identical_to_lockstep() {
        let rid = RiDfa::from_nfa(&figure1_nfa()).minimized();
        let table = FeasibleTable::build(&rid);
        for kernel in [Kernel::PerRun, Kernel::LockstepShared, Kernel::Auto] {
            let pruned = RidCa::new(&rid).with_kernel(kernel).with_feasible(&table);
            let plain = RidCa::new(&rid).with_kernel(kernel);
            for chunk in [&b"cab"[..], b"aab", b"", b"bbbb", b"aabcabaabcab", b"zzz"] {
                assert_eq!(
                    pruned.scan(chunk, &mut NoCount),
                    plain.scan(chunk, &mut NoCount),
                    "{kernel:?} on {chunk:?}"
                );
            }
        }
    }

    #[test]
    fn feasible_recognition_agrees_end_to_end() {
        let rid = RiDfa::from_nfa(&figure1_nfa()).minimized();
        let table = FeasibleTable::build(&rid);
        let ca = RidCa::new(&rid)
            .with_kernel(Kernel::Auto)
            .with_feasible(&table);
        let mut text = b"aabcab".repeat(100);
        for chunks in [1usize, 2, 5, 16] {
            assert!(recognize(&ca, &text, chunks, Executor::Auto).accepted);
        }
        text.push(b'c');
        assert!(!recognize(&ca, &text, 4, Executor::Auto).accepted);
    }

    #[test]
    fn engine_selection_matrix_is_pinned() {
        // SFA viable → Sfa, whatever the interface width.
        assert_eq!(select(Some(1), 1), EnginePlan::Sfa);
        assert_eq!(select(Some(SFA_AUTO_MAX_STATES), 4096), EnginePlan::Sfa);
        // Over the viability cap → treated as exploded.
        assert_eq!(
            select(Some(SFA_AUTO_MAX_STATES + 1), 4),
            EnginePlan::Lockstep
        );
        // Exploded + wide interface → feasible-start pruning.
        assert_eq!(
            select(None, FEASIBLE_MIN_INTERFACE),
            EnginePlan::FeasibleStart
        );
        assert_eq!(select(None, 4096), EnginePlan::FeasibleStart);
        // Exploded + narrow interface → plain lockstep.
        assert_eq!(
            select(None, FEASIBLE_MIN_INTERFACE - 1),
            EnginePlan::Lockstep
        );
        assert_eq!(select(None, 0), EnginePlan::Lockstep);
        assert_eq!(select(None, 1), EnginePlan::Lockstep);
    }

    #[test]
    fn resolve_keeps_the_trial_sfa_only_within_headroom_and_caps() {
        use ridfa_automata::nfa::glushkov;
        use ridfa_automata::regex::parse;
        // 137 RI-DFA states, 8 interface states, a 256-state SFA.
        let nfa = glushkov::build(&parse("[ab]*a[ab]{6}").unwrap()).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let pool = ThreadPool::new(1);
        let unlimited = ConstructionBudget::UNLIMITED;
        let capped = ConstructionBudget::with_max_states(200);
        let resolve = |plan, budget: &ConstructionBudget, headroom| {
            Engine::resolve(&rid, plan, None, None, budget, headroom, &pool)
        };

        let auto = resolve(EnginePlan::Auto, &unlimited, usize::MAX).unwrap();
        let Engine::Sfa(sfa) = &auto else {
            panic!("expected the SFA engine, got {:?}", auto.plan());
        };
        assert_eq!(sfa.num_states(), 256);
        assert_eq!(auto.resident_bytes(), sfa.resident_bytes());
        // No room for the SFA tables, or a state cap below the SFA's
        // size: Auto falls back to lockstep (the interface is narrow).
        let no_room = resolve(EnginePlan::Auto, &unlimited, sfa.resident_bytes() - 1).unwrap();
        assert_eq!(no_room.plan(), EnginePlan::Lockstep);
        assert_eq!(no_room.resident_bytes(), 0);
        let under_cap = resolve(EnginePlan::Auto, &capped, usize::MAX).unwrap();
        assert_eq!(under_cap.plan(), EnginePlan::Lockstep);
        // An explicit SFA request surfaces the cap instead.
        assert!(resolve(EnginePlan::Sfa, &capped, usize::MAX).is_err());
        // Explicit plans ignore headroom and build what they need.
        let feasible = resolve(EnginePlan::FeasibleStart, &unlimited, 0).unwrap();
        let Engine::FeasibleStart(table) = &feasible else {
            panic!("expected feasible-start, got {:?}", feasible.plan());
        };
        assert_eq!(*table, FeasibleTable::build(&rid));
    }
}

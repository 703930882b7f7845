//! The multi-pattern registry: prebuilt automata plus pinned warm
//! sessions, all sharing one worker pool.
//!
//! A [`PatternRegistry`] maps pattern ids to [`RiDfa`]s — built fresh
//! (under a [`ConstructionBudget`]) or loaded from binary artifacts —
//! together with the precomputed tables a chunk automaton needs
//! (premultiplied rows, interface positions), the pattern's resolved
//! [`Engine`], and one pinned warm [`Session`] per pattern. Every lane
//! scans through the engine's one chunk automaton, whichever engine it
//! is, and every chunk scan of every lane — batch, stream, and both
//! block lanes — is a reach phase of the pattern's session. Every
//! session runs on the *same* [`ThreadPool`], so `n` resident patterns
//! cost one set of worker threads, not `n`; concurrent recognitions
//! serialize on the pool's single scope slot while each pattern's
//! scratch/mapping caches stay warm and private. Streams of every
//! pattern read through one block ring (see
//! [`recognize_stream`](PatternRegistry::recognize_stream)), so the
//! ring's memory does not grow with the number of patterns.
//!
//! Residency is bounded: [`RegistryConfig::max_table_bytes`] caps the
//! total bytes of resident automaton tables, and inserting past the cap
//! evicts the least-recently-used patterns (their sessions drop with
//! them; the shared pool survives).
//!
//! For the socket front-end, [`StreamScan`] + [`PatternRegistry::scan_block`]
//! expose the λ-composition pipeline *incrementally*: a non-blocking
//! event loop can feed whatever bytes have arrived on a connection and
//! park the scan state until more show up, holding O(1) live mappings
//! per connection.

use std::collections::HashMap;
use std::fmt;
use std::io::Read;
use std::sync::Arc;

use ridfa_automata::dfa::premultiply;
use ridfa_automata::nfa::{glushkov, Nfa};
use ridfa_automata::regex;
use ridfa_automata::serialize::binary::DecodeError;
use ridfa_automata::{ConstructionBudget, Error, StateId};

use crate::parallel::{PoolHealth, ThreadPool};
use crate::ridfa::{artifact, RiDfa};
use crate::sfa::Sfa;

use super::budget::StreamError;
use super::chunking::{chunk_count, chunk_span};
use super::plan::{Engine, EngineCa, EngineMapping, EnginePlan, FeasibleTable};
use super::stream::{self, BlockRing};
use super::{JoinScratch, Outcome, RidCa, Session, StreamOutcome};

/// Sizing and bounding knobs of a [`PatternRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Workers of the one shared pool (≥ 1; the calling thread joins
    /// every reach phase, so scan parallelism is `num_workers + 1`).
    pub num_workers: usize,
    /// Block size of the one block ring that
    /// [`recognize_stream`](PatternRegistry::recognize_stream) reads
    /// every pattern's streams through
    /// (`2 × (num_workers + 1)` blocks; see
    /// [`StreamSession`](super::StreamSession)).
    pub block_size: usize,
    /// Construction budget applied to every fresh build
    /// ([`PatternRegistry::insert_regex`] / [`insert_nfa`](PatternRegistry::insert_nfa)).
    pub budget: ConstructionBudget,
    /// Cap on total resident automaton-table bytes across patterns;
    /// inserting past it evicts least-recently-used patterns.
    pub max_table_bytes: usize,
}

impl Default for RegistryConfig {
    /// One worker per available core minus the caller, 64 KiB blocks, no
    /// construction budget, no residency cap.
    fn default() -> RegistryConfig {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        RegistryConfig {
            num_workers: cores.saturating_sub(1).max(1),
            block_size: 64 * 1024,
            budget: ConstructionBudget::UNLIMITED,
            max_table_bytes: usize::MAX,
        }
    }
}

/// Why a registry operation failed. Every variant is typed and
/// recoverable — the registry and its pool stay usable after any error.
#[derive(Debug)]
pub enum RegistryError {
    /// No pattern under this id (never inserted, or evicted).
    UnknownPattern(String),
    /// The id is already resident (remove or evict first).
    DuplicatePattern(String),
    /// Fresh construction failed (regex syntax, construction budget).
    Construction(Error),
    /// An artifact failed to decode.
    Decode(DecodeError),
    /// The pattern alone exceeds the residency cap, so no amount of
    /// eviction can make room.
    Oversized {
        /// Id of the rejected pattern.
        id: String,
        /// Resident bytes the pattern would occupy.
        bytes: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A stream's reader failed ([`StreamError::Io`]).
    Stream(StreamError),
    /// The pattern was evicted and re-inserted (hot reload) while an
    /// incremental scan was in flight: the scan's composed prefix came
    /// from an automaton that is no longer the one resident under this
    /// id, so no sound verdict exists. The scan must be reset and the
    /// request retried against the new automaton.
    PatternReloaded {
        /// Id whose resident automaton changed mid-scan.
        id: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPattern(id) => write!(f, "unknown pattern {id:?}"),
            RegistryError::DuplicatePattern(id) => write!(f, "pattern {id:?} already resident"),
            RegistryError::Construction(e) => write!(f, "construction failed: {e}"),
            RegistryError::Decode(e) => write!(f, "artifact rejected: {e}"),
            RegistryError::Oversized { id, bytes, cap } => write!(
                f,
                "pattern {id:?} needs {bytes} resident bytes, above the cap of {cap}"
            ),
            RegistryError::Stream(e) => write!(f, "{e}"),
            RegistryError::PatternReloaded { id } => {
                write!(f, "pattern {id:?} was reloaded mid-scan")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<Error> for RegistryError {
    fn from(e: Error) -> RegistryError {
        RegistryError::Construction(e)
    }
}

impl From<DecodeError> for RegistryError {
    fn from(e: DecodeError) -> RegistryError {
        RegistryError::Decode(e)
    }
}

impl From<StreamError> for RegistryError {
    fn from(e: StreamError) -> RegistryError {
        RegistryError::Stream(e)
    }
}

/// Per-pattern serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternStats {
    /// Recognitions attempted (batch, stream, and incremental scans).
    pub requests: u64,
    /// Requests that ended accepted.
    pub accepted: u64,
    /// Requests that ended rejected.
    pub rejected: u64,
    /// Requests that ended in a typed error (deadline, I/O, fault).
    pub errors: u64,
    /// Input bytes scanned for this pattern.
    pub bytes: u64,
}

impl PatternStats {
    /// Accumulates `other` into `self` — used to carry counters across
    /// hot reloads and to fold a registry's retired ledger into reports.
    pub fn merge(&mut self, other: PatternStats) {
        self.requests += other.requests;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.bytes += other.bytes;
    }

    /// Counts one finished request over `bytes` input bytes.
    fn record(&mut self, accepted: bool, bytes: u64) {
        self.requests += 1;
        self.bytes += bytes;
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }

    /// Counts one request that ended in a typed error.
    fn record_error(&mut self) {
        self.requests += 1;
        self.errors += 1;
    }

    /// The counters accumulated *since* `baseline` (saturating, so a
    /// reset-to-zero baseline mismatch never underflows) — what a serve
    /// run reports when it received an already-warmed registry.
    pub fn since(&self, baseline: &PatternStats) -> PatternStats {
        PatternStats {
            requests: self.requests.saturating_sub(baseline.requests),
            accepted: self.accepted.saturating_sub(baseline.accepted),
            rejected: self.rejected.saturating_sub(baseline.rejected),
            errors: self.errors.saturating_sub(baseline.errors),
            bytes: self.bytes.saturating_sub(baseline.bytes),
        }
    }
}

struct PatternEntry {
    id: String,
    tables: EntryTables,
    /// Record-separator byte carried from the artifact (chunk-boundary
    /// snapping hint for record-structured workloads).
    separator: Option<u8>,
    /// Pinned warm session (scratches/mappings stay allocated): every
    /// chunk scan of this pattern is one of its reach phases.
    session: Session,
    /// Resident table bytes this entry accounts for.
    resident_bytes: usize,
    /// LRU clock stamp of the most recent use.
    last_used: u64,
    /// Insertion stamp: a re-inserted id gets a fresh epoch, so in-flight
    /// [`StreamScan`]s bound to the old automaton fail typed
    /// ([`RegistryError::PatternReloaded`]) instead of composing
    /// mappings across two different automata.
    epoch: u64,
    stats: PatternStats,
}

/// The automaton tables of a resident pattern.
struct EntryTables {
    rid: RiDfa,
    /// `RidCa::interface_positions(&rid)`, precomputed at insert.
    pos: Vec<u32>,
    /// `premultiply(rid.table, rid.stride)`, precomputed at insert (or
    /// taken verified from the artifact).
    ptable: Vec<StateId>,
    /// The resolved speculation engine and its tables.
    engine: Engine,
}

impl EntryTables {
    /// The engine's chunk automaton over the cached tables — built per
    /// call (allocation-free borrows), while the session caches keep the
    /// warm scratch state across calls.
    fn ca(&self) -> EngineCa<'_> {
        self.engine
            .ca(RidCa::with_tables(&self.rid, &self.pos, &self.ptable))
    }
}

/// Resident-byte footprint of an RI-DFA plus its premultiplied table —
/// the ledger entry [`PatternRegistry`] charges against
/// [`RegistryConfig::max_table_bytes`] when the pattern is inserted.
/// Exposed so tooling (`ridfa inspect-artifact`) can report exactly what
/// a pattern will cost before it is loaded.
pub fn resident_footprint(rid: &RiDfa, premultiplied_len: usize) -> usize {
    let pos = RidCa::interface_positions(rid);
    std::mem::size_of::<StateId>()
        * (rid.table.len()
            + premultiplied_len
            + pos.len()
            + rid.content.len()
            + rid.content_off.len()
            + rid.entry.len()
            + rid.delegate.len()
            + rid.interface.len())
}

/// Incremental λ-composition state for one in-flight stream (one socket
/// connection, typically). Feed blocks through
/// [`PatternRegistry::scan_block`]; read the verdict with
/// [`PatternRegistry::finish_scan`]. Buffers are reused across requests
/// when the scan is reset, so a long-lived connection slot scans with
/// zero steady-state allocations.
#[derive(Default)]
pub struct StreamScan {
    /// The composed prefix of every block fed since the last reset.
    fold: JoinScratch<EngineMapping, (Vec<StateId>, Vec<StateId>)>,
    /// Epoch of the pattern entry this scan is bound to, from its first
    /// non-empty block on (see [`RegistryError::PatternReloaded`]).
    epoch: Option<u64>,
    bytes: u64,
}

impl StreamScan {
    /// A fresh scan state.
    pub fn new() -> StreamScan {
        StreamScan::default()
    }

    /// Clears verdict-carrying state for the next request, keeping every
    /// buffer's allocation.
    pub fn reset(&mut self) {
        self.fold.start();
        self.epoch = None;
        self.bytes = 0;
    }

    /// Bytes scanned since the last [`reset`](StreamScan::reset).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True once the composed prefix mapping has no live run left — the
    /// verdict is already `rejected` and remaining input need not be
    /// scanned (the caller may drain or close early).
    pub fn is_dead(&self) -> bool {
        self.fold.is_dead()
    }
}

/// The multi-pattern registry: see the [module docs](self).
pub struct PatternRegistry {
    pool: Arc<ThreadPool>,
    config: RegistryConfig,
    entries: Vec<PatternEntry>,
    /// Counters of patterns no longer resident (removed or evicted),
    /// keyed by id. Pulled back into the live entry when the same id is
    /// re-inserted, so a hot reload never resets a pattern's stats to
    /// zero — [`ServerReport::verify`](crate::serve::ServerReport) can
    /// reconcile per-pattern sums against the connection tally.
    retired: HashMap<String, PatternStats>,
    /// The block ring every pattern's streams read through, one at a
    /// time.
    ring: BlockRing,
    clock: u64,
    evictions: u64,
}

impl PatternRegistry {
    /// An empty registry with its own shared pool.
    pub fn new(config: RegistryConfig) -> PatternRegistry {
        let pool = Arc::new(ThreadPool::new(config.num_workers));
        PatternRegistry {
            ring: BlockRing::new(pool.num_workers() + 1, config.block_size),
            pool,
            config,
            entries: Vec::new(),
            retired: HashMap::new(),
            clock: 0,
            evictions: 0,
        }
    }

    /// Compiles `pattern` (regex) fresh — through the configured
    /// [`ConstructionBudget`] — and pins it under `id`, resolving the
    /// engine plan automatically.
    pub fn insert_regex(&mut self, id: &str, pattern: &str) -> Result<(), RegistryError> {
        self.insert_regex_planned(id, pattern, EnginePlan::Auto)
    }

    /// Like [`insert_regex`](PatternRegistry::insert_regex) with an
    /// explicit engine plan (`Auto` resolves at insert).
    pub fn insert_regex_planned(
        &mut self,
        id: &str,
        pattern: &str,
        plan: EnginePlan,
    ) -> Result<(), RegistryError> {
        let ast = regex::parse(pattern)?;
        let nfa = glushkov::build(&ast)?;
        self.insert_nfa_planned(id, &nfa, plan)
    }

    /// Builds the minimized RI-DFA of `nfa` — through the configured
    /// [`ConstructionBudget`] — and pins it under `id`, resolving the
    /// engine plan automatically.
    pub fn insert_nfa(&mut self, id: &str, nfa: &Nfa) -> Result<(), RegistryError> {
        self.insert_nfa_planned(id, nfa, EnginePlan::Auto)
    }

    /// Like [`insert_nfa`](PatternRegistry::insert_nfa) with an explicit
    /// engine plan.
    pub fn insert_nfa_planned(
        &mut self,
        id: &str,
        nfa: &Nfa,
        plan: EnginePlan,
    ) -> Result<(), RegistryError> {
        let rid = RiDfa::from_nfa_budgeted(nfa, &self.config.budget)?.minimized();
        let ptable = premultiply(&rid.table, rid.stride);
        self.insert_prepared(id, rid, ptable, plan, None, None, None)
    }

    /// Decodes a sealed RI-DFA artifact and pins it under `id` — the
    /// cold-start path: a validated load instead of a powerset
    /// construction. The premultiplied table, the engine plan, and any
    /// precomputed engine tables come verified from the artifact, so
    /// replicas load the compile-time decision instead of re-deriving it
    /// (a v1 artifact carries no plan and resolves at insert).
    pub fn insert_artifact(&mut self, id: &str, bytes: &[u8]) -> Result<(), RegistryError> {
        let artifact::RiDfaArtifact {
            rid,
            premultiplied,
            plan,
            feasible,
            sfa,
            separator,
        } = artifact::ridfa_from_bytes(bytes)?;
        self.insert_prepared(id, rid, premultiplied, plan, feasible, sfa, separator)
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_prepared(
        &mut self,
        id: &str,
        rid: RiDfa,
        ptable: Vec<StateId>,
        requested: EnginePlan,
        feasible: Option<FeasibleTable>,
        sfa: Option<Sfa>,
        separator: Option<u8>,
    ) -> Result<(), RegistryError> {
        if self.index_of(id).is_some() {
            return Err(RegistryError::DuplicatePattern(id.to_string()));
        }
        let base_bytes = resident_footprint(&rid, ptable.len());
        // Auto never picks an engine the registry cannot hold: the SFA
        // tables must fit the residency cap next to the pattern's base
        // footprint.
        let headroom = self.config.max_table_bytes.saturating_sub(base_bytes);
        let engine = Engine::resolve(
            &rid,
            requested,
            sfa,
            feasible,
            &self.config.budget,
            headroom,
            &self.pool,
        )?;
        // Engine tables are resident too: they ride the same LRU ledger.
        let resident_bytes = base_bytes + engine.resident_bytes();
        if resident_bytes > self.config.max_table_bytes {
            return Err(RegistryError::Oversized {
                id: id.to_string(),
                bytes: resident_bytes,
                cap: self.config.max_table_bytes,
            });
        }
        // Evict least-recently-used patterns until the newcomer fits.
        while self.resident_bytes() + resident_bytes > self.config.max_table_bytes {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("over cap implies at least one resident entry");
            self.retire(lru);
            self.evictions += 1;
        }
        let tables = EntryTables {
            pos: RidCa::interface_positions(&rid),
            rid,
            ptable,
            engine,
        };
        // Pre-warm the session, so the first request hits warm caches
        // (`warm` repeats the short sample to the lockstep kernel's floor,
        // so every claimant's kernel scratch is sized).
        let mut session = Session::with_shared_pool(Arc::clone(&self.pool));
        session.warm(&tables.ca(), b"warm");
        let last_used = self.next_stamp();
        // A re-inserted id continues its retired counters (hot reload
        // must not zero a pattern's stats).
        let stats = self.retired.remove(id).unwrap_or_default();
        self.entries.push(PatternEntry {
            id: id.to_string(),
            tables,
            separator,
            session,
            resident_bytes,
            last_used,
            epoch: last_used,
            stats,
        });
        Ok(())
    }

    /// Drops entry `i`, folding its counters into the retired ledger.
    fn retire(&mut self, i: usize) {
        let entry = self.entries.remove(i);
        self.retired.entry(entry.id).or_default().merge(entry.stats);
    }

    /// Drops the pattern under `id`, freeing its resident bytes and warm
    /// sessions (the shared pool is untouched; the pattern's counters
    /// move to the retired ledger and survive a re-insert). Returns
    /// whether it was resident.
    pub fn remove(&mut self, id: &str) -> bool {
        match self.index_of(id) {
            Some(i) => {
                self.retire(i);
                true
            }
            None => false,
        }
    }

    /// Batch recognition of `text` against pattern `id` on the pattern's
    /// warm session. `num_chunks == 0` picks one chunk per reach-phase
    /// claimant (workers + 1).
    pub fn recognize(
        &mut self,
        id: &str,
        text: &[u8],
        num_chunks: usize,
    ) -> Result<Outcome, RegistryError> {
        let chunks = self.effective_chunks(num_chunks);
        let stamp = self.next_stamp();
        let entry = self.entry_mut(id)?;
        entry.last_used = stamp;
        let outcome = entry.session.recognize(&entry.tables.ca(), text, chunks);
        entry.stats.record(outcome.accepted, text.len() as u64);
        Ok(outcome)
    }

    /// Streaming recognition of `reader` against pattern `id` on the
    /// pattern's warm session (bounded memory, early rejection), reading
    /// through the registry's one block ring. The pattern's record
    /// separator, if its artifact carried one, snaps the ring's blocks
    /// to record boundaries, so speculative starts converge immediately.
    pub fn recognize_stream<R: Read + Send>(
        &mut self,
        id: &str,
        reader: R,
    ) -> Result<StreamOutcome, RegistryError> {
        let stamp = self.next_stamp();
        let i = self.index(id)?;
        let entry = &mut self.entries[i];
        entry.last_used = stamp;
        self.ring.separator = entry.separator;
        let ca = entry.tables.ca();
        match stream::stream(&mut entry.session, &mut self.ring, &ca, reader, None) {
            Ok(out) => {
                entry.stats.record(out.accepted, out.bytes);
                Ok(out)
            }
            Err(e) => {
                entry.stats.record_error();
                Err(RegistryError::Stream(e))
            }
        }
    }

    /// Scans one more block of an in-flight stream (incremental
    /// λ-composition; see [`StreamScan`]) on the caller, as a one-task
    /// reach phase of the pattern's warm session. Returns
    /// [`StreamScan::is_dead`] after the block — once dead, further
    /// blocks only count bytes, and the caller may answer `rejected`
    /// early. Dead-cheap per call: the chunk automaton borrows cached
    /// tables, and the scan reuses the session's and the state's buffers.
    pub fn scan_block(
        &mut self,
        id: &str,
        scan: &mut StreamScan,
        block: &[u8],
    ) -> Result<bool, RegistryError> {
        self.scan_in(id, scan, block, 1)
    }

    /// Like [`scan_block`](PatternRegistry::scan_block), but the block is
    /// split into one span per reach-phase claimant (workers + 1) and
    /// scanned *in parallel* by the pattern's warm [`Session`] — the
    /// reach phase of [`recognize`](PatternRegistry::recognize) — then
    /// the per-span mappings are composed in order onto the scan's
    /// prefix. This is the big-body lane of the
    /// serve layer: a block large enough to be worth a parallel reach
    /// phase goes through here; small blocks should keep using the
    /// serial `scan_block` (the fork-join barrier costs more than it
    /// saves below roughly a worker's L2).
    ///
    /// Verdict-equivalent to feeding the same bytes through
    /// `scan_block` (λ-composition is associative).
    pub fn scan_block_pooled(
        &mut self,
        id: &str,
        scan: &mut StreamScan,
        block: &[u8],
    ) -> Result<bool, RegistryError> {
        let claimants = self.pool.num_workers() + 1;
        self.scan_in(id, scan, block, claimants)
    }

    /// The block lanes: `block` cut into up to `tasks` balanced spans,
    /// scanned by one reach phase of the pattern's session and folded in
    /// order onto `scan`'s prefix. An empty block scans nothing.
    fn scan_in(
        &mut self,
        id: &str,
        scan: &mut StreamScan,
        block: &[u8],
        tasks: usize,
    ) -> Result<bool, RegistryError> {
        let stamp = self.next_stamp();
        let entry = self.entry_mut(id)?;
        entry.last_used = stamp;
        if scan.epoch.is_some_and(|epoch| epoch != entry.epoch) {
            return Err(RegistryError::PatternReloaded { id: id.to_string() });
        }
        scan.bytes += block.len() as u64;
        if block.is_empty() || scan.fold.is_dead() {
            return Ok(scan.fold.is_dead());
        }
        let first = scan.epoch.replace(entry.epoch).is_none();
        let ca = entry.tables.ca();
        let n = chunk_count(block.len(), tasks);
        let task = |i| (&block[chunk_span(block.len(), n, i)], first && i == 0);
        let (mappings, _) = entry
            .session
            .reach(&ca, n, task, None, None)
            .expect("unbudgeted reach cannot be interrupted");
        for mapping in mappings {
            scan.fold.push(&ca, mapping);
        }
        Ok(scan.fold.is_dead())
    }

    /// Ends an in-flight stream: the verdict of everything fed through
    /// [`scan_block`](PatternRegistry::scan_block) since the last reset.
    /// Updates the pattern's counters and resets `scan` for reuse.
    pub fn finish_scan(&mut self, id: &str, scan: &mut StreamScan) -> Result<bool, RegistryError> {
        let entry = self.entry_mut(id)?;
        if scan.epoch.is_some_and(|epoch| epoch != entry.epoch) {
            scan.reset();
            return Err(RegistryError::PatternReloaded { id: id.to_string() });
        }
        // A scan fed no bytes is the empty text: the fold resolves it.
        let accepted = scan.fold.accepts(&entry.tables.ca());
        entry.stats.record(accepted, scan.bytes);
        scan.reset();
        Ok(accepted)
    }

    /// Records one failed request (deadline, protocol fault, I/O) against
    /// a pattern's counters — used by serving layers whose errors happen
    /// outside the registry's own calls.
    pub fn record_error(&mut self, id: &str) {
        if let Ok(entry) = self.entry_mut(id) {
            entry.stats.record_error();
        }
    }

    /// The ids of the resident patterns, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.id.as_str())
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: &str) -> bool {
        self.index_of(id).is_some()
    }

    /// Number of resident patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no pattern is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total resident automaton-table bytes across patterns.
    pub fn resident_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.resident_bytes).sum()
    }

    /// Patterns evicted under byte pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Serving counters of pattern `id`.
    pub fn stats(&self, id: &str) -> Option<PatternStats> {
        self.index_of(id).map(|i| self.entries[i].stats)
    }

    /// The resolved engine plan of pattern `id` (never `Auto`).
    pub fn plan(&self, id: &str) -> Option<EnginePlan> {
        self.index_of(id)
            .map(|i| self.entries[i].tables.engine.plan())
    }

    /// Record-separator hint of pattern `id`, if its artifact carried one.
    pub fn separator(&self, id: &str) -> Option<u8> {
        self.index_of(id).and_then(|i| self.entries[i].separator)
    }

    /// Counters of every pattern this registry has ever served: the
    /// resident entries (whose stats already include any pre-reload
    /// history) plus retired ids that were never re-inserted. Sorted by
    /// id, so serve layers can reconcile per-pattern sums against their
    /// connection tallies even across hot reloads and evictions.
    pub fn all_stats(&self) -> Vec<(String, PatternStats)> {
        let mut out: Vec<(String, PatternStats)> = self
            .entries
            .iter()
            .map(|e| (e.id.clone(), e.stats))
            .collect();
        out.extend(self.retired.iter().map(|(id, s)| (id.clone(), *s)));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The one shared worker pool (for health inspection and fault
    /// injection in tests).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// A handle to the shared pool, e.g. to attach further sessions.
    pub fn shared_pool(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool)
    }

    /// Health of the shared pool.
    pub fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// Number of states of pattern `id`'s RI-DFA, for inspection.
    pub fn num_states(&self, id: &str) -> Option<usize> {
        self.index_of(id)
            .map(|i| self.entries[i].tables.rid.num_states())
    }

    fn effective_chunks(&self, num_chunks: usize) -> usize {
        if num_chunks == 0 {
            self.pool.num_workers() + 1
        } else {
            num_chunks
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn index_of(&self, id: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    /// The index of pattern `id`, or the typed error of an unknown id.
    fn index(&self, id: &str) -> Result<usize, RegistryError> {
        self.index_of(id)
            .ok_or_else(|| RegistryError::UnknownPattern(id.to_string()))
    }

    fn entry_mut(&mut self, id: &str) -> Result<&mut PatternEntry, RegistryError> {
        let i = self.index(id)?;
        Ok(&mut self.entries[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_registry() -> PatternRegistry {
        let mut reg = PatternRegistry::new(RegistryConfig {
            num_workers: 2,
            block_size: 256,
            ..RegistryConfig::default()
        });
        reg.insert_regex("abb", "(a|b)*abb").unwrap();
        reg.insert_regex("digits", "[0-9]+").unwrap();
        reg.insert_regex("word", "[a-z]+(-[a-z]+)*").unwrap();
        reg
    }

    #[test]
    fn recognizes_across_patterns_on_one_pool() {
        let mut reg = small_registry();
        assert!(reg.recognize("abb", b"bababb", 0).unwrap().accepted);
        assert!(!reg.recognize("abb", b"ba", 0).unwrap().accepted);
        assert!(reg.recognize("digits", b"123456", 4).unwrap().accepted);
        assert!(!reg.recognize("digits", b"12a", 4).unwrap().accepted);
        assert!(reg.recognize("word", b"foo-bar-baz", 3).unwrap().accepted);
        assert_eq!(reg.health().configured, 2);
        let stats = reg.stats("abb").unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn unknown_and_duplicate_ids_error_typed() {
        let mut reg = small_registry();
        assert!(matches!(
            reg.recognize("nope", b"x", 0),
            Err(RegistryError::UnknownPattern(_))
        ));
        assert!(matches!(
            reg.insert_regex("abb", "a"),
            Err(RegistryError::DuplicatePattern(_))
        ));
        assert!(matches!(
            reg.insert_regex("bad", "(("),
            Err(RegistryError::Construction(_))
        ));
    }

    #[test]
    fn incremental_scan_matches_batch() {
        let mut reg = small_registry();
        let mut scan = StreamScan::new();
        for block in [&b"bab"[..], b"ab", b"b"] {
            reg.scan_block("abb", &mut scan, block).unwrap();
        }
        assert!(reg.finish_scan("abb", &mut scan).unwrap());
        // State resets for reuse.
        reg.scan_block("abb", &mut scan, b"ba").unwrap();
        assert!(!reg.finish_scan("abb", &mut scan).unwrap());
        // Zero-length stream = verdict of the empty text.
        assert!(!reg.finish_scan("abb", &mut scan).unwrap());
    }

    #[test]
    fn dead_prefix_is_detected_early() {
        let mut reg = small_registry();
        let mut scan = StreamScan::new();
        let dead = reg.scan_block("digits", &mut scan, b"abc").unwrap();
        assert!(dead, "non-digit prefix kills every run");
        assert!(scan.is_dead());
        // Further blocks only count bytes.
        reg.scan_block("digits", &mut scan, b"123").unwrap();
        assert_eq!(scan.bytes(), 6);
        assert!(!reg.finish_scan("digits", &mut scan).unwrap());
    }

    #[test]
    fn eviction_under_byte_pressure_is_lru() {
        let mut reg = PatternRegistry::new(RegistryConfig {
            num_workers: 1,
            max_table_bytes: 64 * 1024,
            ..RegistryConfig::default()
        });
        reg.insert_regex("a", "(a|b)*abb").unwrap();
        reg.insert_regex("b", "[0-9]+").unwrap();
        // Touch "a" so "b" is the LRU entry.
        reg.recognize("a", b"abb", 0).unwrap();
        let before = reg.resident_bytes();
        assert!(before <= 64 * 1024);
        // Insert patterns until something must go.
        let mut k = 0;
        while reg.evictions() == 0 {
            reg.insert_regex(&format!("fill{k}"), "[ab]*a[ab]{6}")
                .unwrap();
            k += 1;
            assert!(k < 64, "eviction never triggered");
        }
        assert!(reg.resident_bytes() <= 64 * 1024);
        // The cold pattern went first.
        assert!(!reg.contains("b"));
        assert!(
            reg.contains("a") || k > 1,
            "the touched pattern outlives the cold one"
        );
    }

    #[test]
    fn oversized_pattern_is_rejected_not_thrashed() {
        let mut reg = PatternRegistry::new(RegistryConfig {
            num_workers: 1,
            max_table_bytes: 64,
            ..RegistryConfig::default()
        });
        assert!(matches!(
            reg.insert_regex("big", "(a|b)*abb"),
            Err(RegistryError::Oversized { .. })
        ));
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn artifact_load_equals_fresh_construction() {
        use ridfa_automata::nfa::glushkov;
        use ridfa_automata::regex::parse;
        let nfa = glushkov::build(&parse("(a|b)*abb").unwrap()).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let bytes = artifact::ridfa_to_bytes(&rid);

        let mut fresh = PatternRegistry::new(RegistryConfig {
            num_workers: 1,
            ..RegistryConfig::default()
        });
        fresh.insert_nfa("p", &nfa).unwrap();
        let mut loaded = PatternRegistry::new(RegistryConfig {
            num_workers: 1,
            ..RegistryConfig::default()
        });
        loaded.insert_artifact("p", &bytes).unwrap();

        for text in [&b"abb"[..], b"bababb", b"", b"ba", b"abab"] {
            assert_eq!(
                fresh.recognize("p", text, 0).unwrap().accepted,
                loaded.recognize("p", text, 0).unwrap().accepted,
                "{text:?}"
            );
        }
    }

    #[test]
    fn auto_resolves_sfa_for_small_patterns_end_to_end() {
        let mut reg = small_registry();
        // Small DFAs: the trial SFA build fits the auto caps.
        assert_eq!(reg.plan("abb"), Some(EnginePlan::Sfa));
        // Every entry is resolved — Auto never survives insertion.
        for id in ["abb", "digits", "word"] {
            assert_ne!(reg.plan(id), Some(EnginePlan::Auto), "{id}");
        }
        // The SFA engine serves batch, stream, and incremental
        // paths with verdicts identical to the serial oracle.
        use std::io::Cursor;
        for (text, expected) in [
            (&b"bababb"[..], true),
            (b"abb", true),
            (b"", false),
            (b"abba", false),
        ] {
            assert_eq!(reg.recognize("abb", text, 0).unwrap().accepted, expected);
            let out = reg
                .recognize_stream("abb", Cursor::new(text.to_vec()))
                .unwrap();
            assert_eq!(out.accepted, expected, "{text:?}");
            let mut scan = StreamScan::new();
            for block in text.chunks(2) {
                reg.scan_block("abb", &mut scan, block).unwrap();
            }
            assert_eq!(reg.finish_scan("abb", &mut scan).unwrap(), expected);
            let mut scan = StreamScan::new();
            reg.scan_block_pooled("abb", &mut scan, text).unwrap();
            assert_eq!(reg.finish_scan("abb", &mut scan).unwrap(), expected);
        }
    }

    #[test]
    fn explicit_plans_are_honored_and_agree() {
        let mut reg = PatternRegistry::new(RegistryConfig {
            num_workers: 2,
            ..RegistryConfig::default()
        });
        reg.insert_regex_planned("lock", "(a|b)*abb", EnginePlan::Lockstep)
            .unwrap();
        reg.insert_regex_planned("feas", "(a|b)*abb", EnginePlan::FeasibleStart)
            .unwrap();
        reg.insert_regex_planned("sfa", "(a|b)*abb", EnginePlan::Sfa)
            .unwrap();
        assert_eq!(reg.plan("lock"), Some(EnginePlan::Lockstep));
        assert_eq!(reg.plan("feas"), Some(EnginePlan::FeasibleStart));
        assert_eq!(reg.plan("sfa"), Some(EnginePlan::Sfa));
        // One scan state serves every engine in turn, as a connection
        // slot does when its requests name different patterns.
        let mut scan = StreamScan::new();
        for text in [&b"bababb"[..], b"abb", b"", b"ba", b"abab", b"zzz"] {
            let expected = reg.recognize("lock", text, 0).unwrap().accepted;
            for id in ["lock", "feas", "sfa"] {
                assert_eq!(reg.recognize(id, text, 0).unwrap().accepted, expected);
                for block in text.chunks(2) {
                    reg.scan_block(id, &mut scan, block).unwrap();
                }
                assert_eq!(reg.finish_scan(id, &mut scan).unwrap(), expected);
                reg.scan_block_pooled(id, &mut scan, text).unwrap();
                assert_eq!(reg.finish_scan(id, &mut scan).unwrap(), expected);
            }
        }
    }

    #[test]
    fn stats_survive_hot_reload() {
        let mut reg = small_registry();
        reg.recognize("abb", b"bababb", 0).unwrap();
        reg.recognize("abb", b"nope", 0).unwrap();
        let before = reg.stats("abb").unwrap();
        assert_eq!(before.requests, 2);
        // Hot reload: remove + re-insert under the same id (what
        // `--reload-ms` does on a pattern-file change).
        assert!(reg.remove("abb"));
        assert!(reg.stats("abb").is_none());
        reg.insert_regex("abb", "(a|b)*abb").unwrap();
        let after = reg.stats("abb").unwrap();
        assert_eq!(after, before, "reload must not zero the counters");
        reg.recognize("abb", b"abb", 0).unwrap();
        assert_eq!(reg.stats("abb").unwrap().requests, 3);
        // The retired ledger no longer double-counts the id.
        let all = reg.all_stats();
        assert_eq!(all.iter().filter(|(id, _)| id == "abb").count(), 1);
    }

    #[test]
    fn all_stats_includes_retired_patterns() {
        let mut reg = small_registry();
        reg.recognize("digits", b"123", 0).unwrap();
        reg.remove("digits");
        let all = reg.all_stats();
        let digits = all.iter().find(|(id, _)| id == "digits").unwrap();
        assert_eq!(digits.1.requests, 1);
        assert_eq!(digits.1.accepted, 1);
    }

    #[test]
    fn stats_since_baseline_subtracts() {
        let a = PatternStats {
            requests: 10,
            accepted: 4,
            rejected: 5,
            errors: 1,
            bytes: 1000,
        };
        let b = PatternStats {
            requests: 7,
            accepted: 3,
            rejected: 3,
            errors: 1,
            bytes: 800,
        };
        let d = a.since(&b);
        assert_eq!(d.requests, 3);
        assert_eq!(d.accepted, 1);
        assert_eq!(d.rejected, 2);
        assert_eq!(d.errors, 0);
        assert_eq!(d.bytes, 200);
        // Saturating: a baseline from a *newer* state never underflows.
        let z = b.since(&a);
        assert_eq!(z.requests, 0);
    }

    #[test]
    fn artifact_plan_is_loaded_not_rederived() {
        use ridfa_automata::nfa::glushkov;
        use ridfa_automata::regex::parse;
        use ridfa_automata::ConstructionBudget;
        let nfa = glushkov::build(&parse("(a|b)*abb").unwrap()).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let feasible = crate::csdpa::FeasibleTable::build(&rid);
        // Persist an explicit FeasibleStart decision; Auto here would
        // have picked SFA (small DFA), so a matching loaded plan proves
        // the artifact's decision won.
        let bytes = artifact::ridfa_to_bytes_with_engine(
            &rid,
            EnginePlan::FeasibleStart,
            Some(&feasible),
            None,
            Some(b'\n'),
        );
        let mut reg = PatternRegistry::new(RegistryConfig {
            num_workers: 1,
            ..RegistryConfig::default()
        });
        reg.insert_artifact("p", &bytes).unwrap();
        assert_eq!(reg.plan("p"), Some(EnginePlan::FeasibleStart));
        assert_eq!(reg.separator("p"), Some(b'\n'));
        assert!(reg.recognize("p", b"bababb", 0).unwrap().accepted);
        // An SFA artifact serves without any construction budget at all
        // (the tables come from the file).
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        let bytes =
            artifact::ridfa_to_bytes_with_engine(&rid, EnginePlan::Sfa, None, Some(&sfa), None);
        reg.insert_artifact("q", &bytes).unwrap();
        assert_eq!(reg.plan("q"), Some(EnginePlan::Sfa));
        assert!(reg.recognize("q", b"abb", 0).unwrap().accepted);
        assert!(!reg.recognize("q", b"ab", 0).unwrap().accepted);
    }

    #[test]
    fn streaming_through_registry_works() {
        use std::io::Cursor;
        let mut reg = small_registry();
        let out = reg
            .recognize_stream("abb", Cursor::new(b"bababb".to_vec()))
            .unwrap();
        assert!(out.accepted);
        assert_eq!(out.bytes, 6);
    }
}

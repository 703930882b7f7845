//! The traced per-layer replay: a workload's seeded inputs, sent through
//! each layer's public entry point in turn — `alphabet` → `kernel` →
//! `reach` → `session`/`stream` → `registry` — with a span around every
//! call. Rounds of one pass per layer repeat for the replay's time
//! budget, so every layer sees the same inputs under the same host
//! conditions.
//!
//! The chunk automata are rebuilt here from independently constructed
//! RI-DFAs and the plans the registry resolved, so the replay runs
//! exactly the engine each pattern serves with.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ridfa::automata::{ConstructionBudget, NoCount, StateId};
use ridfa::core::csdpa::{
    chunk_spans, recognize_counted, recognize_spans, ChunkAutomaton, ConvergentRidCa, EnginePlan,
    Executor, FeasibleRidCa, FeasibleTable, JoinScratchOf, Kernel, PatternRegistry, RidCa, Session,
    StreamScan, StreamSession,
};
use ridfa::core::ridfa::RiDfa;
use ridfa::core::serve::ServeConfig;
use ridfa::core::sfa::{Sfa, SfaCa};

use crate::drive::Run;
use crate::inputs::{oracle, Item, Workload, PATTERNS};
use crate::trace::Trace;

/// Block size of the registry's warm stream sessions
/// (`RegistryConfig::default`).
const BLOCK_SIZE: usize = 64 * 1024;

/// Texts of at most this many bytes measure the fork-join floor.
const DISPATCH_BYTES: usize = 64;

/// Calls per pattern per pass of the dispatch probe.
const DISPATCH_CALLS: usize = 64;

/// One pattern's automaton and the engine tables of its resolved plan,
/// precomputed once as the registry does.
pub struct Tables {
    /// The minimized RI-DFA.
    pub rid: RiDfa,
    /// The plan the registry resolved for the pattern.
    pub plan: EnginePlan,
    pos: Vec<u32>,
    ptable: Vec<StateId>,
    engine: Engine,
}

enum Engine {
    Lockstep,
    Sfa(Box<Sfa>),
    Feasible(FeasibleTable),
}

/// Runs `$body` with `$ca` bound to the chunk automaton of `$tables`'
/// plan, built the way the registry builds it for that plan.
macro_rules! with_ca {
    ($tables:expr, |$ca:ident| $body:expr) => {{
        let t = &$tables;
        let inner = || RidCa::with_tables(&t.rid, &t.pos, &t.ptable);
        match &t.engine {
            Engine::Sfa(sfa) => {
                let $ca = &SfaCa::new(sfa);
                $body
            }
            Engine::Feasible(feasible) => {
                let $ca = &FeasibleRidCa::from_inner(inner(), feasible, Kernel::Auto);
                $body
            }
            Engine::Lockstep => {
                let $ca = &ConvergentRidCa::from_inner(inner(), Kernel::Auto);
                $body
            }
        }
    }};
}

impl Tables {
    /// Builds the engine tables `plan` needs.
    pub fn new(rid: RiDfa, plan: EnginePlan) -> Result<Tables, String> {
        let engine = match plan {
            EnginePlan::Sfa => Engine::Sfa(Box::new(
                Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED)
                    .map_err(|e| format!("sfa build: {e}"))?,
            )),
            EnginePlan::FeasibleStart => Engine::Feasible(FeasibleTable::build(&rid)),
            _ => Engine::Lockstep,
        };
        Ok(Tables {
            pos: RidCa::interface_positions(&rid),
            ptable: rid.premultiplied_table(),
            rid,
            plan,
            engine,
        })
    }

    /// The kernel an interior chunk of `len` bytes runs (`None` for the
    /// SFA's plain table walk).
    pub fn effective_kernel(&self, len: usize) -> Option<Kernel> {
        with_ca!(self, |ca| ca.effective_kernel(len))
    }
}

/// The chunks `workload` cuts a text of `len` bytes into on its own path:
/// one per reach-phase claimant for batch recognition, stream blocks for
/// `stream`, and claimant spans of each offload slice for `serve_large`.
pub fn layer_spans(workload: Workload, len: usize, claimants: usize) -> Vec<Range<usize>> {
    let cut = |piece: usize| -> Vec<Range<usize>> {
        (0..len.max(1))
            .step_by(piece)
            .map(|s| s..(s + piece).min(len))
            .collect()
    };
    match workload {
        Workload::Stream => cut(BLOCK_SIZE),
        Workload::ServeLarge => {
            let slice = ServeConfig::default().offload_tick_bytes;
            cut(slice)
                .into_iter()
                .flat_map(|s| {
                    chunk_spans(s.len(), claimants)
                        .into_iter()
                        .map(move |c| c.start + s.start..c.end + s.start)
                })
                .collect()
        }
        Workload::Bulk | Workload::ServeSmall => chunk_spans(len, claimants),
    }
}

/// Exact counts of the replay: the paper's speculation overhead.
#[derive(Debug, Default)]
pub struct Counts {
    /// Transitions executed by `recognize_counted` over one pass.
    pub transitions: u64,
    /// Bytes of that pass.
    pub bytes: u64,
    /// Speculative starts summed over every interior chunk of the pass.
    pub starts: u64,
    /// Interior chunks of the pass.
    pub interior_chunks: u64,
    /// Largest stream-session block ring, in bytes.
    pub stream_buffer_bytes: u64,
}

/// Replays `items` through every layer below the server for `budget` of
/// wall time, recording spans into `trace` and verdicts into `run`.
pub fn replay(
    workload: Workload,
    items: &[Item],
    tables: &[Tables],
    registry: &mut PatternRegistry,
    budget: Duration,
    trace: &mut Trace,
    run: &mut Run,
) -> Counts {
    let pool = registry.shared_pool();
    let claimants = pool.num_workers() + 1;
    let spans: Vec<Vec<Range<usize>>> = items
        .iter()
        .map(|i| layer_spans(workload, i.text.len(), claimants))
        .collect();
    // Items grouped by pattern, so each layer builds one automaton and
    // one set of warm buffers per pattern and pass.
    let groups: Vec<(usize, Vec<usize>)> = (0..tables.len())
        .map(|p| {
            let group: Vec<usize> = (0..items.len())
                .filter(|&i| items[i].pattern == p)
                .collect();
            (p, group)
        })
        .filter(|(_, group)| !group.is_empty())
        .collect();
    let mut cx = Cx {
        items,
        spans: &spans,
        trace,
        run,
    };
    let mut counts = Counts::default();
    // Warm state lives across passes, one per pattern, as in the registry.
    let mut sessions: Vec<Session> = tables
        .iter()
        .map(|_| Session::with_shared_pool(Arc::clone(&pool)))
        .collect();
    let mut streams: Vec<StreamSession> = tables
        .iter()
        .map(|_| StreamSession::with_shared_pool(Arc::clone(&pool), BLOCK_SIZE))
        .collect();
    let mut scan = StreamScan::new();

    // Exact counts first, in one untimed pass.
    for &(p, ref group) in &groups {
        with_ca!(tables[p], |ca| count(&mut cx, ca, group, &mut counts));
    }
    // A round sends every input through every layer once; rounds repeat
    // for the whole budget, so a noisy moment on the host touches all
    // layers alike instead of one layer's slice.
    let mut round = |cx: &mut Cx| {
        for &(p, ref group) in &groups {
            alphabet(cx, &tables[p].rid, group);
        }
        for &(p, ref group) in &groups {
            with_ca!(tables[p], |ca| decomposed(cx, ca, group));
        }
        for &(p, ref group) in &groups {
            with_ca!(tables[p], |ca| reach_serial(cx, ca, group));
        }
        // Stream first: the layer after the serial ones starts on a pool
        // worker that sat idle, so keep session and registry, which are
        // compared, back to back.
        for &(p, ref group) in &groups {
            let session = &mut streams[p];
            with_ca!(tables[p], |ca| stream_pass(cx, ca, group, session));
        }
        for &(p, ref group) in &groups {
            let tiny = &items[group[0]].text;
            let tiny = &tiny[..tiny.len().min(DISPATCH_BYTES)];
            let tiny = (tiny, oracle(&tables[p].rid, tiny));
            let session = &mut sessions[p];
            with_ca!(tables[p], |ca| session_pass(
                cx, ca, group, session, claimants, tiny
            ));
        }
        registry_recognize(cx, registry);
        registry_scan_block(cx, registry, &mut scan, false);
        registry_scan_block(cx, registry, &mut scan, true);
    };
    // The first round warms every layer's buffers; its spans are dropped.
    let mark = cx.trace.spans().len();
    round(&mut cx);
    cx.trace.truncate(mark);
    let t0 = Instant::now();
    loop {
        round(&mut cx);
        if t0.elapsed() >= budget {
            break;
        }
    }
    counts.stream_buffer_bytes = streams
        .iter()
        .map(|s| s.buffer_bytes() as u64)
        .max()
        .unwrap_or(0);
    counts
}

/// What every layer pass needs.
struct Cx<'a> {
    items: &'a [Item],
    spans: &'a [Vec<Range<usize>>],
    trace: &'a mut Trace,
    run: &'a mut Run,
}

impl Cx<'_> {
    fn check(&mut self, layer: &str, i: usize, accepted: Result<bool, String>) {
        let (pattern, expected) = (self.items[i].pattern, self.items[i].expected);
        self.check_against(layer, pattern, accepted, expected);
    }

    fn check_against(
        &mut self,
        layer: &str,
        pattern: usize,
        accepted: Result<bool, String>,
        expected: bool,
    ) {
        self.run.attempted += 1;
        match accepted {
            Ok(accepted) if accepted == expected => {}
            Ok(accepted) => self.run.fail(format!(
                "{layer} {}: verdict {accepted}, oracle {expected}",
                PATTERNS[pattern]
            )),
            Err(e) => self.run.fail(format!("{layer} {}: {e}", PATTERNS[pattern])),
        }
    }
}

/// `ByteClasses::classify_into` over every chunk.
fn alphabet(cx: &mut Cx, rid: &RiDfa, group: &[usize]) {
    let classes = rid.classes();
    let mut out = Vec::new();
    for &i in group {
        let text = &cx.items[i].text;
        for span in &cx.spans[i] {
            out.resize(span.len(), 0);
            let chunk = &text[span.clone()];
            cx.trace
                .time("alphabet.classify", None, chunk.len() as u64, || {
                    classes.classify_into(chunk, &mut out);
                });
            std::hint::black_box(&out);
        }
    }
}

/// The reach phase taken apart: each chunk's kernel scan (`scan_first_into`
/// for the first, `scan_into` for the rest; serial, no spawning) and the
/// join, as children of one `reach.decomposed` span per text.
fn decomposed<CA: ChunkAutomaton>(cx: &mut Cx, ca: &CA, group: &[usize]) {
    let mut scratch = CA::Scratch::default();
    let mut mappings: Vec<CA::Mapping> = Vec::new();
    let mut join = JoinScratchOf::<CA>::default();
    // The first text runs twice: once to warm this pass's buffers, with
    // its spans dropped, and once timed.
    let mark = cx.trace.spans().len();
    for (n, &i) in group[..1].iter().chain(group).enumerate() {
        if n == 1 {
            cx.trace.truncate(mark);
        }
        let text = &cx.items[i].text;
        let spans = &cx.spans[i];
        mappings.resize_with(spans.len(), Default::default);
        let parent = cx.trace.open("reach.decomposed", None);
        for (k, span) in spans.iter().enumerate() {
            let chunk = &text[span.clone()];
            let bytes = chunk.len() as u64;
            if k == 0 {
                cx.trace.time("kernel.first", Some(parent), bytes, || {
                    ca.scan_first_into(chunk, &mut NoCount, &mut mappings[0])
                });
            } else {
                cx.trace.time("kernel.interior", Some(parent), bytes, || {
                    ca.scan_into(chunk, &mut scratch, &mut NoCount, &mut mappings[k])
                });
            }
        }
        let accepted = cx
            .trace
            .time("reach.join", Some(parent), text.len() as u64, || {
                ca.join_with(&mappings, &mut join)
            });
        cx.trace.close(parent, text.len() as u64);
        cx.check("kernel+join", i, Ok(accepted));
    }
}

/// `recognize_spans` with `Executor::Serial` over the workload's chunks.
fn reach_serial<CA: ChunkAutomaton>(cx: &mut Cx, ca: &CA, group: &[usize]) {
    for &i in group {
        let text = &cx.items[i].text;
        let spans = &cx.spans[i];
        let outcome = cx.trace.time("reach.serial", None, text.len() as u64, || {
            recognize_spans(ca, text, spans, Executor::Serial)
        });
        cx.check("reach.serial", i, Ok(outcome.accepted));
    }
}

/// One untimed counting pass: `recognize_counted` transitions and the
/// speculative starts of every interior chunk.
fn count<CA: ChunkAutomaton>(cx: &mut Cx, ca: &CA, group: &[usize], counts: &mut Counts) {
    for &i in group {
        let text = &cx.items[i].text;
        let chunks = cx.spans[i].len();
        let outcome = recognize_counted(ca, text, chunks, Executor::Serial);
        cx.check("reach.counted", i, Ok(outcome.accepted));
        counts.transitions += outcome.transitions;
        counts.bytes += text.len() as u64;
        let interior = outcome.num_chunks.saturating_sub(1) as u64;
        counts.interior_chunks += interior;
        counts.starts += interior * ca.num_speculative_starts() as u64;
    }
}

/// `Session::recognize` on the registry's shared pool, one chunk per
/// claimant as the registry does, plus the fork-join floor on a tiny text.
fn session_pass<CA: ChunkAutomaton>(
    cx: &mut Cx,
    ca: &CA,
    group: &[usize],
    session: &mut Session,
    claimants: usize,
    (tiny, tiny_expected): (&[u8], bool),
) {
    for &i in group {
        let text = &cx.items[i].text;
        let outcome = cx.trace.time("session", None, text.len() as u64, || {
            session.recognize(ca, text, claimants)
        });
        cx.check("session", i, Ok(outcome.accepted));
    }
    let pattern = cx.items[group[0]].pattern;
    for _ in 0..DISPATCH_CALLS {
        let outcome = cx
            .trace
            .time("session.dispatch", None, tiny.len() as u64, || {
                session.recognize(ca, tiny, claimants)
            });
        cx.check_against(
            "session.dispatch",
            pattern,
            Ok(outcome.accepted),
            tiny_expected,
        );
    }
}

/// `StreamSession::recognize_stream` over in-memory readers.
fn stream_pass<CA: ChunkAutomaton>(
    cx: &mut Cx,
    ca: &CA,
    group: &[usize],
    session: &mut StreamSession,
) {
    for &i in group {
        let text = &cx.items[i].text;
        let t0 = cx.trace.now_ns();
        let outcome = session.recognize_stream(ca, &text[..]);
        let t1 = cx.trace.now_ns();
        let bytes = outcome.as_ref().map_or(0, |o| o.bytes);
        cx.trace.record("stream", None, t0, t1, bytes);
        cx.check(
            "stream",
            i,
            outcome.map(|o| o.accepted).map_err(|e| e.to_string()),
        );
    }
}

/// `registry.recognize(id, text, 0)`.
fn registry_recognize(cx: &mut Cx, registry: &mut PatternRegistry) {
    for i in 0..cx.items.len() {
        let item = &cx.items[i];
        let outcome = cx
            .trace
            .time("registry.recognize", None, item.text.len() as u64, || {
                registry.recognize(PATTERNS[item.pattern], &item.text, 0)
            });
        cx.check(
            "registry.recognize",
            i,
            outcome.map(|o| o.accepted).map_err(|e| e.to_string()),
        );
    }
}

/// The serve path's in-process half: `scan_block` of the whole body plus
/// `finish_scan` (inline lane), or — `pooled` — `scan_block_pooled` over
/// offload-sized slices plus `finish_scan` (offload lane).
fn registry_scan_block(
    cx: &mut Cx,
    registry: &mut PatternRegistry,
    scan: &mut StreamScan,
    pooled: bool,
) {
    let slice = ServeConfig::default().offload_tick_bytes;
    let name = if pooled {
        "registry.scan_block_pooled"
    } else {
        "registry.scan_block"
    };
    for i in 0..cx.items.len() {
        let item = &cx.items[i];
        let id = PATTERNS[item.pattern];
        let verdict = cx.trace.time(name, None, item.text.len() as u64, || {
            if pooled {
                for block in item.text.chunks(slice) {
                    registry.scan_block_pooled(id, scan, block)?;
                }
            } else {
                registry.scan_block(id, scan, &item.text)?;
            }
            registry.finish_scan(id, scan)
        });
        cx.check(name, i, verdict.map_err(|e| e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spans_cover_the_text_contiguously() {
        for w in Workload::ALL {
            for len in [1usize, 1000, 300_000, 1 << 20] {
                let spans = layer_spans(w, len, 2);
                assert_eq!(spans[0].start, 0, "{w:?} {len}");
                assert_eq!(spans.last().unwrap().end, len, "{w:?} {len}");
                assert!(
                    spans.windows(2).all(|p| p[0].end == p[1].start),
                    "{w:?} {len}"
                );
            }
        }
        assert_eq!(layer_spans(Workload::Stream, 3 * BLOCK_SIZE, 2).len(), 3);
        assert_eq!(layer_spans(Workload::Bulk, 1 << 20, 2).len(), 2);
    }
}

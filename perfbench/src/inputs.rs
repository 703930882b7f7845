//! Workload definitions and their seeded inputs.
//!
//! The seed picks the *content* of every text; the *shape* of a workload
//! (text count, sizes, pattern mix, which texts are made to reject) is
//! fixed, so latency percentiles compare across seeds. Expected verdicts
//! come from the serial oracle — a whole-text walk of an independently
//! built, minimized RI-DFA — before any clock starts.

use ridfa::automata::nfa::Nfa;
use ridfa::automata::NoCount;
use ridfa::core::csdpa::{ChunkAutomaton, RidCa};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::{bible, bigdata, fasta, traffic};

/// Pattern ids, in registry insertion order.
pub const PATTERNS: [&str; 4] = ["bigdata", "bible", "fasta", "traffic"];

/// Index of `traffic` in [`PATTERNS`].
pub const TRAFFIC: usize = 3;

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller, `PatternRegistry::recognize` over
    /// multi-MiB texts of all four patterns.
    Bulk,
    /// Closed loop, `PatternRegistry::recognize_stream` over in-memory
    /// traffic logs, some with one corrupt record.
    Stream,
    /// Open loop at a fixed rate on one pipelined loopback connection,
    /// small bodies scanned inline.
    ServeSmall,
    /// Closed loop on one loopback connection, MiB bodies scanned by the
    /// offload lane.
    ServeLarge,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk,
        Workload::Stream,
        Workload::ServeSmall,
        Workload::ServeLarge,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Stream => "stream",
            Workload::ServeSmall => "serve_small",
            Workload::ServeLarge => "serve_large",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs against a loopback server.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeSmall | Workload::ServeLarge)
    }
}

/// One input text with its oracle verdict.
#[derive(Debug, Clone)]
pub struct Item {
    /// Index into [`PATTERNS`].
    pub pattern: usize,
    /// The text (or request body).
    pub text: Vec<u8>,
    /// The serial oracle's verdict.
    pub expected: bool,
}

/// The NFA of pattern `p`.
pub fn nfa(p: usize) -> Nfa {
    match p {
        0 => bigdata::nfa(),
        1 => bible::nfa(),
        2 => fasta::nfa(),
        _ => traffic::nfa(),
    }
}

/// The minimized RI-DFA of pattern `p` — what the registry builds on
/// insert, built here independently for the oracle and the layer replay.
pub fn construct(nfa: &Nfa) -> RiDfa {
    RiDfa::from_nfa(nfa).minimized()
}

/// The serial oracle: one whole-text walk, no chunking, no speculation.
pub fn oracle(rid: &RiDfa, text: &[u8]) -> bool {
    RidCa::new(rid).accepts_serial(text, &mut NoCount)
}

/// Body sizes of `serve_small`, cycled.
const SMALL_SIZES: [usize; 8] = [256, 512, KIB, 2 * KIB, 4 * KIB, 768, 1536, 3 * KIB];

/// Generates the inputs of `workload` for `seed`, with every size
/// multiplied by `scale` (1.0 for the benchmark; tests shrink it), and
/// fills in the oracle verdicts from `rids` (one per pattern).
pub fn generate(workload: Workload, seed: u64, scale: f64, rids: &[RiDfa]) -> Vec<Item> {
    let size = |bytes: usize| ((bytes as f64 * scale) as usize).max(64);
    let mut specs: Vec<(usize, usize, bool)> = Vec::new(); // (pattern, size, accept)
    match workload {
        Workload::Bulk => {
            for (len, accept) in [
                (MIB, true),
                (2 * MIB, true),
                (3 * MIB, true),
                (2 * MIB, false),
            ] {
                specs.extend((0..PATTERNS.len()).map(|p| (p, size(len), accept)));
            }
        }
        Workload::ServeLarge => {
            // Half the bodies are 2 MiB, so the median request lies inside
            // one cluster of latencies, not in the gap between two.
            for (len, accept) in [
                (MIB, true),
                (2 * MIB, true),
                (2 * MIB, false),
                (4 * MIB, true),
            ] {
                specs.extend((0..PATTERNS.len()).map(|p| (p, size(len), accept)));
            }
        }
        Workload::Stream => {
            specs.extend((0..8).map(|i| (TRAFFIC, size(4 * MIB), i % 4 != 3)));
        }
        Workload::ServeSmall => {
            for i in 0..128 {
                let round = i / PATTERNS.len();
                // A quarter of the bodies reject, spread evenly over the
                // size ladder.
                let accept = round % 4 != (round / 8) % 4;
                specs.push((i % PATTERNS.len(), size(SMALL_SIZES[round % 8]), accept));
            }
        }
    }
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (pattern, len, accept))| {
            let text_seed = mix(seed, i as u64);
            let text = if workload == Workload::Stream {
                log(len, accept, text_seed)
            } else {
                text(pattern, len, accept, text_seed)
            };
            let expected = oracle(&rids[pattern], &text);
            Item {
                pattern,
                text,
                expected,
            }
        })
        .collect()
}

/// A generator text of pattern `p`, meant to be accepted or rejected.
fn text(p: usize, len: usize, accept: bool, seed: u64) -> Vec<u8> {
    match (p, accept) {
        (0, true) => bigdata::text(len, seed),
        (0, false) => bigdata::rejected_text(len, seed),
        (1, true) => bible::text(len, seed),
        (1, false) => bible::rejected_text(len, seed),
        (2, true) => fasta::text(len, seed),
        (2, false) => fasta::rejected_text(len, seed),
        (_, true) => traffic::text(len, seed),
        (_, false) => traffic::rejected_text(len, seed),
    }
}

/// A traffic log; a rejected one has its record at three quarters of the
/// log malformed, so a stream validates most of it before it dies.
fn log(len: usize, accept: bool, seed: u64) -> Vec<u8> {
    let mut log = traffic::text(len, seed);
    if !accept {
        let at = log.len() * 3 / 4;
        let start = log[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let end = (start + 3).min(log.len());
        log[start..end].copy_from_slice(&b"Xxx"[..end - start]);
    }
    log
}

/// SplitMix64 of `seed` and `index`: independent content per text.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rids() -> Vec<RiDfa> {
        (0..PATTERNS.len()).map(|p| construct(&nfa(p))).collect()
    }

    #[test]
    fn same_seed_same_inputs_and_shape_is_seed_independent() {
        let rids = rids();
        for w in Workload::ALL {
            let a = generate(w, 7, 0.002, &rids);
            let b = generate(w, 7, 0.002, &rids);
            let c = generate(w, 8, 0.002, &rids);
            assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text), "{w:?}");
            assert_eq!(a.len(), c.len(), "{w:?}");
            assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text), "{w:?}");
        }
    }

    #[test]
    fn every_workload_mixes_accepted_and_rejected_texts() {
        let rids = rids();
        for w in Workload::ALL {
            let items = generate(w, 3, 0.01, &rids);
            let rejected = items.iter().filter(|i| !i.expected).count();
            assert!(rejected > 0 && rejected < items.len(), "{w:?}: {rejected}");
            assert!(
                rejected * 8 <= items.len() * 3,
                "{w:?}: {rejected} rejected"
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

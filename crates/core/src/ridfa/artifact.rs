//! Binary artifact codec for [`RiDfa`] — the serving cold-start path.
//!
//! Built on the container and section primitives of
//! [`ridfa_automata::serialize::binary`]: the payload is the minimized
//! core (byte classes, dense table, premultiplied table, finals, start)
//! followed by the interface sections (content CSR, entry/delegate maps,
//! the interface itself). Decoding re-validates everything a fresh
//! construction establishes — [`RiDfa::validate`] plus a premultiplied
//! table check — so a loaded artifact is indistinguishable from a built
//! automaton, at a small fraction of the powerset cost.

use ridfa_automata::dfa::premultiply;
use ridfa_automata::serialize::binary::{
    open, peek, seal, ArtifactKind, DecodeError, Decoder, Encoder, MAX_DECODE_STATES,
};
use ridfa_automata::StateId;

use super::RiDfa;
use crate::csdpa::{EnginePlan, FeasibleTable};
use crate::sfa::Sfa;

/// Engine-section flag bits (format v2).
const FLAG_FEASIBLE: u8 = 1 << 0;
const FLAG_SFA: u8 = 1 << 1;
const FLAG_SEPARATOR: u8 = 1 << 2;
const FLAG_KNOWN: u8 = FLAG_FEASIBLE | FLAG_SFA | FLAG_SEPARATOR;

/// A decoded RI-DFA artifact: the validated automaton plus its
/// premultiplied table (verified at decode, so serving skips even that
/// pass), and — format v2 — the engine plan chosen at compile time with
/// its optional precomputed tables, so registry replicas load the
/// decision instead of re-deriving it. v1 artifacts predate the engine
/// section and decode with [`EnginePlan::Auto`] and no tables.
#[derive(Debug, Clone)]
pub struct RiDfaArtifact {
    /// The validated automaton.
    pub rid: RiDfa,
    /// `premultiply(table, stride)`, verified at decode.
    pub premultiplied: Vec<StateId>,
    /// The engine plan persisted at compile time (`Auto` for v1 artifacts).
    pub plan: EnginePlan,
    /// Feasible-start boundary table, verified against a fresh build.
    pub feasible: Option<FeasibleTable>,
    /// SFA tables, re-validated against the automaton at decode.
    pub sfa: Option<Sfa>,
    /// Record-separator byte for boundary snapping, if the pattern's
    /// workload is record-structured.
    pub separator: Option<u8>,
}

/// Serializes an RI-DFA (including its premultiplied table) to a sealed
/// artifact with an empty engine section ([`EnginePlan::Auto`], no
/// precomputed tables).
pub fn ridfa_to_bytes(rid: &RiDfa) -> Vec<u8> {
    ridfa_to_bytes_with_engine(rid, EnginePlan::Auto, None, None, None)
}

/// Serializes an RI-DFA plus its engine plan and any precomputed engine
/// tables — what `ridfa compile --engine …` and registry snapshots write.
pub fn ridfa_to_bytes_with_engine(
    rid: &RiDfa,
    plan: EnginePlan,
    feasible: Option<&FeasibleTable>,
    sfa: Option<&Sfa>,
    separator: Option<u8>,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_classes(&rid.classes);
    enc.put_u64(rid.num_states() as u64);
    enc.put_u32(rid.start);
    enc.put_bitset(&rid.finals);
    enc.put_u32s(&rid.table);
    enc.put_u32s(&premultiply(&rid.table, rid.stride));
    enc.put_u64(rid.num_nfa_states as u64);
    enc.put_u32s(&rid.content_off);
    enc.put_u32s(&rid.content);
    enc.put_u32s(&rid.entry);
    enc.put_u32s(&rid.delegate);
    enc.put_u32s(&rid.interface);
    // Engine section (format v2): plan tag, flags, then the optional
    // separator byte, feasible-start words and SFA tables in flag order.
    enc.put_u8(plan.tag());
    let mut flags = 0u8;
    if feasible.is_some() {
        flags |= FLAG_FEASIBLE;
    }
    if sfa.is_some() {
        flags |= FLAG_SFA;
    }
    if separator.is_some() {
        flags |= FLAG_SEPARATOR;
    }
    enc.put_u8(flags);
    if let Some(sep) = separator {
        enc.put_u8(sep);
    }
    if let Some(feasible) = feasible {
        enc.put_u64(feasible.words().len() as u64);
        for &word in feasible.words() {
            enc.put_u64(word);
        }
    }
    if let Some(sfa) = sfa {
        enc.put_u32s(&sfa.table());
        enc.put_u32s(&sfa.flattened_functions());
    }
    seal(ArtifactKind::RiDfa, &enc.into_payload())
}

/// Decodes a sealed RI-DFA artifact, re-validating the full structural
/// contract (dead row, target ranges, CSR shape, interface invariants,
/// premultiplied table).
pub fn ridfa_from_bytes(bytes: &[u8]) -> Result<RiDfaArtifact, DecodeError> {
    let version = peek(bytes)?.version;
    let payload = open(bytes, ArtifactKind::RiDfa)?;
    let mut dec = Decoder::new(payload);
    let classes = dec.take_classes()?;
    let num_states = dec.take_u64()?;
    if num_states == 0 || num_states > MAX_DECODE_STATES as u64 {
        return Err(DecodeError::Malformed(format!(
            "state count {num_states} outside 1..={MAX_DECODE_STATES}"
        )));
    }
    let start = dec.take_u32()?;
    let finals = dec.take_bitset()?;
    let table = dec.take_u32s()?;
    let premultiplied = dec.take_u32s()?;
    let num_nfa_states = dec.take_u64()?;
    let content_off = dec.take_u32s()?;
    let content = dec.take_u32s()?;
    let entry = dec.take_u32s()?;
    let delegate = dec.take_u32s()?;
    let interface = dec.take_u32s()?;
    // Engine section — absent in v1 artifacts, which decode with a
    // synthesized `EnginePlan::Auto` (the registry re-derives the plan).
    let mut plan = EnginePlan::Auto;
    let mut separator = None;
    let mut feasible_words = None;
    let mut sfa_parts = None;
    if version >= 2 {
        let tag = dec.take_u8()?;
        plan = EnginePlan::from_tag(tag)
            .ok_or_else(|| DecodeError::Malformed(format!("unknown engine plan tag {tag}")))?;
        let flags = dec.take_u8()?;
        if flags & !FLAG_KNOWN != 0 {
            return Err(DecodeError::Malformed(format!(
                "unknown engine section flags {flags:#04x}"
            )));
        }
        if flags & FLAG_SEPARATOR != 0 {
            separator = Some(dec.take_u8()?);
        }
        if flags & FLAG_FEASIBLE != 0 {
            let count = dec.take_u64()?;
            // Bounded by what the automaton can need: stride × words per
            // class, both ≤ MAX_DECODE_STATES-scale — cap before reserving.
            if count > (MAX_DECODE_STATES as u64) * 4 {
                return Err(DecodeError::Malformed(format!(
                    "feasible table declares {count} words"
                )));
            }
            let mut words = Vec::with_capacity(count as usize);
            for _ in 0..count {
                words.push(dec.take_u64()?);
            }
            feasible_words = Some(words);
        }
        if flags & FLAG_SFA != 0 {
            let table = dec.take_u32s()?;
            let functions = dec.take_u32s()?;
            sfa_parts = Some((table, functions));
        }
    }
    dec.finish()?;

    let stride = classes.num_classes();
    if table.len() != num_states as usize * stride {
        return Err(DecodeError::Malformed(format!(
            "table holds {} entries, header declares {num_states} states × stride {stride}",
            table.len()
        )));
    }
    if num_nfa_states > num_states {
        return Err(DecodeError::Malformed(format!(
            "{num_nfa_states} NFA states exceed the {num_states} RI-DFA states"
        )));
    }
    if finals.capacity() != num_states as usize {
        return Err(DecodeError::Malformed(format!(
            "finals capacity {} does not match {num_states} states",
            finals.capacity()
        )));
    }
    let rid = RiDfa {
        classes,
        stride,
        table,
        finals,
        start,
        num_nfa_states: num_nfa_states as usize,
        content_off,
        content,
        entry,
        delegate,
        interface,
    };
    rid.validate().map_err(DecodeError::Malformed)?;
    if premultiplied != premultiply(&rid.table, rid.stride) {
        return Err(DecodeError::Malformed(
            "premultiplied table does not match the transition table".into(),
        ));
    }
    // Precomputed engine tables are re-verified against the decoded
    // automaton, so a loaded engine is indistinguishable from a fresh
    // build (and forged tables cannot smuggle wrong verdicts in).
    let feasible = match feasible_words {
        None => None,
        Some(words) => {
            let table = FeasibleTable::from_parts(rid.stride, rid.interface.len(), words)
                .map_err(DecodeError::Malformed)?;
            if table.words() != FeasibleTable::build(&rid).words() {
                return Err(DecodeError::Malformed(
                    "feasible-start table does not match the automaton".into(),
                ));
            }
            Some(table)
        }
    };
    let sfa = match sfa_parts {
        None => None,
        Some((table, functions)) => {
            Some(Sfa::from_rid_parts(&rid, table, functions).map_err(DecodeError::Malformed)?)
        }
    };
    Ok(RiDfaArtifact {
        rid,
        premultiplied,
        plan,
        feasible,
        sfa,
        separator,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridfa_automata::nfa::glushkov;
    use ridfa_automata::regex::parse;

    fn sample_rid() -> RiDfa {
        RiDfa::from_nfa(&glushkov::build(&parse("(a|b)*abb").unwrap()).unwrap()).minimized()
    }

    #[test]
    fn ridfa_binary_roundtrip_is_identical() {
        let rid = sample_rid();
        let bytes = ridfa_to_bytes(&rid);
        let back = ridfa_from_bytes(&bytes).unwrap();
        assert_eq!(back.rid, rid);
        assert_eq!(back.premultiplied, premultiply(&rid.table, rid.stride));
        assert_eq!(back.plan, EnginePlan::Auto);
        assert!(back.feasible.is_none() && back.sfa.is_none() && back.separator.is_none());
    }

    #[test]
    fn engine_section_roundtrips_plan_and_tables() {
        use ridfa_automata::ConstructionBudget;
        let rid = sample_rid();
        let feasible = FeasibleTable::build(&rid);
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        let bytes = ridfa_to_bytes_with_engine(
            &rid,
            EnginePlan::Sfa,
            Some(&feasible),
            Some(&sfa),
            Some(b'\n'),
        );
        let back = ridfa_from_bytes(&bytes).unwrap();
        assert_eq!(back.rid, rid);
        assert_eq!(back.plan, EnginePlan::Sfa);
        assert_eq!(back.separator, Some(b'\n'));
        assert_eq!(back.feasible.as_ref().unwrap().words(), feasible.words());
        let dec = back.sfa.unwrap();
        assert_eq!(dec.table(), sfa.table());
        assert_eq!(dec.flattened_functions(), sfa.flattened_functions());
    }

    /// Re-creates a pre-engine-section (format v1) artifact: the v1
    /// payload layout sealed normally, then the header's version field
    /// (bytes 6..8, not covered by the payload checksum) patched back to
    /// 1. Decoding must succeed and synthesize `EnginePlan::Auto`.
    fn forge_v1(rid: &RiDfa) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_classes(&rid.classes);
        enc.put_u64(rid.num_states() as u64);
        enc.put_u32(rid.start);
        enc.put_bitset(&rid.finals);
        enc.put_u32s(&rid.table);
        enc.put_u32s(&premultiply(&rid.table, rid.stride));
        enc.put_u64(rid.num_nfa_states as u64);
        enc.put_u32s(&rid.content_off);
        enc.put_u32s(&rid.content);
        enc.put_u32s(&rid.entry);
        enc.put_u32s(&rid.delegate);
        enc.put_u32s(&rid.interface);
        let mut bytes = seal(ArtifactKind::RiDfa, &enc.into_payload());
        bytes[6..8].copy_from_slice(&1u16.to_le_bytes());
        bytes
    }

    #[test]
    fn v1_artifact_decodes_with_synthesized_auto_plan() {
        let rid = sample_rid();
        let bytes = forge_v1(&rid);
        let back = ridfa_from_bytes(&bytes).unwrap();
        assert_eq!(back.rid, rid);
        assert_eq!(back.plan, EnginePlan::Auto);
        assert!(back.feasible.is_none() && back.sfa.is_none() && back.separator.is_none());
    }

    #[test]
    fn forged_engine_tables_are_rejected() {
        use ridfa_automata::ConstructionBudget;
        let rid = sample_rid();
        let feasible = FeasibleTable::build(&rid);
        // Flip one feasibility bit: shape-valid, content-inconsistent.
        let mut words = feasible.words().to_vec();
        words[0] ^= 1;
        let bad = FeasibleTable::from_parts(rid.stride, rid.interface.len(), words).unwrap();
        let bytes =
            ridfa_to_bytes_with_engine(&rid, EnginePlan::FeasibleStart, Some(&bad), None, None);
        assert!(matches!(
            ridfa_from_bytes(&bytes),
            Err(DecodeError::Malformed(_))
        ));
        // SFA functions that disagree with the automaton are rejected by
        // the same validation the decoder runs (`Sfa::from_rid_parts`).
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        let mut functions = sfa.flattened_functions();
        let last = functions.len() - 1;
        functions[last] = (functions[last] + 1) % rid.num_states() as u32;
        assert!(Sfa::from_rid_parts(&rid, sfa.table().to_vec(), functions).is_err());
    }

    #[test]
    fn every_truncation_errors_typed() {
        let bytes = ridfa_to_bytes(&sample_rid());
        for len in 0..bytes.len() {
            assert!(ridfa_from_bytes(&bytes[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes_invalid() {
        let rid = sample_rid();
        let bytes = ridfa_to_bytes(&rid);
        for i in (0..bytes.len()).step_by(3) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            // Typed error — or, only if the checksum collided (it cannot
            // for a single flipped bit), an automaton passing validation.
            assert!(ridfa_from_bytes(&bad).is_err(), "offset {i}");
        }
    }

    #[test]
    fn dfa_artifact_is_rejected_as_wrong_kind() {
        use ridfa_automata::dfa::powerset::determinize;
        let nfa = glushkov::build(&parse("ab*").unwrap()).unwrap();
        let bytes = ridfa_automata::serialize::binary::dfa_to_bytes(&determinize(&nfa));
        assert!(matches!(
            ridfa_from_bytes(&bytes),
            Err(DecodeError::WrongKind { .. })
        ));
    }
}

//! The data-parallel scan kernel ([`Kernel::Simd`](super::Kernel::Simd)).
//!
//! Three techniques, composed per phase of one chunk scan and gated on
//! *runtime* AVX2 detection (see [`ridfa_automata::simd::enabled`]):
//!
//! 1. **Vectorized classification.** Every phase pulls byte classes
//!    through [`ByteClasses::classify_into`], whose AVX2 nibble-shuffle
//!    path translates 32 bytes per iteration.
//! 2. **Gather-based lockstep stepping** (Ko et al.'s speculative SIMD
//!    membership test, arXiv:1210.5093). While many speculative runs are
//!    live, their premultiplied rows are advanced eight per
//!    `vpgatherdd` against one shared class vector. The per-byte dedup
//!    bookkeeping of the scalar lockstep kernel is *amortized* instead
//!    of paid per byte: groups advance freely for a short period, then a
//!    merge/compact pass splices converged groups and drops dead ones
//!    (sound because the dead row 0 is absorbing — `ptable[0 + c] = 0` —
//!    so an unmerged duplicate or dead lane just keeps gathering zeros).
//! 3. **Dependency-breaking finishes.** Once few runs survive, the scan
//!    is latency-bound on the `load → index → load` chain (~5 cycles per
//!    byte however fast the ALUs are). Each survivor takes the
//!    re-seeding checkpointed stride walk of
//!    [`strided_walk`](super::strided_walk), in turn: 64 KiB windows,
//!    each split into four interleaved strides, where stride 0 continues
//!    from the true row and strides 1–3 speculate from the window's entry
//!    row, re-seed from the start row when they die, and record periodic
//!    checkpoints. A serial repair pass rescans each stride from its true
//!    entry only until it meets a matching checkpoint — by DFA
//!    determinism, agreement at one position implies identical rows ever
//!    after, so the stride's precomputed end row is adopted (or, if the
//!    chain died after that checkpoint, the true run's death) and the
//!    rest skipped. On convergent texts, and on record-structured texts
//!    whose dead chains resync at the next record, repairs cost a few
//!    hundred bytes per stride; the worst case degrades to the plain
//!    serial walk plus the wasted speculation, never to a wrong answer.
//!    Below the walk's floor two to four survivors are instead
//!    *interleaved* in one pass — independent loads overlap, so four
//!    chains cost the wall time of one.
//!
//! Counting semantics are **per executed transition per lane/chain** —
//! work actually performed, including speculation that repair later
//! discards. This is honest but *not* comparable to the scalar lockstep
//! per-group counts (which merge eagerly); differential tests compare
//! mappings and verdicts, never tallies.

// The crate denies unsafe code; this module is the audited exception
// (AVX2 gathers behind runtime feature detection).
#![allow(unsafe_code)]

use ridfa_automata::counter::Counter;
use ridfa_automata::StateId;

use super::{
    merge_compact, seed_groups, strided_walk, write_mapping, DenseTable, Scratch, CLASS_BLOCK,
    NUM_CHAINS, STRIDE_MIN,
};

/// Bytes between merge/compact passes of the gather phase. Short enough
/// to catch the early convergence burst, long enough to amortize the
/// compaction over the period.
const MERGE_PERIOD: usize = 256;

/// Below this many live groups the gather step stops paying (most lanes
/// idle) and the interleaved scalar finishes take over.
const GATHER_EXIT: usize = 4;

/// Can the SIMD kernel execute here? Runtime AVX2 (plus the
/// `RIDFA_NO_SIMD` kill switch) and a premultiplied table addressable by
/// the signed 32-bit indices `vpgatherdd` consumes.
pub(super) fn supported(table_entries: usize) -> bool {
    cfg!(target_arch = "x86_64")
        && table_entries <= i32::MAX as usize
        && ridfa_automata::simd::enabled()
}

/// The SIMD chunk scan. Same contract as the scalar
/// [`lockstep_scan`](super::lockstep_scan): `out` is pre-filled with
/// [`DEAD`](ridfa_automata::DEAD) by the dispatcher and sized to the
/// origin count.
pub(super) fn scan(
    table: DenseTable<'_>,
    starts: impl Iterator<Item = (u32, StateId)>,
    chunk: &[u8],
    scratch: &mut Scratch,
    counter: &mut impl Counter,
    out: &mut [StateId],
) {
    debug_assert!(supported(table.ptable.len()));
    scratch.warm_up(table.ptable.len(), out.len());
    let stride = table.stride;
    let mut len = seed_groups(scratch, starts, stride);
    let mut consumed = 0;

    // Phase 1: many live runs — gather-based lockstep with periodic
    // merge/compact passes.
    if len > GATHER_EXIT {
        let mut class_buf = std::mem::take(&mut scratch.class_buf);
        'gather: while consumed < chunk.len() && len > GATHER_EXIT {
            if scratch.interrupt.as_ref().is_some_and(|p| p.should_stop()) {
                break 'gather; // abandoned: the budgeted caller discards
            }
            let block = &chunk[consumed..(consumed + CLASS_BLOCK).min(chunk.len())];
            table.classes.classify_into(block, &mut class_buf);
            for period in class_buf[..block.len()].chunks(MERGE_PERIOD) {
                advance_gathered(table.ptable, &mut scratch.rows[..len], period, counter);
                consumed += period.len();
                len = merge_compact(scratch, len);
                if len <= GATHER_EXIT {
                    break 'gather;
                }
            }
        }
        scratch.class_buf = class_buf;
    }

    // Phase 2: few live runs — dependency-breaking finishes. Each
    // survivor takes the stride walk in turn; below the walk's floor,
    // where that would be one serial loop per survivor, two to four
    // survivors advance interleaved instead. Measured on a 2-core AVX2
    // Xeon, the finishes alternating in one binary over 16 chunk
    // positions per size (ns/B, interleaved → in turn):
    // * two survivors (bible, fasta): in turn wins from 16 KiB chunks up
    //   (32 KiB–1 MiB: 2.3–2.6 → 1.6–2.2); bible loses 4–5 % at 10–12
    //   KiB; below the floor (4–8 KiB chunks) interleaving wins by about
    //   a third (bible at 4 KiB: 4.93 vs 6.58);
    // * three or four survivors: no standard benchmark keeps more than
    //   two to a chunk's end, and in turn wins where the gather phase
    //   exits with more (traffic under feasible-start, 64 KiB–1.5 MiB:
    //   1.0–1.5 → 0.86–1.19; bigdata under lockstep, 16 KiB–1 MiB:
    //   2.2–2.3 → 0.8–1.7). It loses on languages of three or four
    //   never-merging tracks, which keep them to the end (three: 2.3–2.5
    //   → 2.4–3.1; four: 2.3–2.7 → 3.2–3.8).
    if consumed < chunk.len() && (1..=GATHER_EXIT).contains(&len) {
        let rest = &chunk[consumed..];
        if len > 1 && rest.len() < STRIDE_MIN {
            multi_chain_finish(table, scratch, len, rest, counter);
        } else {
            let probe = scratch.interrupt.as_ref();
            for row in &mut scratch.rows[..len] {
                *row = strided_walk(table, *row as usize, rest, probe, counter) as StateId;
            }
        }
    }

    write_mapping(scratch, len, stride, out);
}

/// Advances all live groups over one period of pre-classified bytes,
/// eight premultiplied rows per gather, without merge bookkeeping. Dead
/// groups (and the row-0 pad lanes of the last vector) are absorbed by
/// the all-zero dead row, so no masking is needed; live transitions are
/// counted per lane from the not-dead movemask.
#[cfg(target_arch = "x86_64")]
fn advance_gathered(
    ptable: &[StateId],
    rows: &mut [StateId],
    classes: &[u8],
    counter: &mut impl Counter,
) {
    // SAFETY: `supported` (asserted by the caller) verified AVX2.
    unsafe { advance_gathered_avx2(ptable, rows, classes, counter) }
}

/// # Safety
/// Requires AVX2. Every row in `rows` must be a valid premultiplied row
/// offset of `ptable` (hence `row + class < ptable.len()` for any class
/// the table was built with), and `ptable.len() ≤ i32::MAX`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn advance_gathered_avx2(
    ptable: &[StateId],
    rows: &mut [StateId],
    classes: &[u8],
    counter: &mut impl Counter,
) {
    use std::arch::x86_64::*;
    let base = ptable.as_ptr() as *const i32;
    let zero = _mm256_setzero_si256();
    let mut g = 0;
    while g < rows.len() {
        let lanes = (rows.len() - g).min(8);
        // Load up to eight group rows, padding the tail vector with the
        // absorbing dead row 0 (gathers `ptable[0 + c] = 0`, never
        // counted, never stored back).
        let mut lane_buf = [0u32; 8];
        lane_buf[..lanes].copy_from_slice(&rows[g..g + lanes]);
        let mut v = _mm256_loadu_si256(lane_buf.as_ptr() as *const __m256i);
        for &class in classes {
            let idx = _mm256_add_epi32(v, _mm256_set1_epi32(class as i32));
            // SAFETY: rows are premultiplied offsets and `class` is a
            // valid class of the table, so every index is in bounds;
            // pad lanes index row 0.
            v = _mm256_i32gather_epi32::<4>(base, idx);
            let dead = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero)));
            counter.add(8 - (dead.count_ones() as u64));
        }
        _mm256_storeu_si256(lane_buf.as_mut_ptr() as *mut __m256i, v);
        rows[g..g + lanes].copy_from_slice(&lane_buf[..lanes]);
        g += lanes;
    }
}

/// Fallback stub so non-x86 builds type-check; unreachable because
/// [`supported`] is false there.
#[cfg(not(target_arch = "x86_64"))]
fn advance_gathered(
    _ptable: &[StateId],
    _rows: &mut [StateId],
    _classes: &[u8],
    _counter: &mut impl Counter,
) {
    unreachable!("SIMD scan dispatched without architecture support")
}

/// Runs the 2..=[`NUM_CHAINS`] surviving groups to the end of the chunk
/// as *interleaved* independent chains: one shared classification pass,
/// one loop, [`NUM_CHAINS`] in-flight loads per byte (unused chains are
/// parked on the absorbing dead row and never counted). Replaces the
/// scalar kernel's one-group-after-another serial finish, which walks
/// the remainder `len` times with a bare dependency chain each.
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
        for &class in &class_buf[..seg.len()] {
            let c = class as usize;
            let next = [
                ptable[r[0] + c] as usize,
                ptable[r[1] + c] as usize,
                ptable[r[2] + c] as usize,
                ptable[r[3] + c] as usize,
            ];
            counter.add(next.iter().map(|&n| (n != 0) as u64).sum());
            r = next;
        }
    }
    scratch.class_buf = class_buf;
    for (row, &chain) in scratch.rows[..len].iter_mut().zip(&r) {
        *row = chain as StateId;
    }
}

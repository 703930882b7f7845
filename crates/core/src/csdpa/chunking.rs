//! Text segmentation into chunks.

use std::ops::Range;

/// Splits `0..len` into `num_chunks` contiguous spans whose lengths differ
/// by at most one byte (the first `len % c` spans get the extra byte).
///
/// `num_chunks` is clamped to `1..=len` so every chunk is non-empty
/// (`y_i ∈ Σ+` in the paper); an empty text yields a single empty span.
pub fn chunk_spans(len: usize, num_chunks: usize) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    chunk_spans_into(len, num_chunks, &mut spans);
    spans
}

/// Like [`chunk_spans`] but writing into a reusable buffer (cleared
/// first) — allocation-free once `out` has grown to the high-water chunk
/// count.
pub fn chunk_spans_into(len: usize, num_chunks: usize, out: &mut Vec<Range<usize>>) {
    out.clear();
    let c = chunk_count(len, num_chunks);
    out.extend((0..c).map(|i| chunk_span(len, c, i)));
}

/// How many spans [`chunk_spans`] cuts `0..len` into: `num_chunks`
/// clamped to `1..=len`, and one for the empty text.
pub(crate) fn chunk_count(len: usize, num_chunks: usize) -> usize {
    num_chunks.clamp(1, len.max(1))
}

/// Span `i` of [`chunk_spans`] over `0..len` with `c` =
/// [`chunk_count`] spans, computed without the span table.
pub(crate) fn chunk_span(len: usize, c: usize, i: usize) -> Range<usize> {
    let (base, extra) = (len / c, len % c);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Like [`chunk_spans`] but with record-separator-aware boundary
/// snapping: each interior cut point is moved forward to just past the
/// next `separator` byte, so every chunk (except possibly the first)
/// starts at a record head. For record-structured workloads under a
/// feasible-start plan this collapses the feasible set at each boundary
/// to the handful of states reachable right after a separator — far
/// fewer speculative runs than an arbitrary mid-record cut seeds.
///
/// Snapping is best-effort: a cut with no separator in its remaining
/// suffix merges into the previous chunk (spans stay contiguous, cover
/// the text exactly, and are never empty), and a separator-free text
/// degrades to one span per surviving cut — i.e. plain [`chunk_spans`]
/// semantics minus the merged cuts.
pub fn chunk_spans_snapped(
    text: &[u8],
    num_chunks: usize,
    separator: u8,
    out: &mut Vec<Range<usize>>,
) {
    chunk_spans_into(text.len(), num_chunks, out);
    if text.is_empty() || out.len() < 2 {
        return;
    }
    let mut write = 0;
    let mut start = 0;
    for i in 1..out.len() {
        let cut = out[i].start;
        // Snap forward: the chunk boundary lands just after the first
        // separator at or beyond the balanced cut point.
        match text[cut..].iter().position(|&b| b == separator) {
            Some(offset) if cut + offset + 1 < text.len() => {
                let snapped = cut + offset + 1;
                if snapped > start {
                    out[write] = start..snapped;
                    write += 1;
                    start = snapped;
                }
            }
            // No separator ahead (or it is the final byte): merge this
            // cut into the running span.
            _ => {}
        }
    }
    out[write] = start..text.len();
    out.truncate(write + 1);
    debug_assert_eq!(out[0].start, 0);
    debug_assert!(out.windows(2).all(|w| w[0].end == w[1].start));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_text_exactly() {
        for len in [1usize, 2, 7, 100, 1001] {
            for c in [1usize, 2, 3, 32, 64, 1000, 5000] {
                let spans = chunk_spans(len, c);
                assert_eq!(spans[0].start, 0);
                assert_eq!(spans.last().unwrap().end, len);
                for w in spans.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let spans = chunk_spans(100, 7);
        let sizes: Vec<usize> = spans.iter().map(|s| s.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn more_chunks_than_bytes_clamps() {
        let spans = chunk_spans(3, 10);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn empty_text_single_empty_span() {
        let spans = chunk_spans(0, 8);
        assert_eq!(spans, vec![0..0]);
    }

    #[test]
    fn spans_into_reuses_buffer() {
        let mut buf = chunk_spans(100, 7);
        let cap = buf.capacity();
        chunk_spans_into(10, 3, &mut buf);
        assert_eq!(buf, chunk_spans(10, 3));
        assert!(buf.capacity() >= cap, "capacity must be retained");
    }

    #[test]
    fn zero_chunks_clamps_to_one() {
        let spans = chunk_spans(5, 0);
        assert_eq!(spans, vec![0..5]);
    }

    #[test]
    fn snapped_spans_start_at_record_heads() {
        // Records of 10 bytes: "aaaaaaaaa\n" × 8.
        let text: Vec<u8> = b"aaaaaaaaa\n".repeat(8);
        let mut spans = Vec::new();
        chunk_spans_snapped(&text, 4, b'\n', &mut spans);
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans.last().unwrap().end, text.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "contiguous");
            assert_eq!(
                text[w[1].start - 1],
                b'\n',
                "every interior boundary follows a separator"
            );
        }
        assert!(spans.len() >= 2, "separators exist, cuts must survive");
        assert!(spans.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn snapping_without_separators_degrades_to_one_span() {
        let text = vec![b'x'; 100];
        let mut spans = Vec::new();
        chunk_spans_snapped(&text, 4, b'\n', &mut spans);
        assert_eq!(spans, vec![0..100], "no separator: cuts all merge");
    }

    #[test]
    fn snapping_never_produces_empty_spans() {
        // Separators clustered at the front: several cuts snap to the
        // same record head and must collapse, not produce empty spans.
        let mut text = b"\n\n\n".to_vec();
        text.extend_from_slice(&[b'y'; 50]);
        let mut spans = Vec::new();
        chunk_spans_snapped(&text, 8, b'\n', &mut spans);
        assert!(spans.iter().all(|s| !s.is_empty()), "{spans:?}");
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans.last().unwrap().end, text.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}

//! Asserts the allocation contract of the chunk scans: after the scratch
//! and the output mapping have warmed up, a scan performs **zero** heap
//! allocations — for every reach-kernel strategy, and for the SFA chunk
//! walk, which has no scratch at all.
//!
//! Lives in its own test binary because of the counting allocator of
//! `common::alloc`. libtest runs the tests below on parallel threads,
//! so each counts only on its own thread through `allocations_in`:
//! never the harness's or a concurrently running test's warm-up.

mod common;

use common::alloc::allocations_in;
use ridfa::automata::dfa::{minimize, powerset};
use ridfa::automata::nfa::glushkov;
use ridfa::automata::regex::parse;
use ridfa::automata::{ConstructionBudget, NoCount};
use ridfa::core::csdpa::kernel::{self, DenseTable, Kernel, Scratch};
use ridfa::core::csdpa::ChunkAutomaton;
use ridfa::core::sfa::{Sfa, SfaCa};

#[test]
fn warm_scans_allocate_nothing() {
    let dfa = minimize::minimize(&powerset::determinize(
        &glushkov::build(&parse("(a|b)*abb(a|b)*ab").unwrap()).unwrap(),
    ));
    let ptable = dfa.premultiplied_table();
    let table = DenseTable {
        ptable: &ptable,
        stride: dfa.stride(),
        classes: dfa.classes(),
    };
    // 20 000 bytes: past the SFA walk's four-block split length too.
    let chunk = b"abbaabbbab".repeat(2000);

    for kernel in [
        Kernel::PerRun,
        Kernel::LockstepShared,
        Kernel::Simd,
        Kernel::Auto,
    ] {
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        // Warm-up: sizes the scratch arrays and the output mapping.
        kernel::scan_into(
            table,
            dfa.live_states().map(|s| (s, s)),
            dfa.num_states(),
            &chunk,
            kernel,
            &mut scratch,
            &mut NoCount,
            &mut out,
        );
        let allocated = allocations_in(|| {
            for _ in 0..5 {
                kernel::scan_into(
                    table,
                    dfa.live_states().map(|s| (s, s)),
                    dfa.num_states(),
                    &chunk,
                    kernel,
                    &mut scratch,
                    &mut NoCount,
                    &mut out,
                );
            }
        });
        assert_eq!(allocated, 0, "{kernel:?} allocated on a warm scan");
    }

    // The SFA walk keeps its class blocks and its join key on the stack,
    // so its scans allocate nothing even though `Scratch = ()`.
    let sfa = Sfa::build_budgeted(&dfa, &ConstructionBudget::UNLIMITED).unwrap();
    let ca = SfaCa::new(&sfa);
    let mut out = sfa.identity();
    ca.scan_into(&chunk, &mut (), &mut NoCount, &mut out);
    let allocated = allocations_in(|| {
        for _ in 0..5 {
            ca.scan_into(&chunk, &mut (), &mut NoCount, &mut out);
            ca.scan_first_into(&chunk, &mut NoCount, &mut out);
            ca.accepts_serial(&chunk, &mut NoCount);
        }
    });
    assert_eq!(allocated, 0, "the SFA chunk walk allocated");
}

#[test]
fn scratch_growth_stops_at_the_high_water_mark() {
    // Alternating between a small and a large automaton must stop
    // allocating once both have been seen.
    let small = powerset::determinize(&glushkov::build(&parse("ab").unwrap()).unwrap());
    let big = powerset::determinize(
        &glushkov::build(&parse("(a|b|c)*ab(a|b)(a|b)(a|b)").unwrap()).unwrap(),
    );
    let p_small = small.premultiplied_table();
    let p_big = big.premultiplied_table();
    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    let chunk = b"abcab".repeat(200);
    let scan = |dfa: &ridfa::automata::dfa::Dfa,
                ptable: &[u32],
                out: &mut Vec<u32>,
                scratch: &mut Scratch| {
        kernel::scan_into(
            DenseTable {
                ptable,
                stride: dfa.stride(),
                classes: dfa.classes(),
            },
            dfa.live_states().map(|s| (s, s)),
            dfa.num_states(),
            &chunk,
            Kernel::LockstepShared,
            scratch,
            &mut NoCount,
            out,
        );
    };
    // Warm up on both automata.
    scan(&small, &p_small, &mut out, &mut scratch);
    scan(&big, &p_big, &mut out, &mut scratch);
    let allocated = allocations_in(|| {
        for _ in 0..4 {
            scan(&small, &p_small, &mut out, &mut scratch);
            scan(&big, &p_big, &mut out, &mut scratch);
        }
    });
    assert_eq!(allocated, 0, "alternating warm scans allocated");
}

#[test]
fn counting_sees_only_the_opted_in_thread() {
    // The flake this design removes: another thread's allocations must
    // not land in this thread's count, while this thread's own must.
    let spawn = |allocate: bool| {
        std::thread::spawn(move || {
            if allocate {
                drop(std::hint::black_box(vec![0u8; 1 << 10]));
            }
        })
        .join()
        .unwrap()
    };
    spawn(true); // one-time set-up of the spawn path, uncounted
    let quiet = allocations_in(|| spawn(false));
    let busy = allocations_in(|| spawn(true));
    assert_eq!(busy, quiet, "a child thread's allocation was counted");
    let own = allocations_in(|| drop(std::hint::black_box(vec![0u8; 1 << 10])));
    assert_eq!(own, 1, "the opted-in thread's own allocation was missed");
}

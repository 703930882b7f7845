//! Asserts the allocation contract of the chunk scans: after the scratch
//! and the output mapping have warmed up, a scan performs **zero** heap
//! allocations — for every reach-kernel strategy, for first-chunk scans
//! through the strided single-run walk, and for the SFA chunk walk,
//! which has no scratch at all.
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
use ridfa::automata::{ConstructionBudget, NoCount, DEAD};
use ridfa::core::csdpa::kernel::{self, DenseTable, Kernel, Scratch};
use ridfa::core::csdpa::{ChunkAutomaton, DfaCa, RidCa};
use ridfa::core::ridfa::RiDfa;
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
        start_row: dfa.start() as usize * dfa.stride(),
    };
    // 20 000 bytes: past the SFA walk's four-block split length too.
    let chunk = b"abbaabbbab".repeat(2000);

    for kernel in [Kernel::PerRun, Kernel::LockstepShared, Kernel::Auto] {
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
fn warm_single_run_walks_allocate_nothing() {
    // The strided single-run walk keeps its class buffers and
    // checkpoints on the stack: a first chunk spanning several of its
    // windows, and interior lockstep scans that finish with one, two or
    // six survivors, allocate nothing once their mappings have warmed
    // up.
    fn dfa_of(pattern: &str) -> ridfa::automata::dfa::Dfa {
        minimize::minimize(&powerset::determinize(
            &glushkov::build(&parse(pattern).unwrap()).unwrap(),
        ))
    }
    fn assert_warm_scans_allocate_nothing<CA: ChunkAutomaton>(ca: &CA, chunk: &[u8], what: &str) {
        let mut scratch = CA::Scratch::default();
        let mut first = CA::Mapping::default();
        let mut interior = CA::Mapping::default();
        ca.scan_first_into(chunk, &mut NoCount, &mut first);
        ca.scan_into(chunk, &mut scratch, &mut NoCount, &mut interior);
        let allocated = allocations_in(|| {
            for _ in 0..3 {
                ca.scan_first_into(chunk, &mut NoCount, &mut first);
                ca.scan_into(chunk, &mut scratch, &mut NoCount, &mut interior);
            }
        });
        assert_eq!(allocated, 0, "{what} allocated on a warm scan");
    }
    let chunk = b"abbaabbbab".repeat((3 * kernel::WINDOW + 3).div_ceil(10));

    // 32 states converge to one survivor within five bytes.
    let converging = dfa_of("[ab]*a[ab]{4}");
    let survivors = |dfa: &ridfa::automata::dfa::Dfa| {
        let mut lasts = DfaCa::new(dfa).scan(&chunk, &mut NoCount);
        lasts.retain(|&s| s != DEAD);
        lasts.sort_unstable();
        lasts.dedup();
        lasts.len()
    };
    assert_eq!(survivors(&converging), 1);
    // Two parity states that never meet.
    let parity = dfa_of("(a*ba*b)*a*");
    assert_eq!(survivors(&parity), 2);
    // Six counter phases that never meet: more survivors than the
    // interleaved finish takes, so each is walked in turn.
    let counter = dfa_of("([ab]{6})*");
    assert_eq!(survivors(&counter), 6);
    for (dfa, what) in [
        (&converging, "one survivor"),
        (&parity, "two survivors"),
        (&counter, "six survivors"),
    ] {
        assert_warm_scans_allocate_nothing(
            &DfaCa::new(dfa).with_kernel(Kernel::LockstepShared),
            &chunk,
            &format!("dfa lockstep, {what}"),
        );
        assert_warm_scans_allocate_nothing(
            &DfaCa::new(dfa).with_kernel(Kernel::Auto),
            &chunk,
            &format!("dfa auto, {what}"),
        );
    }
    let rid = RiDfa::from_nfa(&glushkov::build(&parse("[ab]*a[ab]{4}").unwrap()).unwrap());
    for kernel in [Kernel::LockstepShared, Kernel::Auto] {
        assert_warm_scans_allocate_nothing(
            &RidCa::new(&rid).with_kernel(kernel),
            &chunk,
            &format!("rid {kernel:?}"),
        );
    }
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
                start_row: dfa.start() as usize * dfa.stride(),
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

//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Interface minimization on/off** — how much speculative work the
//!    Sect. 3.4 delegation saves at recognition time (`fasta` has
//!    language-equivalent motif tails, so its interface shrinks).
//! 2. **Executor shape** — the paper's one-thread-per-chunk model vs a
//!    bounded dynamic team.
//! 3. **SFA comparator** — zero speculation, huge table (reference \[25\]).
//! 4. **Scan kernel** — per-run vs the lockstep kernel vs `Auto`, on
//!    the longest-interface workload (`traffic`, 101 interface states),
//!    where fusing the `k` passes matters most; plus micro-ablations of
//!    the shuffle classifier and of the lockstep kernel's strided
//!    single-run walk (on `bible` and `traffic`) against their serial
//!    twins. The harness writes the group's results to
//!    `target/criterion-shim/ablation_kernels.json`; the checked-in
//!    baseline lives at `crates/bench/baselines/ablation_kernels.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ridfa_automata::{ConstructionBudget, NoCount};
use ridfa_bench::build_artifacts;
use ridfa_core::csdpa::kernel::{self, DenseTable, Scratch};
use ridfa_core::csdpa::{
    chunk_spans_snapped, plan, recognize, recognize_spans, DfaCa, Executor, FeasibleTable, Kernel,
    RidCa,
};
use ridfa_core::ridfa::RiDfa;
use ridfa_core::sfa::{Sfa, SfaCa};
use ridfa_workloads::standard_benchmarks;

const TEXT_LEN: usize = 256 << 10;

fn bench_interface_minimization(c: &mut Criterion) {
    let fasta = standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "fasta")
        .unwrap();
    let rid_raw = RiDfa::from_nfa(&fasta.nfa);
    let rid_min = rid_raw.minimized();
    assert!(
        rid_min.interface().len() < rid_raw.interface().len(),
        "fasta interface must shrink for this ablation to be meaningful"
    );
    let text = (fasta.accepted)(TEXT_LEN, 42);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut group = c.benchmark_group("ablation_interface_min");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    let ca_raw = RidCa::new(&rid_raw);
    let ca_min = RidCa::new(&rid_min);
    group.bench_function("raw_interface", |b| {
        b.iter(|| recognize(&ca_raw, &text, threads, Executor::Team(threads)).accepted);
    });
    group.bench_function("minimized_interface", |b| {
        b.iter(|| recognize(&ca_min, &text, threads, Executor::Team(threads)).accepted);
    });
    group.finish();
}

fn bench_executor_shape(c: &mut Criterion) {
    let bible = standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "bible")
        .unwrap();
    let a = build_artifacts(&bible);
    let ca = RidCa::new(&a.rid);
    let text = (a.accepted)(TEXT_LEN, 42);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let chunks = threads * 4; // more chunks than workers: the shapes differ
    let mut group = c.benchmark_group("ablation_executor");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("per_chunk_threads", |b| {
        b.iter(|| recognize(&ca, &text, chunks, Executor::PerChunk).accepted);
    });
    group.bench_function("dynamic_team", |b| {
        b.iter(|| recognize(&ca, &text, chunks, Executor::Team(threads)).accepted);
    });
    group.bench_function("serial_executor", |b| {
        b.iter(|| recognize(&ca, &text, chunks, Executor::Serial).accepted);
    });
    group.finish();
}

fn bench_sfa_comparator(c: &mut Criterion) {
    // Small pattern: the SFA fits in memory, so the zero-speculation
    // trade-off can be measured directly.
    let bigdata = standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "bigdata")
        .unwrap();
    let a = build_artifacts(&bigdata);
    let sfa = Sfa::build_limited(&a.dfa, 1 << 20).expect("bigdata SFA fits");
    let text = (a.accepted)(TEXT_LEN, 42);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut group = c.benchmark_group("ablation_sfa");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    let rid_ca = RidCa::new(&a.rid);
    let sfa_ca = SfaCa::new(&sfa);
    group.bench_function("rid", |b| {
        b.iter(|| recognize(&rid_ca, &text, threads, Executor::Team(threads)).accepted);
    });
    group.bench_function("sfa", |b| {
        b.iter(|| recognize(&sfa_ca, &text, threads, Executor::Team(threads)).accepted);
    });
    group.finish();
}

fn bench_convergence(c: &mut Criterion) {
    // The conclusion's "compatible with state-convergence" claim: lockstep
    // scanning with group merging, for both the DFA and RID variants, on
    // the winning benchmark where the DFA has the most runs to merge.
    let bible = standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "bible")
        .unwrap();
    let a = build_artifacts(&bible);
    let text = (a.accepted)(TEXT_LEN, 42);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut group = c.benchmark_group("ablation_convergence");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    let dfa_plain = DfaCa::new(&a.dfa);
    let dfa_conv = DfaCa::new(&a.dfa).with_kernel(Kernel::Auto);
    let rid_plain = RidCa::new(&a.rid);
    let rid_conv = RidCa::new(&a.rid).with_kernel(Kernel::Auto);
    group.bench_function("dfa_plain", |b| {
        b.iter(|| recognize(&dfa_plain, &text, 32, Executor::Team(threads)).accepted);
    });
    group.bench_function("dfa_convergent", |b| {
        b.iter(|| recognize(&dfa_conv, &text, 32, Executor::Team(threads)).accepted);
    });
    group.bench_function("rid_plain", |b| {
        b.iter(|| recognize(&rid_plain, &text, 32, Executor::Team(threads)).accepted);
    });
    group.bench_function("rid_convergent", |b| {
        b.iter(|| recognize(&rid_conv, &text, 32, Executor::Team(threads)).accepted);
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // The tentpole ablation: how much of the reach phase's speculation
    // overhead each kernel layer removes. `traffic` has the longest
    // interface of the standard benchmarks, so per-run scanning pays the
    // full k-pass cost and the lockstep layers have the most to merge.
    let traffic = standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "traffic")
        .unwrap();
    let a = build_artifacts(&traffic);
    let text = (a.accepted)(TEXT_LEN, 42);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let chunks = threads * 2;
    let mut group = c.benchmark_group("ablation_kernels");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    for (label, kernel) in [
        ("per_run", Kernel::PerRun),
        ("lockstep_shared", Kernel::LockstepShared),
        ("auto", Kernel::Auto),
    ] {
        let ca = RidCa::new(&a.rid).with_kernel(kernel);
        group.bench_function(label, |b| {
            b.iter(|| recognize(&ca, &text, chunks, Executor::Team(threads)).accepted);
        });
    }

    // Micro-ablations of the vectorized classifier and the strided walk
    // against their serial twins, in the same group so the CI smoke can
    // assert both floors from a single JSON. The single-run pairs run one
    // run from the start state over the whole text, as a first chunk
    // does, so they measure the lockstep kernel's strided walk against
    // the plain serial loop: on `bible`, and on `traffic`, whose wrong
    // guesses die inside a record and resync at the next one only by
    // re-seeding.
    let bible = standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "bible")
        .unwrap();
    let ab = build_artifacts(&bible);
    let btext = (ab.accepted)(TEXT_LEN, 42);
    group.throughput(Throughput::Bytes(btext.len() as u64));
    let classes = ab.dfa.classes();
    let mut class_out = vec![0u8; btext.len()];
    group.bench_function("classify_scalar", |b| {
        b.iter(|| classes.classify_into_scalar(&btext, &mut class_out));
    });
    group.bench_function("classify_simd", |b| {
        b.iter(|| classes.classify_into(&btext, &mut class_out));
    });
    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    for (prefix, dfa, text) in [("", &ab.dfa, &btext), ("traffic_", &a.dfa, &text)] {
        group.throughput(Throughput::Bytes(text.len() as u64));
        let ptable = dfa.premultiplied_table();
        let table = DenseTable {
            ptable: &ptable,
            stride: dfa.stride(),
            classes: dfa.classes(),
            start_row: dfa.start() as usize * dfa.stride(),
        };
        let start = dfa.start();
        for (label, kernel) in [
            ("single_run_scalar", Kernel::PerRun),
            ("single_run_strided", Kernel::LockstepShared),
        ] {
            group.bench_function(format!("{prefix}{label}"), |b| {
                b.iter(|| {
                    kernel::scan_into(
                        table,
                        std::iter::once((start, start)),
                        dfa.num_states(),
                        text,
                        kernel,
                        &mut scratch,
                        &mut NoCount,
                        &mut out,
                    )
                });
            });
        }
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    // The EnginePlan ablation: throughput of each first-class engine on
    // the workloads that pick it. `bigdata` is the convergent small
    // pattern where the Auto plan resolves to SFA (zero speculation must
    // beat the lockstep it replaces — CI asserts that floor); `bible`
    // and `traffic` have wide interfaces (26 and 121) whose trial SFA
    // builds trip the cap, so their Auto plan is feasible-start pruning,
    // benched both with even chunking and with record-separator snapped
    // spans (traffic texts are newline-framed syslog records).
    // Serial executor over the same chunk decomposition: at 256 KiB a
    // full thread team is memory-bound and every engine converges on the
    // bandwidth ceiling, hiding exactly the per-byte speculation cost
    // this ablation measures. Serial execution exposes the total reach
    // work (k speculative runs vs one SFA run vs the pruned subset).
    let chunks = 8;
    let budget = ConstructionBudget::with_max_states(plan::SFA_AUTO_MAX_STATES);
    let mut group = c.benchmark_group("ablation_engines");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for benchmark in standard_benchmarks() {
        if !matches!(benchmark.name, "bigdata" | "fasta" | "bible" | "traffic") {
            continue;
        }
        let a = build_artifacts(&benchmark);
        let text = (a.accepted)(TEXT_LEN, 42);
        group.throughput(Throughput::Bytes(text.len() as u64));
        let lockstep = RidCa::new(&a.rid).with_kernel(Kernel::Auto);
        group.bench_function(format!("{}_lockstep", a.name), |b| {
            b.iter(|| recognize(&lockstep, &text, chunks, Executor::Serial).accepted);
        });
        match Sfa::build_rid_budgeted(&a.rid, &budget) {
            Ok(sfa) => {
                let ca = SfaCa::new(&sfa);
                group.bench_function(format!("{}_sfa", a.name), |b| {
                    b.iter(|| recognize(&ca, &text, chunks, Executor::Serial).accepted);
                });
            }
            Err(_) => {
                // Function-space explosion: exactly why Auto falls back
                // to feasible-start on these workloads.
                assert!(
                    a.rid.interface().len() >= plan::FEASIBLE_MIN_INTERFACE,
                    "{}: SFA exploded but the interface is narrow — Auto would \
                     pick lockstep and this ablation loses its subject",
                    a.name
                );
            }
        }
        let table = FeasibleTable::build(&a.rid);
        let pruned = RidCa::new(&a.rid)
            .with_kernel(Kernel::Auto)
            .with_feasible(&table);
        group.bench_function(format!("{}_feasible", a.name), |b| {
            b.iter(|| recognize(&pruned, &text, chunks, Executor::Serial).accepted);
        });
        let mut spans = Vec::new();
        chunk_spans_snapped(&text, chunks, b'\n', &mut spans);
        group.bench_function(format!("{}_feasible_snapped", a.name), |b| {
            b.iter(|| recognize_spans(&pruned, &text, &spans, Executor::Serial).accepted);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_interface_minimization,
    bench_executor_shape,
    bench_sfa_comparator,
    bench_convergence,
    bench_kernels,
    bench_engines
);
criterion_main!(benches);

//! Table 3 — speedup of RID vs the DFA and NFA variants of CSDPA, plus
//! transition ratios, at maximum text size.
//!
//! ```text
//! cargo run -p ridfa-bench --bin table3 --release [-- --threads N --full --reps R]
//! ```
//!
//! Paper shape to reproduce: `bigdata`, `fasta`, `traffic` *even*
//! (DFA/RID ≈ 1 ± 10% in both time and transitions); `bible`, `regexp`
//! *winning* (both ratios ≫ 1); the NFA variant loses everywhere by a
//! large factor. The paper ran 58 threads on a 64-core EPYC; scale
//! `--threads` to your machine — the *ratios* are what matters.

#![deny(unsafe_code)]

use ridfa_bench::table::{mb, ratio};
use ridfa_bench::{build_artifacts, median_duration, speedup, Args, Table};
use ridfa_core::csdpa::{recognize, recognize_counted, DfaCa, Executor, NfaCa, RidCa};
use ridfa_workloads::standard_benchmarks;

fn main() {
    let args = Args::parse();
    let threads = args.threads();
    // The paper cuts each text into 58 chunks (one per thread on its
    // 64-core box). Keep the chunk count at 58 regardless of local cores:
    // the variant-vs-variant ratios measure speculative *work*, which is
    // what must reproduce.
    let chunks: usize = args.get_or("chunks", 58);
    let reps = args.reps();
    let executor = Executor::Team(threads);

    println!(
        "Table 3: speedup of RID vs CSDPA variants ({} chunks, {} threads, {} reps, {} text sizes)",
        chunks,
        threads,
        reps,
        if args.has("full") { "paper" } else { "default" }
    );
    let mut table = Table::new(&[
        "benchmark",
        "group",
        "DFA/RID time",
        "NFA/RID time",
        "DFA/RID trans",
        "NFA/RID trans",
        "text (MB)",
    ]);

    for b in standard_benchmarks() {
        let a = build_artifacts(&b);
        let len = if args.has("full") {
            a.paper_len
        } else {
            (a.default_len as f64 * args.scale()) as usize
        };
        let text = (a.accepted)(len, args.seed());
        let dfa_ca = DfaCa::new(&a.dfa);
        let nfa_ca = NfaCa::new(&a.nfa);
        let rid_ca = RidCa::new(&a.rid);

        // Correctness cross-check before timing anything.
        let expect = a.dfa.accepts(&text);
        let rid_out = recognize(&rid_ca, &text, chunks, executor);
        let dfa_out = recognize(&dfa_ca, &text, chunks, executor);
        let nfa_out = recognize(&nfa_ca, &text, chunks, executor);
        assert!(
            expect && rid_out.accepted && dfa_out.accepted && nfa_out.accepted,
            "{}: all variants must accept the generated text",
            a.name
        );

        let t_dfa = median_duration(reps, || {
            recognize(&dfa_ca, &text, chunks, executor);
        });
        let t_nfa = median_duration(reps, || {
            recognize(&nfa_ca, &text, chunks, executor);
        });
        let t_rid = median_duration(reps, || {
            recognize(&rid_ca, &text, chunks, executor);
        });

        let c_dfa = recognize_counted(&dfa_ca, &text, chunks, executor).transitions;
        let c_nfa = recognize_counted(&nfa_ca, &text, chunks, executor).transitions;
        let c_rid = recognize_counted(&rid_ca, &text, chunks, executor).transitions;

        table.row(&[
            a.name.to_string(),
            format!("{:?}", a.group).to_lowercase(),
            ratio(speedup(t_dfa, t_rid)),
            ratio(speedup(t_nfa, t_rid)),
            ratio(c_dfa as f64 / c_rid.max(1) as f64),
            ratio(c_nfa as f64 / c_rid.max(1) as f64),
            mb(text.len()),
        ]);
    }
    table.print();
    println!("(speedup = exec time of variant / exec time of RID; paper Tab. 3)");
}

//! Figure 7 — transition ratios (DFA/RI-DFA and NFA/RI-DFA) as a function
//! of text size, for the winning benchmarks, texts divided in 32 chunks.
//!
//! ```text
//! cargo run -p ridfa-bench --bin fig7 --release -- bible   # Fig. 7a
//! cargo run -p ridfa-bench --bin fig7 --release -- regexp  # Fig. 7b
//! cargo run -p ridfa-bench --bin fig7 --release            # both + even group
//! ```
//!
//! Paper shape: both ratios ≫ 1 for `bible`/`regexp` and nearly
//! independent of text length; ≈ 1 for the even group (which the paper
//! omits from the plots as uninformative).

#![deny(unsafe_code)]

use ridfa_bench::table::{mb, ratio};
use ridfa_bench::{build_artifacts, Args, Table};
use ridfa_core::csdpa::{recognize_counted, DfaCa, Executor, NfaCa, RidCa};
use ridfa_workloads::standard_benchmarks;

/// The paper's mid-range chunk count for this figure.
const CHUNKS: usize = 32;

fn main() {
    let args = Args::parse();
    let only: Option<&str> = args.positional.first().map(|s| s.as_str());
    let executor = Executor::Team(args.threads());

    for b in standard_benchmarks() {
        if let Some(name) = only {
            if name != b.name {
                continue;
            }
        }
        let a = build_artifacts(&b);
        let dfa_ca = DfaCa::new(&a.dfa);
        let nfa_ca = NfaCa::new(&a.nfa);
        let rid_ca = RidCa::new(&a.rid);
        println!(
            "Fig. 7 series for {} ({} chunks): ratio of transition counts over RI-DFA",
            a.name, CHUNKS
        );
        let mut table = Table::new(&["text (MB)", "DFA/RID", "NFA/RID", "RID transitions"]);
        let base = if args.has("full") {
            a.paper_len
        } else {
            (a.default_len as f64 * args.scale()) as usize
        };
        // Six sizes, as in the paper's plots.
        for step in 1..=6usize {
            let len = base * step / 6;
            let text = (a.accepted)(len.max(1024), args.seed());
            let c_dfa = recognize_counted(&dfa_ca, &text, CHUNKS, executor).transitions;
            let c_nfa = recognize_counted(&nfa_ca, &text, CHUNKS, executor).transitions;
            let c_rid = recognize_counted(&rid_ca, &text, CHUNKS, executor).transitions;
            table.row(&[
                mb(text.len()),
                ratio(c_dfa as f64 / c_rid.max(1) as f64),
                ratio(c_nfa as f64 / c_rid.max(1) as f64),
                c_rid.to_string(),
            ]);
        }
        table.print();
        println!();
    }
}

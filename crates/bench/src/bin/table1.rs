//! Table 1 — the benchmark inventory.
//!
//! ```text
//! cargo run -p ridfa-bench --bin table1 --release
//! ```
//!
//! Prints, per benchmark: the number of NFAs, NFA states, the minimal-DFA
//! and RI-DFA sizes our constructions produce, and the default / paper
//! text lengths.

#![deny(unsafe_code)]

use ridfa_bench::table::mb;
use ridfa_bench::{build_artifacts, Args, Table};
use ridfa_workloads::ondrik::OndrikConfig;
use ridfa_workloads::standard_benchmarks;

fn main() {
    let args = Args::parse();
    let mut table = Table::new(&[
        "name",
        "NFAs",
        "NFA states",
        "min-DFA",
        "RI-DFA states",
        "interface",
        "text (MB)",
        "paper text (MB)",
    ]);
    for b in standard_benchmarks() {
        let a = build_artifacts(&b);
        table.row(&[
            a.name.to_string(),
            "1".into(),
            a.nfa.num_states().to_string(),
            a.dfa.num_live_states().to_string(),
            a.rid.num_live_states().to_string(),
            a.rid.interface().len().to_string(),
            mb(a.default_len),
            mb(a.paper_len),
        ]);
    }
    let ondrik = OndrikConfig::default();
    table.row(&[
        "ondrik".into(),
        ondrik.num_machines.to_string(),
        format!("{}-{} (range)", ondrik.state_range.0, ondrik.state_range.1),
        "-".into(),
        "-".into(),
        "-".into(),
        "none".into(),
        "none".into(),
    ]);
    println!("Table 1: benchmarks (synthetic stand-ins, see DESIGN.md)");
    table.print();
    if args.has("verbose") {
        println!("\npatterns:");
        println!(
            "  regexp : (a|b)*a(a|b)^{}",
            ridfa_workloads::spec::REGEXP_K
        );
        println!("  bible  : {}", ridfa_workloads::bible::pattern());
        println!("  fasta  : {}", ridfa_workloads::fasta::pattern());
        println!("  traffic: {}", ridfa_workloads::traffic::pattern());
        println!("  bigdata: {}", ridfa_workloads::bigdata::ast());
    }
}

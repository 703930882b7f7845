//! Figure 8 — speedup of RID vs the DFA variant, as a function of the
//! number of threads (= chunks) and of the text size.
//!
//! ```text
//! cargo run -p ridfa-bench --bin fig8 --release -- bible threads    # Fig. 8a
//! cargo run -p ridfa-bench --bin fig8 --release -- regexp threads   # Fig. 8b
//! cargo run -p ridfa-bench --bin fig8 --release -- bible textsize   # Fig. 8c
//! cargo run -p ridfa-bench --bin fig8 --release -- regexp textsize  # Fig. 8d
//! cargo run -p ridfa-bench --bin fig8 --release                     # all four
//! ```
//!
//! Paper shapes: speedup *decreases* as a fixed text is cut into more
//! (shorter) chunks — per-chunk management overhead grows; speedup
//! *increases* with text length at a fixed chunk count. The paper sweeps
//! 2..=66 threads on a 64-core machine; sweep points beyond your core
//! count still run (threads multiplex) but measure oversubscription.

#![deny(unsafe_code)]

use ridfa_bench::table::{mb, ratio};
use ridfa_bench::{build_artifacts, median_duration, speedup, Args, Table};
use ridfa_core::csdpa::{recognize, DfaCa, Executor, RidCa};
use ridfa_workloads::standard_benchmarks;

fn main() {
    let args = Args::parse();
    let which: Option<&str> = args.positional.first().map(|s| s.as_str());
    let mode: Option<&str> = args.positional.get(1).map(|s| s.as_str());
    let reps = args.reps();

    for b in standard_benchmarks() {
        if !matches!(b.group, ridfa_workloads::Group::Winning) {
            continue;
        }
        if let Some(name) = which {
            if name != b.name {
                continue;
            }
        }
        let a = build_artifacts(&b);
        let dfa_ca = DfaCa::new(&a.dfa);
        let rid_ca = RidCa::new(&a.rid);
        let base = if args.has("full") {
            a.paper_len
        } else {
            (a.default_len as f64 * args.scale()) as usize
        };

        if mode.is_none() || mode == Some("threads") {
            // Fig. 8a/8b: fixed max text, sweep thread counts 2,10,…,66
            // (capped by --max-threads, default 2× the machine's cores).
            let text = (a.accepted)(base, args.seed());
            let max_threads: usize = args.get_or("max-threads", 2 * args.threads());
            println!(
                "Fig. 8 ({}, {} MB): speedup of RID vs DFA, sweeping threads",
                a.name,
                mb(text.len())
            );
            let mut table = Table::new(&["threads", "speedup DFA/RID", "RID reach (ms)"]);
            let mut c = 2usize;
            while c <= max_threads.max(2) {
                let executor = Executor::Team(c);
                let t_dfa = median_duration(reps, || {
                    recognize(&dfa_ca, &text, c, executor);
                });
                let t_rid = median_duration(reps, || {
                    recognize(&rid_ca, &text, c, executor);
                });
                table.row(&[
                    c.to_string(),
                    ratio(speedup(t_dfa, t_rid)),
                    format!("{:.2}", t_rid.as_secs_f64() * 1e3),
                ]);
                c += 8; // the paper's 2, 10, 18, … grid
            }
            table.print();
            println!();
        }

        if mode.is_none() || mode == Some("textsize") {
            // Fig. 8c/8d: fixed chunk count (the paper's 58), sweep text
            // sizes. The worker-team size follows the machine.
            let chunks: usize = args.get_or("chunks", 58);
            let threads = args.threads();
            println!(
                "Fig. 8 ({}, {} chunks, {} threads): speedup of RID vs DFA, sweeping text size",
                a.name, chunks, threads
            );
            let executor = Executor::Team(threads);
            let mut table = Table::new(&["text (MB)", "speedup DFA/RID", "RID reach (ms)"]);
            for step in 1..=6usize {
                let len = (base * step / 6).max(1024);
                let text = (a.accepted)(len, args.seed());
                let t_dfa = median_duration(reps, || {
                    recognize(&dfa_ca, &text, chunks, executor);
                });
                let t_rid = median_duration(reps, || {
                    recognize(&rid_ca, &text, chunks, executor);
                });
                table.row(&[
                    mb(text.len()),
                    ratio(speedup(t_dfa, t_rid)),
                    format!("{:.2}", t_rid.as_secs_f64() * 1e3),
                ]);
            }
            table.print();
            println!();
        }
    }
}

//! Section 4.5 — construction time of RI-DFA vs DFA over the Ondrik
//! collection, and total state counts.
//!
//! ```text
//! cargo run -p ridfa-bench --bin construction --release [-- --machines N]
//! ```
//!
//! Paper numbers (full-scale collection): NFA→RI-DFA over NFA→DFA time
//! ratio ≈ 20 (far below the worst case of |Q|avg ≈ 2490 powersets);
//! total states NFA 2 699 411, DFA 1 485 483, RI-DFA 6 753 792. The
//! synthetic collection is smaller, but the *shape* must match: the time
//! ratio stays a small multiple, far below the per-machine state count,
//! and the RI-DFA state total exceeds the DFA total which is of the same
//! order as the NFA total.

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

use ridfa_automata::dfa::powerset;
use ridfa_bench::{Args, Table};
use ridfa_core::ridfa;
use ridfa_workloads::ondrik::{collection, OndrikConfig};

fn main() {
    let args = Args::parse();
    let config = OndrikConfig {
        num_machines: args.get_or("machines", 1084),
        state_range: (args.get_or("min-states", 24), args.get_or("max-states", 96)),
        seed: args.seed(),
        ..OndrikConfig::default()
    };
    let dfa_budget: usize = args.get_or("dfa-budget", 50_000);

    let machines = collection(&config);
    let mut nfa_states = 0usize;
    let mut dfa_states = 0usize;
    let mut rid_states = 0usize;
    let mut rid_interface = 0usize;
    let mut t_dfa = Duration::ZERO;
    let mut t_rid = Duration::ZERO;
    let mut skipped = 0usize;

    for nfa in &machines {
        // Time the plain determinization.
        let t0 = Instant::now();
        let dfa = match powerset::determinize_limited(nfa, dfa_budget) {
            Ok(dfa) => dfa,
            Err(_) => {
                skipped += 1;
                continue;
            }
        };
        t_dfa += t0.elapsed();

        // Time the incremental RI-DFA construction + interface reduction.
        let t1 = Instant::now();
        let rid = ridfa::construct(nfa).minimized();
        t_rid += t1.elapsed();

        nfa_states += nfa.num_states();
        dfa_states += dfa.num_live_states();
        rid_states += rid.num_live_states();
        rid_interface += rid.interface().len();
    }

    println!(
        "Sect. 4.5: construction over {} machines ({} skipped: DFA > {})",
        machines.len(),
        skipped,
        dfa_budget
    );
    let mut table = Table::new(&["quantity", "NFA", "DFA", "RI-DFA"]);
    table.row(&[
        "total states".into(),
        nfa_states.to_string(),
        dfa_states.to_string(),
        rid_states.to_string(),
    ]);
    table.row(&[
        "total interface".into(),
        nfa_states.to_string(),
        dfa_states.to_string(),
        rid_interface.to_string(),
    ]);
    table.row(&[
        "construction time".into(),
        "-".into(),
        format!("{:.3} s", t_dfa.as_secs_f64()),
        format!("{:.3} s", t_rid.as_secs_f64()),
    ]);
    table.print();
    let ratio = t_rid.as_secs_f64() / t_dfa.as_secs_f64().max(1e-12);
    let avg_states = nfa_states as f64 / (machines.len() - skipped).max(1) as f64;
    println!(
        "time ratio RI-DFA / DFA = {ratio:.1}  (worst-case bound would be |Q|avg = {avg_states:.0})"
    );
}

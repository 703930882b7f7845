//! Table 2 — distribution of the Ondrik machines with respect to the
//! number of initial states.
//!
//! ```text
//! cargo run -p ridfa-bench --bin table2 --release [-- --machines N --min-states A --max-states B]
//! ```
//!
//! For every machine of the (synthetic) Ondrik collection this computes
//! the ratio of NFA states over minimal-DFA states, and of RI-DFA
//! *interface* states (after interface minimization) over minimal-DFA
//! states, then buckets both into the paper's 0.1-wide intervals.
//!
//! Paper shape to reproduce: *all* RI-DFA ratios < 1 (the interface never
//! exceeds the DFA), the bulk of the mass in the low buckets, and a small
//! NFA tail above 1.

#![deny(unsafe_code)]

use ridfa_automata::dfa::{minimize, powerset};
use ridfa_bench::{Args, Table};
use ridfa_core::ridfa::RiDfa;
use ridfa_workloads::ondrik::{collection, OndrikConfig};

fn main() {
    let args = Args::parse();
    let defaults = OndrikConfig::default();
    let config = OndrikConfig {
        num_machines: args.get_or("machines", 1084),
        state_range: (args.get_or("min-states", 24), args.get_or("max-states", 96)),
        density_percent: args.get_or("density", defaults.density_percent),
        jump_percent: args.get_or("jump", defaults.jump_percent),
        gadget_percent: args.get_or("gadget", defaults.gadget_percent),
        duplicate_percent_max: args.get_or("dup", defaults.duplicate_percent_max),
        final_percent: args.get_or("finals", defaults.final_percent),
        seed: args.seed(),
        ..defaults
    };
    // Machines whose powerset would explode past this bound are skipped
    // and reported (the real collection is curated similarly).
    let dfa_budget: usize = args.get_or("dfa-budget", 50_000);

    let mut nfa_buckets = Buckets::default();
    let mut rid_buckets = Buckets::default();
    let mut skipped = 0usize;
    let machines = collection(&config);
    for nfa in &machines {
        let Ok(dfa) = powerset::determinize_limited(nfa, dfa_budget) else {
            skipped += 1;
            continue;
        };
        let min = minimize::minimize(&dfa);
        let dfa_states = min.num_live_states();
        if dfa_states == 0 {
            skipped += 1;
            continue;
        }
        let rid = RiDfa::from_nfa(nfa).minimized();
        nfa_buckets.add(nfa.num_states() as f64 / dfa_states as f64);
        rid_buckets.add(rid.interface().len() as f64 / dfa_states as f64);
    }

    println!(
        "Table 2: initial-state ratio distribution over {} machines ({} skipped: DFA > {} states)",
        machines.len(),
        skipped,
        dfa_budget
    );
    let mut table = Table::new(&["interval", "NFA", "RI-DFA"]);
    for (label, n, r) in nfa_buckets.rows(&rid_buckets) {
        table.row(&[label, n.to_string(), r.to_string()]);
    }
    table.print();
    let measured = machines.len() - skipped;
    println!(
        "subtotal < 1: NFA {} ({:.1}%)   RI-DFA {} ({:.1}%)",
        nfa_buckets.below_one(),
        100.0 * nfa_buckets.below_one() as f64 / measured.max(1) as f64,
        rid_buckets.below_one(),
        100.0 * rid_buckets.below_one() as f64 / measured.max(1) as f64,
    );
    println!(
        "subtotal ≥ 1: NFA {} ({:.1}%)   RI-DFA {} ({:.1}%)",
        nfa_buckets.at_least_one(),
        100.0 * nfa_buckets.at_least_one() as f64 / measured.max(1) as f64,
        rid_buckets.at_least_one(),
        100.0 * rid_buckets.at_least_one() as f64 / measured.max(1) as f64,
    );
}

/// The paper's 0.1-wide intervals, plus open-ended end buckets so no
/// machine is silently dropped.
#[derive(Default)]
struct Buckets {
    below_half: usize,
    tenths: [usize; 9], // 0.5–0.6 … 1.3–1.4
    above: usize,
}

impl Buckets {
    fn add(&mut self, ratio: f64) {
        if ratio < 0.5 {
            self.below_half += 1;
        } else if ratio >= 1.4 {
            self.above += 1;
        } else {
            let idx = ((ratio - 0.5) / 0.1).floor() as usize;
            self.tenths[idx.min(8)] += 1;
        }
    }

    fn below_one(&self) -> usize {
        self.below_half + self.tenths[..5].iter().sum::<usize>()
    }

    fn at_least_one(&self) -> usize {
        self.tenths[5..].iter().sum::<usize>() + self.above
    }

    fn rows(&self, other: &Buckets) -> Vec<(String, usize, usize)> {
        let mut rows = vec![("< 0.5".to_string(), self.below_half, other.below_half)];
        for i in 0..9 {
            let lo = 0.5 + 0.1 * i as f64;
            rows.push((
                format!("{:.1} - {:.1}", lo, lo + 0.1),
                self.tenths[i],
                other.tenths[i],
            ));
        }
        rows.push(("≥ 1.4".to_string(), self.above, other.above));
        rows
    }
}

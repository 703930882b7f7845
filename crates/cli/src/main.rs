//! `ridfa` — command-line generator / recognizer / test driver, mirroring
//! the paper's Java tool (Sect. 4: "a generator of the RI-DFA automaton
//! from either an RE or an FA, a parallel recognizer for recognizing user
//! supplied texts, and a test driver to measure performance").
//!
//! ```text
//! ridfa gen --regex '(a|b)*abb' --out machine.nfa      # RE → NFA (text format)
//! ridfa info --regex '(a|b)*abb'                       # construction report
//! ridfa recognize --regex '(a|b)*abb' --text input.txt --variant rid --chunks 8
//! ridfa recognize --regex '(a|b)*abb' --text input.txt --pool  # warm session
//! ridfa drive --regex '(a|b)*abb' --text input.txt     # compare all variants
//! ridfa serve --requests 1024 --len 2048               # batch/serving mode
//! ridfa compile --regex '(a|b)*abb' --out p.rida       # RE → binary artifact
//! ridfa serve --listen 127.0.0.1:0 --patterns pats.txt # network serving mode
//! ridfa query --connect 127.0.0.1:4041 --pattern p --text input.txt
//! ridfa help
//! ```

#![deny(unsafe_code)]

use std::io::Read;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ridfa_automata::dfa::{minimize, powerset, Dfa};
use ridfa_automata::nfa::{glushkov, Nfa};
use ridfa_automata::serialize::binary;
use ridfa_automata::{regex, serialize, ConstructionBudget};
use ridfa_core::csdpa::{
    recognize_counted, resident_footprint, Budget, ChunkAutomaton, CountedOutcome, DfaCa, Engine,
    EnginePlan, Executor, Kernel, NfaCa, Outcome, RecognizeError, RegistryConfig, RidCa, Session,
    StreamError, StreamOutcome, StreamSession,
};
use ridfa_core::parallel::ThreadPool;
use ridfa_core::ridfa::{ridfa_from_bytes, ridfa_to_bytes, ridfa_to_bytes_with_engine, RiDfa};
use ridfa_core::serve::{protocol, ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(|s| s.as_str()) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Opts::parse(&args[1..])
        .map_err(CliError::Usage)
        .and_then(|opts| match command {
            "gen" => cmd_gen(&opts),
            "info" => cmd_info(&opts),
            "recognize" => cmd_recognize(&opts),
            "drive" => cmd_drive(&opts),
            "serve" => cmd_serve(&opts),
            "compile" => cmd_compile(&opts),
            "inspect-artifact" => cmd_inspect_artifact(&opts),
            "query" => cmd_query(&opts),
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(CliError::Usage(format!(
                "unknown command {other:?}\n{USAGE}"
            ))),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => error.report(),
    }
}

/// Typed CLI failure: each category carries a distinct exit code, so a
/// caller can tell a rejected text from a broken reader from an expired
/// deadline without parsing stderr.
enum CliError {
    /// The text is simply not in the language (exit 1) — mirrors `grep`.
    Rejected,
    /// Bad flags, patterns, or configuration (exit 2).
    Usage(String),
    /// The reader or filesystem failed (exit 3).
    Io(String),
    /// The `--timeout-ms` deadline expired, or the run was cancelled
    /// (exit 4).
    Interrupted(String),
    /// A `--max-states` construction budget was exhausted (exit 5).
    Budget(String),
    /// A contained internal fault (exit 6) — reported, never re-thrown.
    Internal(String),
}

/// Plain-`String` errors from helpers are configuration-level.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Usage(message)
    }
}

impl CliError {
    /// Prints the one-line message and yields the process exit code.
    fn report(self) -> ExitCode {
        let (code, message) = match self {
            CliError::Rejected => (1, "text rejected".into()),
            CliError::Usage(m) => (2, m),
            CliError::Io(m) => (3, m),
            CliError::Interrupted(m) => (4, m),
            CliError::Budget(m) => (5, m),
            CliError::Internal(m) => (6, m),
        };
        eprintln!("error: {message}");
        ExitCode::from(code)
    }
}

fn recognize_error(error: RecognizeError) -> CliError {
    match error {
        RecognizeError::DeadlineExceeded => {
            CliError::Interrupted("deadline exceeded (--timeout-ms)".into())
        }
        RecognizeError::Cancelled => CliError::Interrupted("recognition cancelled".into()),
        RecognizeError::Panicked(m) => CliError::Internal(format!("contained panic: {m}")),
    }
}

fn stream_error(error: StreamError) -> CliError {
    match error {
        StreamError::Io(e) => CliError::Io(e.to_string()),
        StreamError::DeadlineExceeded => {
            CliError::Interrupted("deadline exceeded (--timeout-ms)".into())
        }
        StreamError::Cancelled => CliError::Interrupted("recognition cancelled".into()),
        StreamError::Panicked(m) => CliError::Internal(format!("contained panic: {m}")),
    }
}

const USAGE: &str = "\
ridfa — parallel recognizer for regular texts with minimal speculation

USAGE:
  ridfa gen        --regex PATTERN [--out FILE]        print/save the NFA
  ridfa info       (--regex PATTERN | --nfa FILE | --workload NAME)
                                                       construction report
  ridfa recognize  (--regex PATTERN | --nfa FILE | --workload NAME)
                   --text FILE
                   [--variant dfa|nfa|rid|convergent-dfa|convergent-rid]
                   [--chunks N] [--threads N] [--pool]  recognize one text
                   [--timeout-ms MS] [--max-states N]   …under a deadline /
                                                        construction cap
                   [--stream] [--block-size BYTES]      …or recognize the
                                                        text as a bounded-
                                                        memory stream (the
                                                        file/stdin is never
                                                        loaded whole)
                   [--separator BYTE]                   snap stream blocks
                                                        back to the last
                                                        record separator
                                                        so speculative runs
                                                        start on record
                                                        boundaries
  ridfa drive      (--regex PATTERN | --nfa FILE | --workload NAME)
                   --text FILE [--chunks N] [--pool]    compare all variants
  ridfa serve      [--requests N] [--len BYTES] [--chunks N] [--threads N]
                   [--variant ...] [--no-pool]          batch-recognize a
                                                        generated syslog
                                                        stream (workloads::
                                                        traffic) through a
                                                        warm session
                   [--stream] [--bytes N]               …or validate one
                   [--block-size BYTES]                 N-byte generated
                                                        record pipe through
                                                        a StreamSession
  ridfa serve      --listen ADDR --patterns FILE        network serving mode:
                   [--max-requests N] [--deadline-ms MS] bind ADDR (port 0
                   [--idle-ms MS] [--max-body BYTES]    picks a free port),
                   [--threads N] [--block-size BYTES]   load the pattern
                   [--max-states N] [--max-table-bytes N] file, serve until
                   [--shards N]                         the request quota;
                                                        N loop threads, each
                                                        with its own registry
                                                        replica
                   [--reload-ms MS]                     watch the pattern
                                                        file, hot-reload
                                                        edits into running
                                                        shards
                   [--offload-bytes BYTES]              bodies above BYTES
                                                        scan in bounded
                                                        slices off the tick
                                                        (big bodies never
                                                        stall small ones)
  ridfa compile    (--regex PATTERN | --nfa FILE | --workload NAME)
                   --out FILE [--kind ridfa|dfa]        build the (minimized)
                   [--max-states N]                     automaton once, seal
                                                        it as a checksummed
                                                        binary artifact
                   [--engine auto|lockstep|sfa|feasible] resolve the engine
                   [--separator BYTE]                   plan now and bake its
                                                        tables (SFA /
                                                        feasible-start) into
                                                        the artifact; servers
                                                        load them instead of
                                                        re-deriving
  ridfa inspect-artifact --file FILE                    validate + describe
                                                        an artifact
  ridfa query      --connect ADDR --pattern ID          request(s) against a
                   --text FILE [--repeat N]             running server; C
                   [--concurrency C]                    connections × N
                                                        pipelined requests;
                                                        exit code = worst
                                                        verdict seen
  ridfa help

A `--patterns FILE` holds one pattern per line: `ID REGEX`, or
`ID @FILE.rida` to load a compiled artifact (cold start without any
powerset construction). Blank lines and `#` comments are skipped.

`--pool` recognizes through a persistent Session (no thread spawn per
text, warm per-worker scan state) instead of spawning threads per call.
`--stream` reads fixed-size blocks through a reusable ring and composes
chunk mappings eagerly: live memory is O(threads × block-size) no matter
how large the input. `--workload traffic|bible` uses a built-in benchmark
pattern instead of --regex/--nfa.

`--timeout-ms MS` bounds wall time: recognition past the deadline stops
at the next 4 KiB block boundary with exit code 4, never a partial
verdict. `--max-states N` caps every automaton construction; exceeding
it is exit code 5 instead of an OOM kill.

Exit codes: 0 = accepted · 1 = rejected · 2 = usage/config error ·
3 = I/O error · 4 = deadline exceeded or cancelled · 5 = construction
budget exceeded · 6 = contained internal fault.";

struct Opts {
    flags: Vec<(String, String)>,
}

impl Opts {
    /// Parses `--name [value]` pairs. A following token that itself
    /// starts with `--` is **not** consumed as a value (it is the next
    /// flag; the previous flag simply has no value), and stray
    /// positional tokens are rejected.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {arg:?} (options are --name [value])"
                ));
            };
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            flags.push((name.to_string(), value));
        }
        Ok(Opts { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Is the boolean flag present (with or without a value)?
    fn get_bool(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The flag's value, requiring one if the flag is present at all
    /// (`--text --variant rid` errors instead of silently reading a file
    /// named `--variant`).
    fn get_value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.get(name) {
            Some("") => Err(format!("flag --{name} requires a value")),
            other => Ok(other),
        }
    }

    /// Numeric flag with a default; malformed numbers are an error, not
    /// a silent fallback.
    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get_value(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                format!("invalid value for --{name}: {v:?} (expected a non-negative integer)")
            }),
        }
    }
}

/// Loads the NFA from `--regex`, `--nfa`, or a built-in `--workload`.
fn load_nfa(opts: &Opts) -> Result<Nfa, CliError> {
    if let Some(pattern) = opts.get_value("regex")? {
        let ast = regex::parse(pattern).map_err(|e| e.to_string())?;
        return glushkov::build(&ast).map_err(|e| CliError::Usage(e.to_string()));
    }
    if let Some(path) = opts.get_value("nfa")? {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        return serialize::nfa_from_text(&text).map_err(|e| CliError::Usage(e.to_string()));
    }
    if let Some(name) = opts.get_value("workload")? {
        return match name {
            "traffic" => Ok(ridfa_workloads::traffic::nfa()),
            "bible" => Ok(ridfa_workloads::bible::nfa()),
            other => Err(CliError::Usage(format!(
                "unknown workload {other:?} (traffic|bible)"
            ))),
        };
    }
    Err(CliError::Usage(
        "need --regex PATTERN, --nfa FILE, or --workload NAME".into(),
    ))
}

fn load_text(opts: &Opts) -> Result<Vec<u8>, CliError> {
    match opts.get_value("text")? {
        Some("-") => {
            let mut buffer = Vec::new();
            std::io::stdin()
                .lock()
                .read_to_end(&mut buffer)
                .map_err(|e| CliError::Io(e.to_string()))?;
            Ok(buffer)
        }
        Some(path) => std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}"))),
        None => Err(CliError::Usage(
            "need --text FILE (or --text - for stdin)".into(),
        )),
    }
}

/// `--timeout-ms` as a recognition budget (absent → no deadline).
fn timeout_budget(opts: &Opts) -> Result<Option<Budget>, String> {
    match opts.get_value("timeout-ms")? {
        None => Ok(None),
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| {
                format!("invalid value for --timeout-ms: {v:?} (expected milliseconds)")
            })?;
            Ok(Some(Budget::with_timeout(Duration::from_millis(ms))))
        }
    }
}

/// `--max-states` as a construction budget (absent → unbudgeted).
fn construction_budget(opts: &Opts) -> Result<Option<ConstructionBudget>, String> {
    match opts.get_value("max-states")? {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(ConstructionBudget::with_max_states(n))),
            _ => Err(format!(
                "invalid value for --max-states: {v:?} (expected an integer ≥ 1)"
            )),
        },
    }
}

/// Builds the minimized RI-DFA, honoring `--max-states`.
fn build_rid(nfa: &Nfa, opts: &Opts) -> Result<RiDfa, CliError> {
    Ok(match construction_budget(opts)? {
        None => RiDfa::from_nfa(nfa),
        Some(budget) => {
            RiDfa::from_nfa_budgeted(nfa, &budget).map_err(|e| CliError::Budget(e.to_string()))?
        }
    }
    .minimized())
}

/// Builds the minimal DFA, honoring `--max-states`.
fn build_dfa(nfa: &Nfa, opts: &Opts) -> Result<Dfa, CliError> {
    let dfa = match construction_budget(opts)? {
        None => powerset::determinize(nfa),
        Some(budget) => powerset::determinize_budgeted(nfa, &budget)
            .map_err(|e| CliError::Budget(e.to_string()))?,
    };
    Ok(minimize::minimize(&dfa))
}

fn cmd_gen(opts: &Opts) -> Result<(), CliError> {
    let nfa = load_nfa(opts)?;
    let text = serialize::nfa_to_text(&nfa);
    match opts.get_value("out")? {
        Some(path) => std::fs::write(path, text).map_err(|e| CliError::Io(format!("{path}: {e}"))),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_info(opts: &Opts) -> Result<(), CliError> {
    let nfa = load_nfa(opts)?;
    let cap = construction_budget(opts)?;
    let t0 = Instant::now();
    let dfa = match &cap {
        None => powerset::determinize(&nfa),
        Some(budget) => powerset::determinize_budgeted(&nfa, budget)
            .map_err(|e| CliError::Budget(e.to_string()))?,
    };
    let t_dfa = t0.elapsed();
    let t1 = Instant::now();
    let min = minimize::minimize(&dfa);
    let t_min = t1.elapsed();
    let t2 = Instant::now();
    let rid = match &cap {
        None => RiDfa::from_nfa(&nfa),
        Some(budget) => {
            RiDfa::from_nfa_budgeted(&nfa, budget).map_err(|e| CliError::Budget(e.to_string()))?
        }
    };
    let t_rid = t2.elapsed();
    let t3 = Instant::now();
    let rid_min = rid.minimized();
    let t_ridmin = t3.elapsed();

    println!(
        "NFA          : {} states, {} transitions",
        nfa.num_states(),
        nfa.num_transitions()
    );
    println!(
        "DFA          : {} live states        (powerset, {:.3} ms)",
        dfa.num_live_states(),
        t_dfa.as_secs_f64() * 1e3
    );
    println!(
        "minimal DFA  : {} live states        (Hopcroft, +{:.3} ms)",
        min.num_live_states(),
        t_min.as_secs_f64() * 1e3
    );
    println!(
        "RI-DFA       : {} live states, {} interface states ({:.3} ms)",
        rid.num_live_states(),
        rid.interface().len(),
        t_rid.as_secs_f64() * 1e3
    );
    println!(
        "RI-DFA (min) : interface reduced {} → {} (+{:.3} ms)",
        rid.interface().len(),
        rid_min.interface().len(),
        t_ridmin.as_secs_f64() * 1e3
    );
    println!(
        "speculation  : DFA variant starts {} runs/chunk, RID starts {} — {:.2}× fewer",
        min.num_live_states(),
        rid_min.interface().len(),
        min.num_live_states() as f64 / rid_min.interface().len().max(1) as f64
    );
    Ok(())
}

/// The chunk automaton a `--variant` names: the paper's classic DFA and
/// NFA CAs and the RID, the `convergent-*` names picking the adaptive
/// kernel instead of per-run scans.
enum Variant {
    Dfa(Kernel),
    Nfa,
    Rid(Kernel),
}

impl Variant {
    /// The `--variant` flag, `default` when absent.
    fn parse(opts: &Opts, default: &str) -> Result<Variant, CliError> {
        Ok(match opts.get_value("variant")?.unwrap_or(default) {
            "dfa" => Variant::Dfa(Kernel::PerRun),
            "nfa" => Variant::Nfa,
            "rid" => Variant::Rid(Kernel::PerRun),
            "convergent-dfa" => Variant::Dfa(Kernel::Auto),
            "convergent-rid" => Variant::Rid(Kernel::Auto),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown variant {other:?} (dfa|nfa|rid|convergent-dfa|convergent-rid)"
                )))
            }
        })
    }
}

/// Runs `$body` with `$ca` bound to the chunk automaton of `$variant`
/// over `$nfa`, building the DFA or RI-DFA it needs under `$opts`'
/// `--max-states` budget (`?` on a construction failure).
macro_rules! with_variant {
    ($variant:expr, $nfa:expr, $opts:expr, |$ca:ident| $body:expr) => {
        match $variant {
            Variant::Dfa(kernel) => {
                let dfa = build_dfa($nfa, $opts)?;
                let $ca = &DfaCa::new(&dfa).with_kernel(kernel);
                $body
            }
            Variant::Nfa => {
                let $ca = &NfaCa::new($nfa);
                $body
            }
            Variant::Rid(kernel) => {
                let rid = build_rid($nfa, $opts)?;
                let $ca = &RidCa::new(&rid).with_kernel(kernel);
                $body
            }
        }
    };
}

/// How a command's recognitions are executed: spawn threads per call, or
/// dispatch to a warm [`Session`].
enum Runner {
    Spawn(Executor),
    Pool(Session),
}

impl Runner {
    fn from_opts(opts: &Opts) -> Result<Runner, String> {
        let threads = opts.get_usize("threads", default_threads())?;
        Ok(Runner::new(opts.get_bool("pool"), threads))
    }

    fn new(pooled: bool, threads: usize) -> Runner {
        if pooled {
            // The session's caller thread participates in every reach
            // phase, so size the pool one below the requested width.
            Runner::Pool(Session::new(threads.saturating_sub(1).max(1)))
        } else {
            Runner::Spawn(Executor::Team(threads))
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Runner::Spawn(_) => "spawn",
            Runner::Pool(_) => "pooled",
        }
    }

    fn recognize<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        chunks: usize,
    ) -> CountedOutcome {
        match self {
            Runner::Spawn(executor) => recognize_counted(ca, text, chunks, *executor),
            Runner::Pool(session) => session.recognize_counted(ca, text, chunks),
        }
    }

    /// Recognizes under a deadline/cancellation budget; typed errors, no
    /// partial verdicts.
    fn recognize_budgeted<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        chunks: usize,
        budget: &Budget,
    ) -> Result<Outcome, RecognizeError> {
        match self {
            Runner::Spawn(executor) => {
                ridfa_core::csdpa::recognize_budgeted(ca, text, chunks, *executor, budget)
            }
            Runner::Pool(session) => session.recognize_budgeted(ca, text, chunks, budget),
        }
    }

    /// Pre-warms the pooled shape's per-worker state (no-op for spawn),
    /// so timed runs start from steady state.
    fn warm<CA: ChunkAutomaton>(&mut self, ca: &CA, sample: &[u8]) {
        if let Runner::Pool(session) = self {
            session.warm(ca, &sample[..sample.len().min(4096)]);
        }
    }

    /// Recognizes a whole stream, returning the accepted count — the
    /// pooled shape pipelines it as one `recognize_many` batch.
    fn recognize_batch<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        texts: &[Vec<u8>],
        chunks: usize,
    ) -> usize {
        match self {
            Runner::Spawn(executor) => texts
                .iter()
                .filter(|text| ridfa_core::csdpa::recognize(ca, text, chunks, *executor).accepted)
                .count(),
            Runner::Pool(session) => session
                .recognize_many(ca, texts, chunks)
                .iter()
                .filter(|&&v| v)
                .count(),
        }
    }
}

fn cmd_recognize(opts: &Opts) -> Result<(), CliError> {
    let nfa = load_nfa(opts)?;
    let variant = Variant::parse(opts, "rid")?;
    if opts.get_bool("stream") {
        return cmd_recognize_stream(opts, &nfa, variant);
    }
    let text = load_text(opts)?;
    let chunks = opts.get_usize("chunks", default_threads())?;
    let budget = timeout_budget(opts)?;
    let mut runner = Runner::from_opts(opts)?;

    let accepted = with_variant!(variant, &nfa, opts, |ca| {
        run(ca, &text, chunks, &mut runner, budget.as_ref())?
    });
    if accepted {
        Ok(())
    } else {
        Err(CliError::Rejected)
    }
}

/// Recognizes through the runner — budgeted (typed errors, no transition
/// counter) when `--timeout-ms` is set, the counted report otherwise.
fn run<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    chunks: usize,
    runner: &mut Runner,
    budget: Option<&Budget>,
) -> Result<bool, CliError> {
    let Some(budget) = budget else {
        return Ok(report(ca, text, chunks, runner));
    };
    let out = runner
        .recognize_budgeted(ca, text, chunks, budget)
        .map_err(recognize_error)?;
    println!(
        "{}: {} | {} bytes, {} chunks, via {:?}{}",
        ca.name(),
        if out.accepted { "ACCEPTED" } else { "REJECTED" },
        text.len(),
        out.num_chunks,
        out.executor,
        kernel_suffix(out.kernel),
    );
    Ok(out.accepted)
}

/// `", kernel <name>"` when the outcome records the scan strategy its
/// speculative chunk scans actually executed; empty otherwise. The name
/// is the *resolved* kernel — `auto` never appears here.
fn kernel_suffix(kernel: Option<Kernel>) -> String {
    kernel.map_or_else(String::new, |k| format!(", kernel {}", k.name()))
}

fn report<CA: ChunkAutomaton>(ca: &CA, text: &[u8], chunks: usize, runner: &mut Runner) -> bool {
    let out = runner.recognize(ca, text, chunks);
    // `out.executor` is the shape that actually ran, not the one asked
    // for — Executor::Pooled without a session degrades to Auto and says
    // so here.
    println!(
        "{}: {} | {} bytes, {} chunks, {} transitions, reach {:.3} ms, join {:.3} ms, via {:?}{}",
        ca.name(),
        if out.accepted { "ACCEPTED" } else { "REJECTED" },
        text.len(),
        out.num_chunks,
        out.transitions,
        out.reach.as_secs_f64() * 1e3,
        out.join.as_secs_f64() * 1e3,
        out.executor,
        kernel_suffix(out.kernel),
    );
    out.accepted
}

/// The `recognize --stream` path: never loads the text; reads the file or
/// stdin through a [`StreamSession`] in `--block-size` blocks.
fn cmd_recognize_stream(opts: &Opts, nfa: &Nfa, variant: Variant) -> Result<(), CliError> {
    if opts.get_bool("pool") {
        return Err(CliError::Usage(
            "--stream manages its own worker pool; drop --pool".into(),
        ));
    }
    let block_size = opts.get_usize("block-size", 1 << 20)?;
    if block_size == 0 {
        return Err(CliError::Usage(
            "invalid value for --block-size: 0 (expected ≥ 1)".into(),
        ));
    }
    let threads = opts.get_usize("threads", default_threads())?;
    let budget = timeout_budget(opts)?;
    let mut session = StreamSession::new(threads.saturating_sub(1).max(1), block_size);
    if let Some(v) = opts.get_value("separator")? {
        let sep = v.parse::<u8>().map_err(|_| {
            CliError::Usage(format!(
                "invalid value for --separator: {v:?} (expected a byte 0-255)"
            ))
        })?;
        session.set_separator(Some(sep));
    }

    let accepted = with_variant!(variant, nfa, opts, |ca| {
        stream_report(ca, opts, &mut session, budget.as_ref())?
    });
    if accepted {
        Ok(())
    } else {
        Err(CliError::Rejected)
    }
}

fn stream_report<CA: ChunkAutomaton>(
    ca: &CA,
    opts: &Opts,
    session: &mut StreamSession,
    budget: Option<&Budget>,
) -> Result<bool, CliError> {
    fn drive<CA: ChunkAutomaton>(
        ca: &CA,
        session: &mut StreamSession,
        reader: impl Read + Send,
        budget: Option<&Budget>,
    ) -> Result<StreamOutcome, CliError> {
        match budget {
            None => session
                .recognize_stream(ca, reader)
                .map_err(|e| CliError::Io(e.to_string())),
            Some(budget) => session
                .recognize_stream_budgeted(ca, reader, budget)
                .map_err(stream_error),
        }
    }
    let out = match opts.get_value("text")? {
        Some("-") => drive(ca, session, std::io::stdin(), budget)?,
        Some(path) => {
            let file =
                std::fs::File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            drive(ca, session, file, budget)?
        }
        None => {
            return Err(CliError::Usage(
                "need --text FILE (or --text - for stdin)".into(),
            ))
        }
    };
    print_stream_outcome(ca.name(), session, &out);
    Ok(out.accepted)
}

fn print_stream_outcome(name: &str, session: &StreamSession, out: &StreamOutcome) {
    let secs = out.elapsed.as_secs_f64().max(1e-9);
    println!(
        "{}: {} | streamed {} bytes in {} blocks of ≤{} KiB, {} transitions, \
         {:.1} MiB/s, compose {:.3} ms, ring {} KiB{}{}",
        name,
        if out.accepted { "ACCEPTED" } else { "REJECTED" },
        out.bytes,
        out.blocks,
        session.block_size() / 1024,
        out.transitions,
        out.bytes as f64 / secs / (1024.0 * 1024.0),
        out.compose.as_secs_f64() * 1e3,
        session.buffer_bytes() / 1024,
        kernel_suffix(out.kernel),
        if out.rejected_early {
            " (rejected early, rest of stream skipped)"
        } else {
            ""
        },
    );
}

fn cmd_drive(opts: &Opts) -> Result<(), CliError> {
    let nfa = load_nfa(opts)?;
    let text = load_text(opts)?;
    let chunks = opts.get_usize("chunks", default_threads())?;
    let mut runner = Runner::from_opts(opts)?;

    let dfa = build_dfa(&nfa, opts)?;
    let rid = build_rid(&nfa, opts)?;
    let verdicts = [
        report(&DfaCa::new(&dfa), &text, chunks, &mut runner),
        report(&NfaCa::new(&nfa), &text, chunks, &mut runner),
        report(&RidCa::new(&rid), &text, chunks, &mut runner),
        report(
            &DfaCa::new(&dfa).with_kernel(Kernel::Auto),
            &text,
            chunks,
            &mut runner,
        ),
        report(
            &RidCa::new(&rid).with_kernel(Kernel::Auto),
            &text,
            chunks,
            &mut runner,
        ),
    ];
    if verdicts.iter().any(|&v| v != verdicts[0]) {
        return Err(CliError::Internal(
            "variants disagree — this is a bug, please report".into(),
        ));
    }
    Ok(())
}

/// Batch/serving mode: generate `--requests` syslog texts with the
/// `traffic` workload generator and recognize them all through a warm
/// [`Session`] (one pipelined task stream), reporting aggregate
/// throughput and mean per-text latency. `--no-pool` recognizes each
/// text with the spawning executor instead, for comparison.
fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    if opts.get("listen").is_some() {
        return cmd_serve_listen(opts);
    }
    if opts.get_bool("stream") {
        return cmd_serve_stream(opts);
    }
    let requests = opts.get_usize("requests", 256)?;
    let len = opts.get_usize("len", 2048)?;
    let chunks = opts.get_usize("chunks", 4)?;
    let threads = opts.get_usize("threads", default_threads())?;
    let variant = Variant::parse(opts, "convergent-rid")?;
    let pooled = !opts.get_bool("no-pool");

    let nfa = ridfa_workloads::traffic::nfa();
    // One malformed record stream in eight keeps the rejection path warm.
    let texts = ridfa_workloads::traffic::request_stream(requests, len, 8);
    let total_bytes: usize = texts.iter().map(Vec::len).sum();

    let mut runner = Runner::new(pooled, threads);
    let accepted = with_variant!(variant, &nfa, opts, |ca| {
        serve(ca, &texts, chunks, &mut runner)
    });
    let expected = texts.len() - texts.len() / 8;
    if accepted != expected {
        return Err(CliError::Internal(format!(
            "acceptance mismatch: {accepted} accepted, expected {expected}"
        )));
    }
    println!(
        "serve: {} texts OK ({} accepted / {} rejected, {} bytes total)",
        texts.len(),
        accepted,
        texts.len() - accepted,
        total_bytes
    );
    Ok(())
}

/// Streaming serve mode: validate one long *generated* record pipe
/// (`workloads::traffic::RecordSource`) through a [`StreamSession`] —
/// the record stream is produced lazily and scanned in blocks, so
/// neither side ever holds more than O(threads × block-size) bytes. Runs
/// an accepted pipe and a corrupted (rejected) pipe, so both verdict
/// paths stay exercised.
fn cmd_serve_stream(opts: &Opts) -> Result<(), CliError> {
    let bytes = opts.get_usize("bytes", 64 << 20)? as u64;
    let block_size = opts.get_usize("block-size", 1 << 20)?;
    if block_size == 0 {
        return Err(CliError::Usage(
            "invalid value for --block-size: 0 (expected ≥ 1)".into(),
        ));
    }
    let threads = opts.get_usize("threads", default_threads())?;
    let variant = Variant::parse(opts, "convergent-rid")?;

    let nfa = ridfa_workloads::traffic::nfa();
    let mut session = StreamSession::new(threads.saturating_sub(1).max(1), block_size);
    with_variant!(variant, &nfa, opts, |ca| {
        serve_stream(ca, bytes, &mut session)
    })
}

fn serve_stream<CA: ChunkAutomaton>(
    ca: &CA,
    bytes: u64,
    session: &mut StreamSession,
) -> Result<(), CliError> {
    use ridfa_workloads::traffic::{text, RecordSource};

    session.warm(ca, &text(4096, 0));

    let out = session
        .recognize_stream(ca, RecordSource::new(bytes, 1))
        .map_err(|e| CliError::Io(e.to_string()))?;
    print_stream_outcome(ca.name(), session, &out);
    if !out.accepted {
        return Err(CliError::Internal(
            "conforming record pipe was rejected — this is a bug".into(),
        ));
    }

    // The rejection path: a short pipe with one malformed record. Records
    // are at most ~128 bytes, so index `reject_bytes / 256` is always
    // among the records the pipe actually emits.
    let reject_bytes = bytes.clamp(1, 1 << 20);
    let bad = session
        .recognize_stream(
            ca,
            RecordSource::with_corruption(reject_bytes, 2, reject_bytes / 256),
        )
        .map_err(|e| CliError::Io(e.to_string()))?;
    print_stream_outcome(ca.name(), session, &bad);
    if bad.accepted {
        return Err(CliError::Internal(
            "corrupted record pipe was accepted — this is a bug".into(),
        ));
    }
    println!(
        "serve --stream: OK ({} accepted bytes, corrupted pipe rejected{})",
        out.bytes,
        if bad.rejected_early { " early" } else { "" },
    );
    Ok(())
}

fn serve<CA: ChunkAutomaton>(
    ca: &CA,
    texts: &[Vec<u8>],
    chunks: usize,
    runner: &mut Runner,
) -> usize {
    if let Some(sample) = texts.first() {
        runner.warm(ca, sample);
    }
    let start = Instant::now();
    let accepted = runner.recognize_batch(ca, texts, chunks);
    let elapsed = start.elapsed();
    let total_bytes: usize = texts.iter().map(Vec::len).sum();
    println!(
        "{} [{}]: {} texts in {:.3} ms | {:.1} texts/s | {:.1} MiB/s | {:.1} µs/text",
        ca.name(),
        runner.name(),
        texts.len(),
        elapsed.as_secs_f64() * 1e3,
        texts.len() as f64 / elapsed.as_secs_f64(),
        total_bytes as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0),
        elapsed.as_secs_f64() * 1e6 / texts.len().max(1) as f64,
    );
    accepted
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// `ridfa compile`: build the automaton once, seal it as a checksummed
/// binary artifact — cold starts become a validated load.
fn cmd_compile(opts: &Opts) -> Result<(), CliError> {
    let nfa = load_nfa(opts)?;
    let Some(out) = opts.get_value("out")? else {
        return Err(CliError::Usage("need --out FILE".into()));
    };
    let kind = opts.get_value("kind")?.unwrap_or("ridfa");
    let engine = match opts.get_value("engine")? {
        None => None,
        Some(v) => Some(EnginePlan::parse_flag(v).ok_or_else(|| {
            CliError::Usage(format!(
                "invalid value for --engine: {v:?} (auto|lockstep|sfa|feasible)"
            ))
        })?),
    };
    let separator = match opts.get_value("separator")? {
        None => None,
        Some(v) => Some(v.parse::<u8>().map_err(|_| {
            CliError::Usage(format!(
                "invalid value for --separator: {v:?} (expected a byte 0-255)"
            ))
        })?),
    };
    if kind != "ridfa" && (engine.is_some() || separator.is_some()) {
        return Err(CliError::Usage(
            "--engine/--separator apply to --kind ridfa artifacts only".into(),
        ));
    }
    let bytes = match kind {
        "ridfa" => {
            let rid = build_rid(&nfa, opts)?;
            println!(
                "compile: RI-DFA, {} states, {} interface states",
                rid.num_states(),
                rid.interface().len()
            );
            match engine {
                // No --engine: an Auto-tagged empty engine section; the
                // loading registry resolves the plan at insert time.
                None if separator.is_none() => ridfa_to_bytes(&rid),
                None => ridfa_to_bytes_with_engine(&rid, EnginePlan::Auto, None, None, separator),
                Some(requested) => {
                    // The registry's own resolution, with no residency cap:
                    // an explicit `--engine sfa` surfaces a budget failure
                    // (exit 5) instead of falling back.
                    let budget =
                        construction_budget(opts)?.unwrap_or(ConstructionBudget::UNLIMITED);
                    let pool = ThreadPool::new(default_threads());
                    let engine =
                        Engine::resolve(&rid, requested, None, None, &budget, usize::MAX, &pool)
                            .map_err(|e| CliError::Budget(e.to_string()))?;
                    let plan = engine.plan();
                    let (feasible, sfa) = match &engine {
                        Engine::Sfa(sfa) => {
                            println!(
                                "compile: engine {}, {} SFA function states ({} table bytes)",
                                plan.name(),
                                sfa.num_states(),
                                sfa.resident_bytes()
                            );
                            (None, Some(sfa))
                        }
                        Engine::FeasibleStart(table) => {
                            println!(
                                "compile: engine {}, feasible table {} classes x {} interface \
                                 positions ({} bytes)",
                                plan.name(),
                                table.stride(),
                                table.interface_len(),
                                table.resident_bytes()
                            );
                            (Some(table), None)
                        }
                        Engine::Lockstep => {
                            println!("compile: engine {}", plan.name());
                            (None, None)
                        }
                    };
                    ridfa_to_bytes_with_engine(&rid, plan, feasible, sfa, separator)
                }
            }
        }
        "dfa" => {
            let dfa = build_dfa(&nfa, opts)?;
            println!(
                "compile: minimal DFA, {} live states",
                dfa.num_live_states()
            );
            binary::dfa_to_bytes(&dfa)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown artifact kind {other:?} (ridfa|dfa)"
            )))
        }
    };
    std::fs::write(out, &bytes).map_err(|e| CliError::Io(format!("{out}: {e}")))?;
    println!(
        "compile: wrote {} bytes ({kind} artifact) to {out}",
        bytes.len()
    );
    Ok(())
}

/// `ridfa inspect-artifact`: header, checksum and payload validation,
/// then a human summary. A corrupt or truncated file exits 2 with the
/// typed decode error, never a panic.
fn cmd_inspect_artifact(opts: &Opts) -> Result<(), CliError> {
    let Some(path) = opts.get_value("file")? else {
        return Err(CliError::Usage("need --file FILE".into()));
    };
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let header = binary::peek(&bytes).map_err(|e| CliError::Usage(e.to_string()))?;
    println!(
        "artifact : {} format v{}, {} payload bytes, checksum {:#018x}",
        header.kind.name(),
        header.version,
        header.payload_len,
        header.checksum
    );
    match header.kind {
        binary::ArtifactKind::Dfa => {
            let loaded =
                binary::dfa_from_bytes(&bytes).map_err(|e| CliError::Usage(e.to_string()))?;
            println!(
                "dfa      : {} states ({} live), {} byte classes, premultiplied table cached",
                loaded.dfa.num_states(),
                loaded.dfa.num_live_states(),
                loaded.dfa.classes().num_classes()
            );
            println!(
                "tables   : {} dense bytes + {} premultiplied bytes",
                std::mem::size_of_val(loaded.dfa.table()),
                std::mem::size_of_val(loaded.premultiplied.as_slice()),
            );
        }
        binary::ArtifactKind::RiDfa => {
            let loaded = ridfa_from_bytes(&bytes).map_err(|e| CliError::Usage(e.to_string()))?;
            println!(
                "ri-dfa   : {} states, {} interface states, {} byte classes, \
                 premultiplied table cached",
                loaded.rid.num_states(),
                loaded.rid.interface().len(),
                loaded.rid.classes().num_classes()
            );
            match (&loaded.sfa, &loaded.feasible) {
                (Some(sfa), _) => println!(
                    "engine   : {} plan, {} SFA function states ({} table bytes)",
                    loaded.plan.name(),
                    sfa.num_states(),
                    sfa.resident_bytes()
                ),
                (_, Some(table)) => println!(
                    "engine   : {} plan, feasible table {} classes x {} interface positions \
                     ({} bytes)",
                    loaded.plan.name(),
                    table.stride(),
                    table.interface_len(),
                    table.resident_bytes()
                ),
                _ => println!(
                    "engine   : {} plan (no precomputed tables)",
                    loaded.plan.name()
                ),
            }
            if let Some(sep) = loaded.separator {
                println!("separator: byte {sep:#04x} (boundary snapping)");
            }
            // The same number the serving registry books against its
            // residency cap when this artifact is inserted: the automaton
            // footprint plus any engine tables it ships.
            let engine_bytes = loaded.sfa.as_ref().map_or(0, |s| s.resident_bytes())
                + loaded.feasible.as_ref().map_or(0, |f| f.resident_bytes());
            println!(
                "resident : {} bytes as served (registry ledger)",
                resident_footprint(&loaded.rid, loaded.premultiplied.len()) + engine_bytes,
            );
        }
    }
    println!("verdict  : artifact OK");
    Ok(())
}

/// `ridfa serve --listen`: the real network mode — an acceptor dealing
/// connections to `--shards` non-blocking loops, each serving its own
/// registry replica built from the `--patterns` file. Prints
/// `listening on ADDR` (resolved port) before serving so a driver
/// script can connect, and a reconciled counter report after.
fn cmd_serve_listen(opts: &Opts) -> Result<(), CliError> {
    let Some(addr) = opts.get_value("listen")? else {
        return Err(CliError::Usage("need --listen ADDR".into()));
    };
    let Some(patterns) = opts.get_value("patterns")? else {
        return Err(CliError::Usage("need --patterns FILE".into()));
    };
    let threads = opts.get_usize("threads", default_threads())?;
    let shards = opts.get_usize("shards", 1)?;
    if !(1..=64).contains(&shards) {
        return Err(CliError::Usage(format!(
            "--shards must be 1..=64, got {shards}"
        )));
    }
    // Split the thread budget across the shard replicas: each shard's
    // pool gets its share minus the shard thread itself (which joins
    // every pooled reach phase).
    let per_shard_threads = (threads / shards).max(1);
    let registry_config = RegistryConfig {
        num_workers: per_shard_threads.saturating_sub(1).max(1),
        block_size: opts.get_usize("block-size", 64 * 1024)?,
        budget: construction_budget(opts)?.unwrap_or(ConstructionBudget::UNLIMITED),
        max_table_bytes: opts.get_usize("max-table-bytes", usize::MAX)?,
    };

    let max_requests = match opts.get_value("max-requests")? {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("invalid value for --max-requests: {v:?}")))?,
        ),
    };
    let deadline = match opts.get_value("deadline-ms")? {
        None => None,
        Some(v) => Some(Duration::from_millis(v.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("invalid value for --deadline-ms: {v:?}"))
        })?)),
    };
    let idle = match opts.get_value("idle-ms")? {
        None => Some(Duration::from_secs(30)),
        Some(v) => Some(Duration::from_millis(v.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("invalid value for --idle-ms: {v:?}"))
        })?)),
    };
    let reload_interval = match opts.get_value("reload-ms")? {
        None => None,
        Some(v) => Some(Duration::from_millis(v.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("invalid value for --reload-ms: {v:?}"))
        })?)),
    };
    let offload_bytes = match opts.get_value("offload-bytes")? {
        None => u64::MAX,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("invalid value for --offload-bytes: {v:?}")))?,
    };
    let config = ServeConfig {
        max_requests,
        request_deadline: deadline,
        idle_timeout: idle,
        max_body_bytes: opts.get_usize("max-body", usize::MAX)? as u64,
        shards,
        offload_bytes,
        reload_interval,
        ..ServeConfig::default()
    };

    let server = Server::bind_spec_file(
        addr,
        std::path::PathBuf::from(patterns),
        registry_config,
        config,
    )
    .map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidInput => CliError::Usage(format!("{patterns}: {e}")),
        _ => CliError::Io(e.to_string()),
    })?;
    let loaded = server.pattern_count();
    let bound = server
        .local_addr()
        .map_err(|e| CliError::Io(e.to_string()))?;
    println!("listening on {bound} ({loaded} patterns)");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let report = server.run().map_err(|e| CliError::Io(e.to_string()))?;
    let t = &report.tally;
    println!(
        "serve: {} requests ({} accepted / {} rejected / {} protocol / {} deadline / \
         {} budget / {} fault) | {} bytes | {} connections ({} refused, {} io-dropped, \
         {} idle-closed)",
        t.requests,
        t.accepted,
        t.rejected,
        t.protocol_errors,
        t.deadline_errors,
        t.budget_errors,
        t.faults,
        t.bytes,
        t.connections,
        t.refused,
        t.io_errors,
        t.idle_closed,
    );
    for shard in &report.shards {
        let s = &shard.tally;
        let errors = s.protocol_errors + s.deadline_errors + s.budget_errors + s.faults;
        println!(
            "shard {}: {} requests ({} accepted / {} rejected / {} errors), {} bytes | \
             reload: {} generations (+{} / -{} / {} failed)",
            shard.shard,
            s.requests,
            s.accepted,
            s.rejected,
            errors,
            s.bytes,
            shard.reload.generations,
            shard.reload.inserted,
            shard.reload.evicted,
            shard.reload.failed,
        );
    }
    if report.reload_errors > 0 {
        println!("reload errors: {}", report.reload_errors);
    }
    for pattern in &report.patterns {
        let s = &pattern.stats;
        let engine = pattern.plan.map_or("retired", |p| p.name());
        println!(
            "pattern {} [{engine}]: {} requests ({} accepted / {} rejected / {} errors), \
             {} bytes",
            pattern.id, s.requests, s.accepted, s.rejected, s.errors, s.bytes
        );
    }
    for conn in &report.connections {
        println!(
            "conn {}: {} requests ({} accepted / {} rejected / {} errors), {} bytes",
            conn.peer, conn.requests, conn.accepted, conn.rejected, conn.errors, conn.bytes
        );
    }
    match report.verify() {
        Ok(()) => println!(
            "reconcile: ok ({} shards, {} requests)",
            report.shards.len(),
            t.requests
        ),
        Err(msg) => return Err(CliError::Internal(format!("reconcile failed: {msg}"))),
    }
    Ok(())
}

/// `ridfa query`: requests against a running server; the exit code *is*
/// the worst response status seen (the taxonomies coincide). `--repeat`
/// pipelines N requests per connection, `--concurrency` opens C
/// connections in parallel — `C × N` requests total, a one-command load
/// generator for the sharded server.
fn cmd_query(opts: &Opts) -> Result<(), CliError> {
    let Some(addr) = opts.get_value("connect")? else {
        return Err(CliError::Usage("need --connect ADDR".into()));
    };
    let Some(id) = opts.get_value("pattern")? else {
        return Err(CliError::Usage("need --pattern ID".into()));
    };
    let repeat = opts.get_usize("repeat", 1)?;
    let concurrency = opts.get_usize("concurrency", 1)?;
    if repeat == 0 || concurrency == 0 {
        return Err(CliError::Usage(
            "--repeat and --concurrency must be at least 1".into(),
        ));
    }
    let body = load_text(opts)?;

    let worst = if repeat == 1 && concurrency == 1 {
        let mut stream =
            std::net::TcpStream::connect(addr).map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
        let response =
            protocol::query(&mut stream, id, &body).map_err(|e| CliError::Io(e.to_string()))?;
        println!(
            "query {id}: {:?} | {} of {} bytes scanned",
            response.status,
            response.scanned,
            body.len()
        );
        response.status
    } else {
        // One thread per connection, `repeat` pipelined requests each;
        // every thread reports its per-status counts.
        let results: Vec<Result<[u64; 7], String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|_| {
                    let body = &body;
                    scope.spawn(move || -> Result<[u64; 7], String> {
                        let mut stream = std::net::TcpStream::connect(addr)
                            .map_err(|e| format!("{addr}: {e}"))?;
                        let mut counts = [0u64; 7];
                        for _ in 0..repeat {
                            let response = protocol::query(&mut stream, id, body)
                                .map_err(|e| e.to_string())?;
                            counts[response.status as usize] += 1;
                        }
                        Ok(counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
                .collect()
        });
        let mut counts = [0u64; 7];
        for result in results {
            let conn_counts = result.map_err(CliError::Io)?;
            for (total, n) in counts.iter_mut().zip(conn_counts) {
                *total += n;
            }
        }
        println!(
            "query {id}: {} requests over {} connections ({} accepted / {} rejected / \
             {} protocol / {} io / {} deadline / {} budget / {} fault)",
            (repeat * concurrency) as u64,
            concurrency,
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            counts[5],
            counts[6],
        );
        // Worst = highest status byte seen, mirroring exit-code severity.
        let worst_byte = (0..7u8)
            .rev()
            .find(|&b| counts[b as usize] > 0)
            .unwrap_or(0);
        protocol::Status::from_byte(worst_byte).unwrap_or(protocol::Status::Fault)
    };

    match worst {
        protocol::Status::Accepted => Ok(()),
        protocol::Status::Rejected => Err(CliError::Rejected),
        protocol::Status::Protocol => Err(CliError::Usage("server: protocol error".into())),
        protocol::Status::Io => Err(CliError::Io("server: I/O error".into())),
        protocol::Status::Deadline => Err(CliError::Interrupted(
            "server: request deadline exceeded".into(),
        )),
        protocol::Status::Budget => Err(CliError::Budget("server: body over byte budget".into())),
        protocol::Status::Fault => Err(CliError::Internal("server: contained fault".into())),
    }
}

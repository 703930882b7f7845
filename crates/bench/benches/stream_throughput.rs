//! Stream-throughput bench: what does bounded-memory streaming cost
//! against the load-everything one-shot recognizer?
//!
//! An 8 MiB `traffic` syslog text is recognized five ways:
//!
//! * `oneshot_team` — the whole text resident, free `recognize` with a
//!   bounded team (the pre-streaming fast path);
//! * `stream_256k` / `stream_1m` — a warm [`StreamSession`] reading the
//!   same bytes from memory in 256 KiB / 1 MiB blocks: read + scan +
//!   eager composition, live memory O(workers · block_size);
//! * `stream_pipe_1m` — the same session fed by the *lazy*
//!   `RecordSource` generator (includes record-generation cost: the
//!   serving shape of `ridfa serve --stream`);
//! * `serial` — single-threaded whole-text reference.
//!
//! The harness writes results to
//! `target/criterion-shim/stream_throughput.json`; the checked-in
//! baseline lives at `crates/bench/baselines/stream_throughput.json`.
//! The acceptance bar is streaming throughput within a small constant
//! factor of one-shot on the same block budget — the memory bound should
//! cost overlap bookkeeping, not a scan regression.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ridfa_core::csdpa::{recognize, Executor, Kernel, RidCa, StreamSession};
use ridfa_core::ridfa::RiDfa;
use ridfa_workloads::traffic;

const TEXT_LEN: usize = 8 << 20;

fn bench_stream_throughput(c: &mut Criterion) {
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let text = traffic::text(TEXT_LEN, 1);
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(8);
    let chunks = threads.max(2);

    let mut group = c.benchmark_group("stream_throughput");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));

    group.bench_function("oneshot_team", |b| {
        b.iter(|| recognize(&ca, &text, chunks, Executor::Team(threads)).accepted);
    });
    for (name, block) in [("stream_256k", 256 << 10), ("stream_1m", 1 << 20)] {
        let mut session = StreamSession::new(threads.saturating_sub(1).max(1), block);
        session.warm(&ca, &text[..64 << 10]);
        group.bench_function(name, |b| {
            b.iter(|| session.recognize_stream(&ca, &text[..]).unwrap().accepted);
        });
    }
    {
        let mut session = StreamSession::new(threads.saturating_sub(1).max(1), 1 << 20);
        session.warm(&ca, &text[..64 << 10]);
        group.bench_function("stream_pipe_1m", |b| {
            b.iter(|| {
                session
                    .recognize_stream(&ca, traffic::RecordSource::new(TEXT_LEN as u64, 1))
                    .unwrap()
                    .accepted
            });
        });
    }
    group.bench_function("serial", |b| {
        b.iter(|| recognize(&ca, &text, 1, Executor::Serial).accepted);
    });
    group.finish();
}

criterion_group!(benches, bench_stream_throughput);
criterion_main!(benches);

//! Short-text / batch latency bench: the serving regime the session
//! layer exists for.
//!
//! A stream of ~2 KiB `traffic` syslog texts is recognized four ways:
//!
//! * `spawn_per_call` — the pre-session hot path: the free `recognize`
//!   spawns OS threads for every text (`Executor::PerChunk`);
//! * `spawn_team` — same, with the bounded dynamic team;
//! * `pooled_per_text` — one warm [`Session`], one `recognize` call per
//!   text (no spawn, warm per-worker scratches, zero allocations);
//! * `pooled_batch` — `Session::recognize_many`, the whole stream as one
//!   pipelined task wave over the pool;
//! * `serial` — single-threaded reference.
//!
//! The per-iteration unit is the **whole stream**, so per-text overhead
//! differences multiply by the batch size. The harness writes the
//! group's results to `target/criterion-shim/batch_latency.json`; the
//! checked-in baseline lives at
//! `crates/bench/baselines/batch_latency.json` — the acceptance bar is
//! pooled per-text cost measurably below the spawn-per-call path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ridfa_core::csdpa::{recognize, Executor, Kernel, RidCa, Session};
use ridfa_core::ridfa::RiDfa;
use ridfa_workloads::traffic;

const TEXT_LEN: usize = 2048;
const BATCH: usize = 64;
const CHUNKS: usize = 4;

fn bench_batch_latency(c: &mut Criterion) {
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let texts = traffic::request_stream(BATCH, TEXT_LEN, 0);
    let total_bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(8);

    let mut group = c.benchmark_group("batch_latency");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(total_bytes));

    group.bench_function("spawn_per_call", |b| {
        b.iter(|| {
            texts
                .iter()
                .filter(|t| recognize(&ca, t, CHUNKS, Executor::PerChunk).accepted)
                .count()
        });
    });
    group.bench_function("spawn_team", |b| {
        b.iter(|| {
            texts
                .iter()
                .filter(|t| recognize(&ca, t, CHUNKS, Executor::Team(threads)).accepted)
                .count()
        });
    });
    {
        let mut session = Session::new(threads.saturating_sub(1).max(1));
        session.warm(&ca, &texts[0]);
        group.bench_function("pooled_per_text", |b| {
            b.iter(|| {
                texts
                    .iter()
                    .filter(|t| session.recognize(&ca, t, CHUNKS).accepted)
                    .count()
            });
        });
        group.bench_function("pooled_batch", |b| {
            b.iter(|| {
                session
                    .recognize_many(&ca, &texts, CHUNKS)
                    .iter()
                    .filter(|&&v| v)
                    .count()
            });
        });
    }
    group.bench_function("serial", |b| {
        b.iter(|| {
            texts
                .iter()
                .filter(|t| recognize(&ca, t, CHUNKS, Executor::Serial).accepted)
                .count()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batch_latency);
criterion_main!(benches);

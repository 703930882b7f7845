//! Multiplexed-serving throughput smoke: a loopback [`Server`] over a
//! live [`PatternRegistry`], hammered by real TCP clients.
//!
//! One server process-local event loop, two patterns, one shared worker
//! pool. Each iteration pushes the same request volume (128 requests ×
//! 4 KiB bodies, mixed accept/reject) through two shapes:
//!
//! * `mux_8conn` — 8 concurrent client threads × 16 requests each: the
//!   multiplexed serving shape, connection setup included;
//! * `serial_1conn` — one connection, 128 pipelined request/response
//!   round trips: the no-concurrency reference.
//!
//! This is a *smoke* bench: the bar is that multiplexing 8 connections
//! stays within a small constant factor of the single-connection
//! reference — `mux_8conn` pays 8 TCP connects and 8 thread spawns per
//! iteration on top of the event-loop bookkeeping, so parity means the
//! loop is overlapping socket waits with recognition rather than
//! serializing on any one client. Results are recorded in
//! `crates/bench/baselines/serve_throughput.json`.

use std::net::TcpStream;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ridfa_core::csdpa::{CancelToken, PatternRegistry, RegistryConfig};
use ridfa_core::serve::protocol::{self, Status};
use ridfa_core::serve::{ServeConfig, Server};

const CONNS: usize = 8;
const REQS: usize = 16;
const BODY: usize = 4 << 10;

fn bench_serve_throughput(c: &mut Criterion) {
    let mut reg = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        ..RegistryConfig::default()
    });
    reg.insert_regex("digits", "[0-9]+").unwrap();
    reg.insert_regex("abb", "(a|b)*abb").unwrap();

    let mut server = Server::bind("127.0.0.1:0", reg, ServeConfig::default()).unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let member = vec![b'7'; BODY];
    let stray = {
        let mut t = vec![b'7'; BODY];
        t[BODY / 2] = b'x';
        t
    };
    let run_requests = |stream: &mut TcpStream, n: usize| {
        for i in 0..n {
            let (body, want) = if i % 2 == 0 {
                (&member, Status::Accepted)
            } else {
                (&stray, Status::Rejected)
            };
            let response = protocol::query(stream, "digits", body).unwrap();
            assert_eq!(response.status, want);
        }
    };
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };

    let mut group = c.benchmark_group("serve_throughput");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Bytes((CONNS * REQS * BODY) as u64));

    group.bench_function("mux_8conn", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..CONNS {
                    scope.spawn(|| run_requests(&mut connect(), REQS));
                }
            });
        });
    });
    group.bench_function("serial_1conn", |b| {
        let mut stream = connect();
        b.iter(|| run_requests(&mut stream, CONNS * REQS));
    });
    group.finish();

    cancel.cancel();
    server_thread.join().unwrap().unwrap();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);

//! Minimal parallel runtime for the reach phase.
//!
//! The paper's implementation runs each chunk automaton as a Java thread
//! and joins them with an `ExecutorService` before the serial join phase —
//! the only synchronization point. We mirror that structure with two
//! executors:
//!
//! * [`scoped::run_indexed`] — fork-join over borrowed data with
//!   `std::thread::scope`: either one OS thread per chunk (the paper's
//!   model) or a bounded team pulling chunk indices from an atomic
//!   counter. Simple and dependency-free, but it pays thread-spawn cost
//!   on every call — fine for long texts, ruinous for short ones;
//! * [`pool::ThreadPool`] — a persistent worker pool whose scoped
//!   [`invoke_all_scoped`](pool::ThreadPool::invoke_all_scoped) runs
//!   borrowed-data batches with per-worker resident state and zero
//!   allocations per warm call. This is what a
//!   [`Session`](crate::csdpa::Session) dispatches texts through when
//!   recognitions arrive by the thousands.
//!
//! Every pooled scan — a session's reach, batch and tree join, a stream
//! wave, the registry's pooled lane — claims its work through
//! [`invoke_each`](pool::ThreadPool::invoke_each): task `i` of a batch
//! gets `&mut slots[i]` of one exclusively borrowed slot slice, claimed
//! by index through the batch's atomic counter, so callers write their
//! outputs through plain `&mut` and need no `unsafe`. The pool's scope
//! protocol and that slot hand-out are the only `unsafe` code behind it.

pub mod pool;
pub mod scoped;

pub use pool::{PoolHealth, ThreadPool};
pub use scoped::{run_indexed, run_indexed_with};

//! Minimal parallel runtime for the reach phase.
//!
//! The paper's implementation runs each chunk automaton as a Java thread
//! and joins them with an `ExecutorService` before the serial join phase —
//! the only synchronization point. We mirror that structure with one
//! runtime, the persistent [`pool::ThreadPool`], and one mechanism: its
//! scoped [`invoke_all_scoped`](pool::ThreadPool::invoke_all_scoped) runs
//! borrowed-data batches with per-worker resident state and zero
//! allocations per warm call, and the calling thread claims tasks next to
//! the workers, so a pool of `n` workers runs a batch on `n + 1`
//! claimants and a pool of none runs it on the caller alone. The head of
//! every batch respawns any worker that died, so a batch always starts
//! with the configured workers. Every
//! recognition dispatches through it: a
//! [`Session`](crate::csdpa::Session) keeps one pool warm across texts,
//! and the free [`recognize`](crate::csdpa::recognize) functions build a
//! throwaway session sized by their [`Executor`](crate::csdpa::Executor).
//!
//! Every pooled scan of a text — a session's reach, batch and tree join,
//! the registry's pooled lane — claims its work through
//! [`invoke_each`](pool::ThreadPool::invoke_each): task `i` of a batch
//! gets `&mut slots[i]` of one exclusively borrowed slot slice, claimed
//! by index through the batch's atomic counter, so callers write their
//! outputs through plain `&mut` and need no `unsafe`. A stream runs one
//! [`invoke_all_scoped`](pool::ThreadPool::invoke_all_scoped) batch of
//! one claim loop per claimant, whose blocks and mapping slots sit behind
//! locks of their own. The pool's scope protocol and that slot hand-out
//! are the only `unsafe` code behind either.

pub mod pool;

pub use pool::{PoolHealth, ThreadPool};

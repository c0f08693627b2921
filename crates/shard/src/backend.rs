//! The router's view of its shard workers.
//!
//! The router composes global answers out of per-shard requests; it
//! does not care whether a shard is an in-process [`Engine`] or a
//! remote worker reached over the wire protocol. [`ShardBackend`]
//! abstracts that choice: [`LocalCluster`](crate::LocalCluster) hosts
//! every shard engine in the router process (one writer thread each),
//! [`RemoteShards`](crate::RemoteShards) dials N worker processes.
//!
//! [`Engine`]: afforest_serve::Engine

use std::fmt;
use std::time::Duration;

use afforest_serve::{Request, Response};

/// Why a shard could not answer a call at all.
///
/// This is the *transport*-level failure channel, distinct from an
/// in-band [`Response::Err`] (the shard answered, with an error) and
/// from [`Response::Overloaded`] (the shard answered, shedding load).
/// The distinction matters to the router's failure-domain layer: only
/// [`ShardUnavailable::Dead`] feeds the health state machine
/// (DESIGN.md §15); shedding is backpressure, not sickness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardUnavailable {
    /// The shard is up but shed the request (bounded-queue admission);
    /// retries were exhausted without an answer. Not a health signal.
    Shedding {
        /// Index of the shedding shard.
        shard: usize,
        /// Queue depth from the shard's last `Overloaded` answer — its
        /// most recent honest backpressure signal, carried so a relayed
        /// `Overloaded` never fabricates a depth.
        queue_depth: u64,
    },
    /// The shard could not be reached: connect refused, peer vanished
    /// mid-call, read deadline exceeded, or the shard id is unknown.
    Dead {
        /// Index of the unreachable shard.
        shard: usize,
        /// Human-readable cause, for logs and relayed `Err` responses.
        reason: String,
    },
}

impl ShardUnavailable {
    /// The shard this outcome is about.
    pub fn shard(&self) -> usize {
        match *self {
            ShardUnavailable::Shedding { shard, .. } | ShardUnavailable::Dead { shard, .. } => {
                shard
            }
        }
    }
}

impl fmt::Display for ShardUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardUnavailable::Shedding { shard, queue_depth } => {
                write!(
                    f,
                    "shard {shard} shed the request (retries exhausted, last queue depth {queue_depth})"
                )
            }
            ShardUnavailable::Dead { shard, reason } => {
                write!(f, "shard {shard} unavailable: {reason}")
            }
        }
    }
}

/// A set of shard workers the router can query.
///
/// `call` must answer every *data* request ([`Request::Connected`],
/// [`Request::Component`], [`Request::ComponentSize`],
/// [`Request::NumComponents`], [`Request::InsertEdges`],
/// [`Request::Resolve`]) plus [`Request::Stats`], all phrased in the
/// shard's **local** vertex ids. The router's reads send only
/// `Resolve`. A shard that answers — even with [`Response::Err`] or
/// [`Response::Overloaded`] — yields `Ok`; `Err(ShardUnavailable)` is
/// reserved for calls that produced *no* answer, so the router can
/// tell a sick shard from a request it should relay unchanged.
pub trait ShardBackend: Sync {
    /// Number of shard workers.
    fn num_shards(&self) -> usize;

    /// Sends `req` to shard `shard` and returns its answer.
    fn call(&self, shard: usize, req: &Request) -> Result<Response, ShardUnavailable>;

    /// Waits until every shard has applied and published all queued
    /// edges, or `timeout` elapses. Returns whether all drained.
    fn flush(&self, timeout: Duration) -> bool;

    /// Asks every shard to stop (joins in-process writers, sends
    /// `Shutdown` to remote workers). Idempotent.
    fn shutdown(&self);
}

//! Distributed fleet: networked corpus hub, wire codec, and worker
//! runtime.
//!
//! PR 5's batched, self-contained [`ShardUpdate`] deltas plus the store
//! layer's checksummed framing were a wire protocol waiting to happen —
//! this module is that protocol. It splits the single-host fleet into
//! one authoritative hub and N worker hosts, the architecture the
//! paper's scale-out discussion (§VII) points at:
//!
//! 1. [`codec`] — a length-prefixed, CRC-framed message set
//!    ([`Message`]): `Hello`/`HelloAck` version negotiation,
//!    `PushUpdate` carrying a wire-encoded [`ShardUpdate`],
//!    `PullRequest`/`PullResponse` seq-cursor corpus + revision-gated
//!    relation deltas, `RoundDone`/`RoundAck` sync barriers,
//!    `Heartbeat`, and `Bye`. Frames reuse the journal's
//!    `rec <seq> <len> <crc32>` framing so `droidfuzz-lint` audits
//!    captured streams with the same machinery it uses on WALs.
//! 2. [`transport`] — a [`Transport`] trait with a real TCP
//!    implementation (`std::net`) and a deterministic in-process
//!    loopback fault-injectable through [`simdevice::faults`]
//!    profiles (truncated/corrupted/duplicated frames, stalls,
//!    disconnects), so distributed tests run hermetically.
//! 3. [`server`] — a [`HubServer`] owning the [`CorpusHub`] behind a
//!    session layer: per-worker seq cursors, pushes applied in
//!    shard-id order at sync barriers (a fixed-seed distributed
//!    campaign is bit-identical to the local `--threads` path),
//!    reconnect/resume from the last acknowledged round, backpressure
//!    via bounded per-session queues, and the durable store wired in.
//! 4. [`client`] — a [`WorkerRuntime`] running N local shards against
//!    a remote hub, with the supervisor's backoff/quarantine taxonomy
//!    extended to link faults (capped exponential reconnect backoff).
//!
//! Determinism contract: the hub buffers each round's pushes by shard
//! id and applies them in ascending order once all shards have
//! reported; crash records are rebuilt into per-shard databases and
//! synced in shard order; workers merge the hub's relation graph from
//! a cached copy every pull exactly as local shards do. No message is
//! timer-driven (heartbeats fire only as reconnect probes), so frame
//! counts — and the `net` counters — are reproducible run-to-run on a
//! reliable link.
//!
//! [`ShardUpdate`]: crate::fleet::ShardUpdate
//! [`CorpusHub`]: crate::fleet::CorpusHub
//! [`simdevice::faults`]: simdevice::FaultProfile

pub mod client;
pub mod codec;
pub mod server;
pub mod transport;

pub use client::{WorkerConfig, WorkerResult, WorkerRuntime};
pub use codec::{
    decode_frame, decode_message, encode_frame, encode_message, variant_config, CampaignSpec,
    Message, WireShardStats, WireUpdate, MAX_FRAME_LEN, NET_STREAM_HEADER, PROTOCOL_VERSION,
};
pub use server::{HubResult, HubServer, ServeConfig};
pub use transport::{
    loopback_pair, Channel, ChannelReceiver, ChannelSender, Connector, FrameSink, FrameSource,
    Listener, LoopbackConnector, LoopbackListener, LoopbackTransport, TcpConnector,
    TcpHubListener, TcpTransport, Transport,
};

pub use droidfuzz_analysis::NetCounters;

use std::fmt;

/// Errors surfaced by the wire layer. Malformed input is *typed*: the
/// decoder distinguishes truncation from oversize from checksum failure
/// from plain garbage, and each feeds its own [`NetCounters`] key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer closed the connection (clean or mid-frame).
    Closed,
    /// A frame ended before its declared length (torn tail).
    Truncated(String),
    /// A frame declared a length above [`MAX_FRAME_LEN`].
    Oversized(u64),
    /// A frame's payload failed its CRC-32 check.
    Crc { expected: u32, found: u32 },
    /// Bytes that parse as neither a frame header nor a message.
    Garbage(String),
    /// The peer speaks an incompatible protocol version.
    Version { ours: u32, theirs: u32 },
    /// A well-formed message that violates the session protocol
    /// (wrong message for the session state, bad shard id, stale seq).
    Protocol(String),
    /// An underlying socket/channel failure.
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed"),
            NetError::Truncated(what) => write!(f, "truncated frame: {what}"),
            NetError::Oversized(len) => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME_LEN})")
            }
            NetError::Crc { expected, found } => {
                write!(f, "frame crc mismatch: expected {expected:08x}, found {found:08x}")
            }
            NetError::Garbage(what) => write!(f, "garbage frame: {what}"),
            NetError::Version { ours, theirs } => {
                write!(f, "protocol version mismatch: ours v{ours}, theirs v{theirs}")
            }
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Io(e) => write!(f, "link i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_taxonomy() {
        assert!(NetError::Oversized(1 << 40).to_string().contains("oversized"));
        assert!(NetError::Crc { expected: 1, found: 2 }.to_string().contains("crc"));
        assert!(NetError::Truncated("tail".into()).to_string().contains("truncated"));
        assert!(
            NetError::Version { ours: 1, theirs: 2 }.to_string().contains("version mismatch")
        );
    }
}

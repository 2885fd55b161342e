//! The [`Transport`] abstraction: per-peer ordered byte channels.
//!
//! A transport endpoint belongs to one process and moves *frames* (opaque byte
//! payloads, CRC-framed on the wire) to and from every other endpoint of the
//! deployment. The contract:
//!
//! * **Ordering** — frames from one sender arrive at a receiver in send order (the
//!   guarantee the protocols do *not* actually require, but which TCP provides and the
//!   sim's event queue mimics; nothing may be duplicated).
//! * **Batching** — [`Transport::send`] only queues; [`Transport::flush`] hands
//!   everything queued to the I/O layer, one coalesced write per peer. The unit the
//!   runtime flushes is the *burst*: a replica handles every frame already in its
//!   inbox (up to a fixed frame budget), queueing each dispatch step's sends, and
//!   flushes once when the inbox runs dry or the budget is spent. A drained burst
//!   costs one flush, and at most one write and one wake-up per peer, however many
//!   frames it held — the socket-flush batching of the paper's implementation, with
//!   the load rather than a 5 ms timer setting the batch size. Receiving mirrors it:
//!   [`Transport::recv_timeout`] with a zero timeout takes the next frame that has
//!   already arrived and never waits, which is how a burst is drained.
//! * **Best-effort delivery** — a frame addressed to a crashed, partitioned or
//!   unreachable peer may be dropped silently (counted in [`TransportStats`]). The
//!   protocols already tolerate loss; retransmission is their job, not the
//!   transport's.
//! * **Backpressure** — a flush writes to the peers' sockets itself; one whose socket
//!   buffer is full blocks it until that peer's reader drains, so a fast sender cannot
//!   buffer unbounded bytes against a slow peer.
//!
//! Process identifiers double as transport addresses. Replica endpoints use their
//! protocol `ProcessId`s; client sessions attach with [`CLIENT_ID_BASE`]`+ client_id`
//! and the runtime's supervisor with [`CONTROL_ID`] — the id space tells the chaos
//! layer which frames model the replicated system (and are fault-injected) versus
//! harness plumbing (which is not).

use std::time::Duration;
use tempo_kernel::id::ProcessId;

/// First transport id of the client range: client `c` attaches as
/// `CLIENT_ID_BASE + c`. Everything below is a replica id, everything at or above is
/// harness-side and exempt from chaos injection.
pub const CLIENT_ID_BASE: u64 = 1 << 32;

/// Transport id of the runtime supervisor (failure-detector notices, lifecycle
/// control). Exempt from chaos injection like the client range.
pub const CONTROL_ID: u64 = u64::MAX;

/// Why a receive returned without a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No frame arrived within the timeout.
    Timeout,
    /// The endpoint is shut down and can never produce another frame.
    Closed,
}

/// Counters of one endpoint's traffic (monotonic; cheap atomics under the hood).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames queued for sending.
    pub frames_sent: u64,
    /// Payload bytes queued for sending (frame overhead excluded).
    pub bytes_sent: u64,
    /// Frames received and handed to the endpoint's inbox.
    pub frames_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Frames dropped before reaching the peer (unreachable, disconnected, or chaos).
    pub frames_dropped: u64,
    /// The subset of `frames_dropped` discarded because they were addressed to a peer
    /// incarnation that has since been replaced (restart-reconnect hygiene): a frame
    /// queued toward incarnation *k* must never deliver to incarnation *k+1*.
    pub frames_dropped_stale: u64,
    /// Malformed frames (oversized length prefix or CRC mismatch) observed on
    /// established connections. Each one also cost the connection: corruption means
    /// the stream can no longer be trusted, so the reader drops it and the peer must
    /// redial. A climbing counter here is a liveness signal for the failure detector —
    /// a peer whose frames keep arriving corrupt is effectively unreachable.
    pub frames_corrupt: u64,
    /// Flush calls that had frames to write.
    pub flushes: u64,
    /// Always 0 for [`TcpTransport`](crate::TcpTransport): its flush writes to the
    /// sockets itself, so there is no queue to measure. A gauge, not a counter
    /// (aggregation takes the maximum); it stays only because the frozen benchmark
    /// (`tempo-perf`) reads it.
    pub queue_depth_peak: u64,
    /// Flush writes that found a peer's socket buffer full and had to block until the
    /// peer's reader drained it (backpressure events; one per peer and flush at most).
    pub flush_stalls: u64,
}

impl TransportStats {
    /// Field-wise aggregate (for folding per-replica stats into a cluster total):
    /// counters sum, the `queue_depth_peak` gauge takes the maximum.
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.bytes_sent += other.bytes_sent;
        self.frames_received += other.frames_received;
        self.bytes_received += other.bytes_received;
        self.frames_dropped += other.frames_dropped;
        self.frames_dropped_stale += other.frames_dropped_stale;
        self.frames_corrupt += other.frames_corrupt;
        self.flushes += other.flushes;
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        self.flush_stalls += other.flush_stalls;
    }
}

/// Boxed transports are transports, so delay/chaos shims (each generic over an inner
/// `T: Transport`) can be stacked in any combination at runtime.
impl Transport for Box<dyn Transport> {
    fn local_id(&self) -> ProcessId {
        (**self).local_id()
    }
    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        (**self).send(to, payload)
    }
    fn flush(&mut self) {
        (**self).flush()
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        (**self).recv_timeout(timeout)
    }
    fn stats(&self) -> TransportStats {
        (**self).stats()
    }
}

/// One process's connected endpoint of the deployment mesh.
pub trait Transport: Send {
    /// The transport id of this endpoint.
    fn local_id(&self) -> ProcessId;

    /// Queues `payload` for ordered delivery to `to`. Buffered until [`flush`]
    /// (implementations may flush eagerly, e.g. in unbatched benchmarking mode).
    ///
    /// [`flush`]: Transport::flush
    fn send(&mut self, to: ProcessId, payload: &[u8]);

    /// Hands all queued frames to the I/O layer — one coalesced write per peer. May
    /// block while a peer's socket buffer is full (backpressure).
    fn flush(&mut self);

    /// Waits up to `timeout` for the next frame, returning the sender and payload.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError>;

    /// This endpoint's traffic counters.
    fn stats(&self) -> TransportStats;
}

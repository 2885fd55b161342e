//! Low-overhead per-command lifecycle tracing (DESIGN.md §10).
//!
//! A [`Tracer`] is a cheap-clone handle shared by the [`Driver`](crate::driver::Driver),
//! the protocol instance it wraps and the embedding scheduler. Disabled (the default) it
//! is a `None` and every record call is a single branch — no allocation, no lock, no
//! timestamp formatting. Enabled, events land in a fixed-capacity [`TraceBuf`] ring
//! buffer owned by the handle: the hot path never allocates (the ring is allocated once
//! up front), and when the ring is full the oldest event is overwritten and a drop
//! counter incremented, so tracing can stay on during unbounded chaos runs with constant
//! memory.
//!
//! Events are [`Copy`] and carry only identifiers:
//!
//! * [`TraceEvent::Phase`] — a command lifecycle phase transition, keyed by the
//!   command's [`Rifl`] (protocol-agnostic, unlike a `Dot`) and the process that
//!   observed it;
//! * [`TraceEvent::Process`] — a process-level event (crash, restart, recovery,
//!   detector suspicion) with no command attached.
//!
//! Timestamps are whatever clock the embedding scheduler dispatches with: virtual
//! microseconds in `tempo-sim` (traces are then deterministic and byte-identical across
//! same-seed runs) and microseconds since cluster start in `tempo-runtime`.
//!
//! Post-run analysis (phase-latency folding, Chrome trace export) lives in the
//! `tempo-trace` crate; this module holds only what the hot path needs.

use crate::id::{ProcessId, Rifl};
use std::sync::{Arc, Mutex};

/// Default ring capacity when a tracer is enabled without an explicit size. At 32 bytes
/// per event this is ~2 MiB per process — enough for ~65k events between drains.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A command lifecycle phase, in causal order.
///
/// `Submitted` and `Executed` are emitted uniformly by the [`Driver`](crate::driver),
/// `Replied` by the embedding scheduler at client completion; the phases in between are
/// emitted by the protocol through its
/// [`attach_tracer`](crate::protocol::Protocol::attach_tracer) hook and are therefore
/// best-effort (a protocol without hooks simply produces a coarser trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmdPhase {
    /// The client command entered the coordinator's `submit`.
    Submitted,
    /// A non-coordinator learned the command payload.
    PayloadDelivered,
    /// The coordinator sent its timestamp proposal (Tempo `MPropose`).
    Proposed,
    /// The command committed at this process.
    Committed,
    /// The command's timestamp became stable at this process (execution-ready).
    Stable,
    /// The command executed against the local state machine.
    Executed,
    /// The client observed the reply.
    Replied,
}

impl CmdPhase {
    /// A short stable name (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            CmdPhase::Submitted => "submitted",
            CmdPhase::PayloadDelivered => "payload",
            CmdPhase::Proposed => "proposed",
            CmdPhase::Committed => "committed",
            CmdPhase::Stable => "stable",
            CmdPhase::Executed => "executed",
            CmdPhase::Replied => "replied",
        }
    }
}

/// A process-level event with no command attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcEvent {
    /// This process started recovering another process's command.
    RecoveryStarted,
    /// A recovery this process coordinated completed (the command committed).
    RecoveryCompleted,
    /// The failure detector suspected the carried process.
    Suspect(ProcessId),
    /// A previous suspicion of the carried process was withdrawn.
    Unsuspect(ProcessId),
    /// The nemesis crashed the carried process.
    Crash(ProcessId),
    /// The nemesis restarted the carried process.
    Restart(ProcessId),
}

impl ProcEvent {
    /// A short stable name (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            ProcEvent::RecoveryStarted => "recovery-started",
            ProcEvent::RecoveryCompleted => "recovery-completed",
            ProcEvent::Suspect(_) => "suspect",
            ProcEvent::Unsuspect(_) => "unsuspect",
            ProcEvent::Crash(_) => "crash",
            ProcEvent::Restart(_) => "restart",
        }
    }
}

/// One trace event. `Copy` and fixed-size so ring writes are a memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A command lifecycle phase transition.
    Phase {
        /// Scheduler timestamp, in microseconds.
        at_us: u64,
        /// The process that observed the transition.
        process: ProcessId,
        /// The command's request identifier.
        rifl: Rifl,
        /// The phase entered.
        phase: CmdPhase,
    },
    /// A process-level event.
    Process {
        /// Scheduler timestamp, in microseconds.
        at_us: u64,
        /// The process the event happened at.
        process: ProcessId,
        /// What happened.
        event: ProcEvent,
    },
}

impl TraceEvent {
    /// The event's timestamp, in microseconds.
    pub fn at_us(&self) -> u64 {
        match self {
            TraceEvent::Phase { at_us, .. } | TraceEvent::Process { at_us, .. } => *at_us,
        }
    }

    /// The process the event happened at.
    pub fn process(&self) -> ProcessId {
        match self {
            TraceEvent::Phase { process, .. } | TraceEvent::Process { process, .. } => *process,
        }
    }
}

/// A fixed-capacity ring buffer of trace events: overwrite-oldest, with a counter of
/// events lost to overwrites. Allocated once at construction; `push` never allocates.
#[derive(Debug)]
pub struct TraceBuf {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position.
    head: usize,
    /// Live events (≤ capacity).
    len: usize,
    dropped: u64,
}

impl TraceBuf {
    /// Creates a ring holding up to `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Records one event, overwriting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
            self.head = self.events.len() % self.capacity;
            self.len += 1;
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Live events in the ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events lost to overwrites since the last [`drain`](Self::drain).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns everything recorded so far, oldest first, together with the
    /// overwrite count. The ring keeps its allocation.
    pub fn drain(&mut self) -> TraceLog {
        let mut events = Vec::with_capacity(self.len);
        if self.events.len() == self.capacity && self.dropped > 0 {
            // The ring wrapped: oldest event sits at `head`.
            events.extend_from_slice(&self.events[self.head..]);
            events.extend_from_slice(&self.events[..self.head]);
        } else {
            events.extend_from_slice(&self.events);
        }
        let dropped = self.dropped;
        self.events.clear();
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        TraceLog { events, dropped }
    }

    /// A copy of everything recorded so far, oldest first, leaving the ring (and its
    /// drop accounting) untouched — for mid-run peeks while recording continues.
    pub fn snapshot(&self) -> TraceLog {
        let mut events = Vec::with_capacity(self.len);
        if self.events.len() == self.capacity && self.dropped > 0 {
            events.extend_from_slice(&self.events[self.head..]);
            events.extend_from_slice(&self.events[..self.head]);
        } else {
            events.extend_from_slice(&self.events);
        }
        TraceLog {
            events,
            dropped: self.dropped,
        }
    }
}

/// A drained, arrival-ordered log of trace events plus drop accounting.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites before the drain.
    pub dropped: u64,
}

impl TraceLog {
    /// Appends another log (events keep per-log order; sort by timestamp if a global
    /// order is needed).
    pub fn merge(&mut self, other: TraceLog) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
    }

    /// Sorts events by timestamp (stable, so same-instant events keep arrival order).
    pub fn sort_by_time(&mut self) {
        self.events.sort_by_key(|e| e.at_us());
    }
}

/// The recording handle. Cloning shares the underlying ring; the disabled default costs
/// one branch per record call and never allocates.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buf: Option<Arc<Mutex<TraceBuf>>>,
}

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Self { buf: None }
    }

    /// A tracer recording into a fresh ring of [`DEFAULT_TRACE_CAPACITY`] events.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer recording into a fresh ring of `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Some(Arc::new(Mutex::new(TraceBuf::new(capacity)))),
        }
    }

    /// Whether record calls go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("trace ring poisoned").push(event);
        }
    }

    /// Records a command phase transition (no-op when disabled).
    #[inline]
    pub fn phase(&self, at_us: u64, process: ProcessId, rifl: Rifl, phase: CmdPhase) {
        if self.buf.is_some() {
            self.record(TraceEvent::Phase {
                at_us,
                process,
                rifl,
                phase,
            });
        }
    }

    /// Records a process-level event (no-op when disabled).
    #[inline]
    pub fn process_event(&self, at_us: u64, process: ProcessId, event: ProcEvent) {
        if self.buf.is_some() {
            self.record(TraceEvent::Process {
                at_us,
                process,
                event,
            });
        }
    }

    /// Drains everything recorded so far (empty log when disabled).
    pub fn take(&self) -> TraceLog {
        match &self.buf {
            Some(buf) => buf.lock().expect("trace ring poisoned").drain(),
            None => TraceLog::default(),
        }
    }

    /// A non-destructive copy of everything recorded so far (empty when disabled);
    /// recording continues and a later [`take`](Self::take) still returns everything.
    pub fn snapshot(&self) -> TraceLog {
        match &self.buf {
            Some(buf) => buf.lock().expect("trace ring poisoned").snapshot(),
            None => TraceLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_at(at_us: u64) -> TraceEvent {
        TraceEvent::Phase {
            at_us,
            process: 0,
            rifl: Rifl::new(1, at_us),
            phase: CmdPhase::Submitted,
        }
    }

    fn times(events: &[TraceEvent]) -> Vec<u64> {
        events.iter().map(|e| e.at_us()).collect()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.phase(1, 0, Rifl::new(1, 1), CmdPhase::Submitted);
        tracer.process_event(2, 0, ProcEvent::RecoveryStarted);
        let log = tracer.take();
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn enabled_tracer_keeps_arrival_order() {
        let tracer = Tracer::with_capacity(8);
        for at in 0..5 {
            tracer.record(phase_at(at));
        }
        let log = tracer.take();
        assert_eq!(log.events.len(), 5);
        assert_eq!(log.dropped, 0);
        let times: Vec<u64> = log.events.iter().map(|e| e.at_us()).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tracer = Tracer::with_capacity(4);
        for at in 0..10 {
            tracer.record(phase_at(at));
        }
        let log = tracer.take();
        // 10 pushed into capacity 4: 6 overwritten, newest 4 kept in order.
        assert_eq!(log.dropped, 6);
        let times: Vec<u64> = log.events.iter().map(|e| e.at_us()).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drain_resets_drop_accounting() {
        let tracer = Tracer::with_capacity(2);
        for at in 0..5 {
            tracer.record(phase_at(at));
        }
        assert_eq!(tracer.take().dropped, 3);
        // After a drain the ring is empty again: no carry-over drops.
        tracer.record(phase_at(99));
        let log = tracer.take();
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].at_us(), 99);
    }

    #[test]
    fn exact_capacity_fill_drops_nothing() {
        let tracer = Tracer::with_capacity(4);
        for at in 0..4 {
            tracer.record(phase_at(at));
        }
        let log = tracer.take();
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events.len(), 4);
        let times: Vec<u64> = log.events.iter().map(|e| e.at_us()).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clones_share_the_ring() {
        let tracer = Tracer::with_capacity(8);
        let clone = tracer.clone();
        clone.record(phase_at(7));
        let log = tracer.take();
        assert_eq!(log.events.len(), 1);
    }

    #[test]
    fn merge_concatenates_and_sums_drops() {
        let mut a = TraceLog {
            events: vec![phase_at(5)],
            dropped: 2,
        };
        let b = TraceLog {
            events: vec![phase_at(1)],
            dropped: 3,
        };
        a.merge(b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.dropped, 5);
        a.sort_by_time();
        assert_eq!(a.events[0].at_us(), 1);
    }

    #[test]
    fn snapshot_peeks_without_draining() {
        let tracer = Tracer::with_capacity(4);
        for t in 0..6u64 {
            tracer.record(phase_at(t));
        }
        let peek = tracer.snapshot();
        assert_eq!(times(&peek.events), vec![2, 3, 4, 5]);
        assert_eq!(peek.dropped, 2);
        // Recording continued past the snapshot; the eventual drain sees everything
        // still in the ring plus the full drop count.
        tracer.record(phase_at(6));
        let log = tracer.take();
        assert_eq!(times(&log.events), vec![3, 4, 5, 6]);
        assert_eq!(log.dropped, 3);
    }
}

//! [`ChaosTransport`] — the fault plane of `tempo-fault`, injected under real threads.
//!
//! The simulator consults a [`Nemesis`] before every simulated delivery; here the same
//! nemesis state is shared behind a [`ChaosNet`] and consulted on the *receive path*
//! of a wrapped [`Transport`]: partitions and lossy links drop frames at delivery,
//! delay spikes (and slow-node gray faults) park them in a local heap until their
//! extra latency elapsed, duplicate draws deliver a trailing copy, and reorder draws
//! hold a frame back so later frames overtake it. Fault
//! times in the schedule are interpreted as microseconds since the [`ChaosNet`]'s
//! epoch (wall clock), so one schedule drives both the simulator and the networked
//! runtime — the interleavings differ (that is the point), the adversity does not.
//!
//! Division of labour: link-level faults (partition, drop, delay) are enforced here;
//! *process*-level faults (`Crash`/`Restart`) are returned by [`ChaosNet::advance`]
//! to the embedding runtime, which owns the replica lifecycle (killing driver
//! threads, reopening stores, re-running the rejoin handshake) — mirroring how the
//! simulator splits responsibilities with its own event loop.
//!
//! Only frames between *replica* ids (below [`CLIENT_ID_BASE`]) are fault-injected:
//! client sessions are harness plumbing, just like the simulator's client bookkeeping
//! sits outside its modelled network.

use crate::delay::DelayHeap;
use crate::transport::{RecvError, Transport, TransportStats, CLIENT_ID_BASE};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tempo_fault::{FaultEvent, FaultSummary, Nemesis, NemesisSchedule};
use tempo_kernel::id::ProcessId;

/// The shared chaos state of one runtime: the nemesis plus the wall-clock epoch its
/// schedule times are measured from. One instance is shared (via `Arc`) by every
/// [`ChaosTransport`] of the cluster and by the supervisor that acts on
/// crash/restart events.
#[derive(Debug)]
pub struct ChaosNet {
    nemesis: Mutex<Nemesis>,
    epoch: Instant,
}

impl ChaosNet {
    /// Creates the chaos state from a schedule; `seed` drives the per-frame
    /// Bernoulli drop draws (as in the simulator).
    pub fn new(schedule: NemesisSchedule, seed: u64) -> Self {
        Self {
            nemesis: Mutex::new(Nemesis::new(schedule, seed)),
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since this chaos clock started.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The wall-clock instant schedule times are measured from. The embedding runtime
    /// uses the same epoch for protocol time, so nemesis schedules and protocol
    /// timers share one clock.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The schedule time of the next pending fault, if any.
    pub fn next_due_us(&self) -> Option<u64> {
        self.nemesis.lock().expect("nemesis lock").next_due()
    }

    /// Applies every fault due by now to the link state and returns the fired events;
    /// the caller handles `Crash`/`Restart` (process lifecycle).
    pub fn advance(&self) -> Vec<FaultEvent> {
        let now = self.now_us();
        self.nemesis.lock().expect("nemesis lock").advance(now)
    }

    /// Whether `process` is currently crashed under the schedule.
    pub fn is_down(&self, process: ProcessId) -> bool {
        self.nemesis.lock().expect("nemesis lock").is_down(process)
    }

    /// The fault counters so far.
    pub fn summary(&self) -> FaultSummary {
        self.nemesis.lock().expect("nemesis lock").summary()
    }

    /// Records a frame dropped because its endpoint was crashed (called by the
    /// runtime when it discards traffic addressed to a killed replica).
    pub fn note_crash_drop(&self) {
        self.nemesis.lock().expect("nemesis lock").note_crash_drop();
    }

    fn allows(&self, from: ProcessId, to: ProcessId) -> bool {
        self.nemesis
            .lock()
            .expect("nemesis lock")
            .allows_delivery(from, to)
    }

    fn extra_delay_us(&self, from: ProcessId, to: ProcessId) -> u64 {
        self.nemesis
            .lock()
            .expect("nemesis lock")
            .send_delay(from, to)
    }

    fn should_duplicate(&self, from: ProcessId, to: ProcessId) -> bool {
        self.nemesis
            .lock()
            .expect("nemesis lock")
            .should_duplicate(from, to)
    }

    fn reorder_delay_us(&self, from: ProcessId, to: ProcessId) -> Option<u64> {
        self.nemesis
            .lock()
            .expect("nemesis lock")
            .reorder_delay(from, to)
    }
}

/// A [`Transport`] wrapper that injects the shared [`ChaosNet`] faults into the
/// receive path (and suppresses sends from a replica the schedule has crashed but
/// the supervisor has not yet killed — the window is tiny, but a dead process must
/// not speak).
pub struct ChaosTransport<T: Transport> {
    inner: T,
    net: std::sync::Arc<ChaosNet>,
    /// Frames held back by a delay, reorder or duplicate draw.
    delayed: DelayHeap,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with the shared chaos state.
    pub fn new(inner: T, net: std::sync::Arc<ChaosNet>) -> Self {
        Self {
            inner,
            net,
            delayed: DelayHeap::default(),
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        if self.inner.local_id() < CLIENT_ID_BASE && self.net.is_down(self.inner.local_id()) {
            // Crashed by the schedule but not yet reaped: a dead process sends nothing.
            self.net.note_crash_drop();
            return;
        }
        self.inner.send(to, payload);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        let local = self.inner.local_id();
        let net = &self.net;
        let admit = |delayed: &mut DelayHeap, from, payload: Vec<u8>| {
            if from >= CLIENT_ID_BASE || local >= CLIENT_ID_BASE {
                return Some((from, payload)); // Harness traffic: never injected.
            }
            if !net.allows(from, local) {
                return None; // Partitioned or lost to a lossy link (counted).
            }
            // Delay spikes and slow-node gray faults stretch the frame; a reorder draw
            // additionally holds it back so later frames overtake it (the link stops
            // being FIFO).
            let mut extra = net.extra_delay_us(from, local);
            if let Some(hold) = net.reorder_delay_us(from, local) {
                extra += hold;
            }
            if net.should_duplicate(from, local) {
                // At-least-once links: park a copy that trails the original through
                // the same delay, exercising handler idempotence.
                let due = Instant::now() + Duration::from_micros(extra + 1);
                delayed.park(due, from, payload.clone());
            }
            if extra > 0 {
                delayed.park(Instant::now() + Duration::from_micros(extra), from, payload);
                return None;
            }
            Some((from, payload))
        };
        self.delayed.recv_timeout(&mut self.inner, timeout, admit)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpMesh;
    use std::sync::Arc;

    #[test]
    fn partition_blocks_frames_until_heal() {
        let schedule = NemesisSchedule::new(vec![
            (0, FaultEvent::Partition(vec![vec![0], vec![1]])),
            (400_000, FaultEvent::Heal),
        ]);
        let net = Arc::new(ChaosNet::new(schedule, 7));
        net.advance(); // Apply the partition (due at t=0).
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = ChaosTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        a.send(1, b"during-partition");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Timeout),
            "partitioned frame must not deliver"
        );
        assert!(net.summary().dropped_partition >= 1);
        // Wait out the heal, then frames flow again.
        while net.next_due_us().is_some() {
            std::thread::sleep(Duration::from_millis(20));
            net.advance();
        }
        a.send(1, b"after-heal");
        a.flush();
        let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_slice()), (0, b"after-heal".as_slice()));
    }

    #[test]
    fn delay_spike_holds_frames_back() {
        let schedule = NemesisSchedule::new(vec![(
            0,
            FaultEvent::DelaySpike {
                from: 0,
                to: 1,
                extra_us: 150_000,
            },
        )]);
        let net = Arc::new(ChaosNet::new(schedule, 7));
        net.advance();
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = ChaosTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        let sent_at = Instant::now();
        a.send(1, b"slow");
        a.flush();
        let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(payload, b"slow");
        assert!(
            sent_at.elapsed() >= Duration::from_millis(150),
            "the spike must add latency, took {:?}",
            sent_at.elapsed()
        );
        assert_eq!(net.summary().delayed, 1);
    }

    #[test]
    fn duplicate_link_delivers_the_frame_twice() {
        let schedule = NemesisSchedule::new(vec![(
            0,
            FaultEvent::DuplicateFrame {
                from: 0,
                to: 1,
                p: 1.0,
            },
        )]);
        let net = Arc::new(ChaosNet::new(schedule, 7));
        net.advance();
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = ChaosTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        a.send(1, b"twice");
        a.flush();
        let (_, first) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_, second) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"twice");
        assert_eq!(second, b"twice");
        assert_eq!(net.summary().duplicated, 1);
    }

    #[test]
    fn slow_node_stretches_its_answers() {
        let schedule = NemesisSchedule::slow_node(0, 150_000, 0, 10_000_000);
        let net = Arc::new(ChaosNet::new(schedule, 7));
        net.advance();
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = ChaosTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        let sent_at = Instant::now();
        a.send(1, b"sluggish");
        a.flush();
        let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(payload, b"sluggish");
        assert!(
            sent_at.elapsed() >= Duration::from_millis(150),
            "the slow node's answer must be late, took {:?}",
            sent_at.elapsed()
        );
        assert_eq!(net.summary().slowed, 1);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let schedule = NemesisSchedule::new(vec![(
            0,
            FaultEvent::ReorderFrame {
                from: 0,
                to: 1,
                p: 1.0,
            },
        )]);
        let net = Arc::new(ChaosNet::new(schedule, 7));
        net.advance();
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = ChaosTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        a.send(1, b"held");
        a.flush();
        // Every frame on the link is held back, but none may be lost.
        let (_, first) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"held");
        assert!(net.summary().reordered >= 1);
    }

    #[test]
    fn client_frames_bypass_the_chaos() {
        let schedule =
            NemesisSchedule::new(vec![(0, FaultEvent::Partition(vec![vec![0], vec![1]]))]);
        let net = Arc::new(ChaosNet::new(schedule, 7));
        net.advance();
        let mesh = TcpMesh::new();
        let client_id = crate::transport::CLIENT_ID_BASE + 4;
        let mut client = mesh.endpoint(client_id, true).unwrap();
        let mut replica = ChaosTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        client.send(1, b"submit");
        client.flush();
        let (from, payload) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (from, payload.as_slice()),
            (client_id, b"submit".as_slice())
        );
    }
}

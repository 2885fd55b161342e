//! [`LinkTransport`] — the emulated network under real threads: `tempo-planet`
//! geography and the `tempo-fault` link model, on real sockets.
//!
//! The loopback TCP mesh delivers frames in tens of microseconds and never loses one,
//! which makes every deployment a single, perfect rack. The simulator charges each
//! frame the [`Planet`] one-way latency (Table 2 of the paper) and the fate its
//! [`Nemesis`] draws for it; this shim applies the *same* two to frames between real
//! threads, so that one schedule and one latency matrix drive both planes: the
//! interleavings differ (that is the point), the adversity does not.
//!
//! The shim sits on the *receive path*. A frame coming off the loopback socket is
//! taken as just sent: transit is microseconds against emulated latencies of tens of
//! milliseconds. Its fate is drawn there, once ([`Nemesis::fate`]: dropped, or
//! delayed and perhaps duplicated), and the frame parks once in a delay heap, for the
//! one-way latency between the endpoints' sites plus the fate's extra latency; a
//! duplicate trails it by a microsecond. Equal delays keep arrival order (the heap
//! breaks ties by arrival sequence), so without a fault the links stay FIFO.
//!
//! Geography applies to *everyone*, replicas and client sessions alike: clients live
//! in regions too (each drives the latency its site actually sees, which is what
//! Figure 6 plots). Only endpoints never registered with the [`LinkNet`] are exempt.
//! Faults apply only between *replica* ids (below [`CLIENT_ID_BASE`]): client
//! sessions are harness plumbing, just like the simulator's client bookkeeping sits
//! outside its modelled network.
//!
//! *Process*-level faults (`Crash`/`Restart`) are the embedding runtime's, which
//! advances the nemesis on its own clock and owns the replica lifecycle (killing
//! driver threads, reopening stores, re-running the rejoin handshake). The shim only
//! silences a replica the schedule has crashed but the runtime has not stopped yet.

use crate::delay::DelayHeap;
use crate::transport::{RecvError, Transport, TransportStats, CLIENT_ID_BASE};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tempo_fault::Nemesis;
use tempo_kernel::id::{ProcessId, SiteId};
use tempo_planet::Planet;

/// The shared network of one deployment: the optional latency matrix with the sites
/// the endpoints (replicas *and* clients) live in, and the optional nemesis. One
/// instance is shared (via `Arc`) by every [`LinkTransport`] of the cluster and by the
/// runtime that advances the nemesis.
#[derive(Debug)]
pub struct LinkNet {
    planet: Option<Planet>,
    sites: Mutex<BTreeMap<ProcessId, SiteId>>,
    nemesis: Option<Mutex<Nemesis>>,
}

impl LinkNet {
    /// Creates the shared network: frames cross `planet`'s latencies, if any, and
    /// suffer `nemesis`'s faults, if any.
    pub fn new(planet: Option<Planet>, nemesis: Option<Nemesis>) -> Self {
        Self {
            planet,
            sites: Mutex::new(BTreeMap::new()),
            nemesis: nemesis.map(Mutex::new),
        }
    }

    /// The latency matrix, if frames cross one.
    pub fn planet(&self) -> Option<&Planet> {
        self.planet.as_ref()
    }

    /// The nemesis, locked, if frames suffer one.
    pub fn nemesis(&self) -> Option<MutexGuard<'_, Nemesis>> {
        self.nemesis
            .as_ref()
            .map(|n| n.lock().expect("nemesis lock"))
    }

    /// Places a transport endpoint in a site. Unregistered endpoints see zero
    /// injected latency (harness plumbing), and without a planet registering is moot.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the planet's site range.
    pub fn register(&self, id: ProcessId, site: SiteId) {
        if let Some(planet) = &self.planet {
            assert!(
                (site as usize) < planet.len(),
                "site {site} outside the {}-region planet",
                planet.len()
            );
            self.sites.lock().expect("sites lock").insert(id, site);
        }
    }

    /// The one-way latency of the planet between the sites of `from` and `to`, in
    /// microseconds. Zero without a planet, when either endpoint is unregistered, or
    /// when the endpoints share a site with zero matrix latency.
    fn delay_us(&self, from: ProcessId, to: ProcessId) -> u64 {
        let Some(planet) = &self.planet else {
            return 0;
        };
        let sites = self.sites.lock().expect("sites lock");
        match (sites.get(&from), sites.get(&to)) {
            (Some(&a), Some(&b)) => planet.one_way_us(a, b),
            _ => 0,
        }
    }
}

/// A [`Transport`] wrapper that delivers every arriving frame as the shared
/// [`LinkNet`] says: after its sites' one-way latency plus its fate's extra latency,
/// twice, or not at all. It also drops the sends of a replica the schedule has crashed
/// but the runtime has not stopped yet (the window is tiny, but a dead process must
/// not speak).
pub struct LinkTransport<T: Transport> {
    inner: T,
    net: Arc<LinkNet>,
    /// Frames in flight across the emulated network.
    in_flight: DelayHeap,
}

impl<T: Transport> LinkTransport<T> {
    /// Wraps `inner` with the shared network.
    pub fn new(inner: T, net: Arc<LinkNet>) -> Self {
        Self {
            inner,
            net,
            in_flight: DelayHeap::default(),
        }
    }
}

impl<T: Transport> Transport for LinkTransport<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        let local = self.inner.local_id();
        if local < CLIENT_ID_BASE {
            if let Some(mut nemesis) = self.net.nemesis().filter(|n| n.is_down(local)) {
                // Crashed by the schedule but not yet reaped: it sends nothing.
                nemesis.note_crash_drop();
                return;
            }
        }
        self.inner.send(to, payload);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        let local = self.inner.local_id();
        let net = &self.net;
        let admit = |in_flight: &mut DelayHeap, from, payload: Vec<u8>| {
            let mut delay = net.delay_us(from, local);
            let mut duplicate = false;
            if from < CLIENT_ID_BASE && local < CLIENT_ID_BASE {
                if let Some(mut nemesis) = net.nemesis() {
                    let fate = nemesis.fate(from, local)?; // Dropped (counted).
                    delay += fate.extra_us;
                    duplicate = fate.duplicate;
                }
            }
            if duplicate {
                // At-least-once links: a copy trails the original, exercising handler
                // idempotence.
                let due = Instant::now() + Duration::from_micros(delay + 1);
                in_flight.park(due, from, payload.clone());
            }
            if delay == 0 {
                return Some((from, payload));
            }
            in_flight.park(Instant::now() + Duration::from_micros(delay), from, payload);
            None
        };
        self.in_flight.recv_timeout(&mut self.inner, timeout, admit)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpMesh;
    use tempo_fault::{FaultEvent, NemesisSchedule};

    /// A network with only `schedule`'s faults, its events due at 0 applied.
    fn chaos(schedule: NemesisSchedule) -> Arc<LinkNet> {
        let mut nemesis = Nemesis::new(schedule, 7);
        nemesis.advance(0);
        Arc::new(LinkNet::new(None, Some(nemesis)))
    }

    /// A network with only `planet`'s latencies.
    fn geography(planet: Planet) -> Arc<LinkNet> {
        Arc::new(LinkNet::new(Some(planet), None))
    }

    fn summary(net: &LinkNet) -> tempo_fault::FaultSummary {
        net.nemesis().expect("a nemesis").summary()
    }

    #[test]
    fn partition_blocks_frames_until_heal() {
        let net = chaos(NemesisSchedule::new(vec![
            (0, FaultEvent::Partition(vec![vec![0], vec![1]])),
            (400_000, FaultEvent::Heal),
        ]));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        a.send(1, b"during-partition");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Timeout),
            "partitioned frame must not deliver"
        );
        assert!(summary(&net).dropped_partition >= 1);
        // The heal comes due, then frames flow again.
        net.nemesis().expect("a nemesis").advance(400_000);
        a.send(1, b"after-heal");
        a.flush();
        let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_slice()), (0, b"after-heal".as_slice()));
    }

    #[test]
    fn delay_spike_holds_frames_back() {
        let net = chaos(NemesisSchedule::new(vec![(
            0,
            FaultEvent::DelaySpike {
                from: 0,
                to: 1,
                extra_us: 150_000,
            },
        )]));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
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
        assert_eq!(summary(&net).delayed, 1);
    }

    #[test]
    fn duplicate_link_delivers_the_frame_twice() {
        let net = chaos(NemesisSchedule::new(vec![(
            0,
            FaultEvent::DuplicateFrame {
                from: 0,
                to: 1,
                p: 1.0,
            },
        )]));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        a.send(1, b"twice");
        a.flush();
        let (_, first) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_, second) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"twice");
        assert_eq!(second, b"twice");
        assert_eq!(summary(&net).duplicated, 1);
    }

    #[test]
    fn slow_node_stretches_its_answers() {
        let net = chaos(NemesisSchedule::slow_node(0, 150_000, 0, 10_000_000));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
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
        assert_eq!(summary(&net).slowed, 1);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let net = chaos(NemesisSchedule::new(vec![(
            0,
            FaultEvent::ReorderFrame {
                from: 0,
                to: 1,
                p: 1.0,
            },
        )]));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        a.send(1, b"held");
        a.flush();
        // Every frame on the link is held back, but none may be lost.
        let (_, first) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"held");
        assert!(summary(&net).reordered >= 1);
    }

    #[test]
    fn client_frames_bypass_the_chaos() {
        let net = chaos(NemesisSchedule::new(vec![(
            0,
            FaultEvent::Partition(vec![vec![0], vec![1]]),
        )]));
        let mesh = TcpMesh::new();
        let client_id = CLIENT_ID_BASE + 4;
        let mut client = mesh.endpoint(client_id, true).unwrap();
        let mut replica = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        client.send(1, b"submit");
        client.flush();
        let (from, payload) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (from, payload.as_slice()),
            (client_id, b"submit".as_slice())
        );
    }

    /// A replica the schedule has crashed but nobody has stopped yet sends nothing, and
    /// each send it tries is counted as a crash drop.
    #[test]
    fn a_crashed_replica_not_yet_reaped_sends_nothing() {
        let net = chaos(NemesisSchedule::new(vec![(0, FaultEvent::Crash(0))]));
        let mesh = TcpMesh::new();
        let mut a = LinkTransport::new(mesh.endpoint(0, true).unwrap(), Arc::clone(&net));
        let mut b = mesh.endpoint(1, true).unwrap();
        a.send(1, b"from-the-grave");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(100)),
            Err(RecvError::Timeout),
            "a crashed replica must not speak"
        );
        assert_eq!(summary(&net).dropped_crash, 1);
        assert_eq!(a.stats().frames_sent, 0);
    }

    /// Injected one-way delays must match the planet matrix within tolerance (loopback
    /// transit + scheduling jitter on top, nothing missing below).
    #[test]
    fn injected_delays_match_the_planet_matrix() {
        let net = geography(Planet::ec2_three_regions());
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        net.register(0, 0);
        net.register(1, 1);
        let expect_us = net.planet().expect("a planet").one_way_us(0, 1);
        assert!(expect_us > 1_000, "matrix must be non-trivial: {expect_us}");
        for round in 0..5 {
            let sent_at = Instant::now();
            a.send(1, b"wan-frame");
            a.flush();
            let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            let took_us = sent_at.elapsed().as_micros() as u64;
            assert_eq!((from, payload.as_slice()), (0, b"wan-frame".as_slice()));
            assert!(
                took_us >= expect_us,
                "round {round}: frame arrived after {took_us}µs, matrix says ≥{expect_us}µs"
            );
            // Generous upper bound: scheduling jitter, not geography, is the slack.
            assert!(
                took_us < expect_us + 50_000,
                "round {round}: frame took {took_us}µs, expected ≈{expect_us}µs"
            );
        }
    }

    #[test]
    fn same_site_and_unregistered_frames_fly_free() {
        let net = geography(Planet::equidistant(2, 100.0));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        // Unregistered endpoints: no injected delay.
        let sent_at = Instant::now();
        a.send(1, b"fast");
        a.flush();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            sent_at.elapsed() < Duration::from_millis(50),
            "unregistered endpoints must not be delayed: {:?}",
            sent_at.elapsed()
        );
        // Same site: the ec2 matrices have sub-ms intra-region latency; equidistant
        // uses 0 on the diagonal.
        net.register(0, 1);
        net.register(1, 1);
        assert_eq!(net.delay_us(0, 1), 0);
    }

    #[test]
    fn client_endpoints_are_delayed_by_their_region() {
        let net = geography(Planet::equidistant(3, 80.0));
        let mesh = TcpMesh::new();
        let client_id = CLIENT_ID_BASE + 9;
        let mut client = mesh.endpoint(client_id, true).unwrap();
        let mut replica = LinkTransport::new(mesh.endpoint(2, true).unwrap(), Arc::clone(&net));
        net.register(client_id, 0);
        net.register(2, 1);
        let sent_at = Instant::now();
        client.send(2, b"submit");
        client.flush();
        let (from, _) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, client_id);
        // 80 ms ping → 40 ms one way.
        assert!(
            sent_at.elapsed() >= Duration::from_millis(40),
            "client frames cross the WAN too: {:?}",
            sent_at.elapsed()
        );
    }

    #[test]
    fn ordering_per_sender_is_preserved() {
        let net = geography(Planet::equidistant(2, 30.0));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = LinkTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        net.register(0, 0);
        net.register(1, 1);
        for i in 0..32u8 {
            a.send(1, &[i]);
        }
        a.flush();
        for i in 0..32u8 {
            let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(payload, vec![i], "frames must deliver in send order");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn registering_an_unknown_site_panics() {
        geography(Planet::equidistant(2, 10.0)).register(0, 7);
    }
}

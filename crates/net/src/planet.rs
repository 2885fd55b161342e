//! [`PlanetTransport`] — WAN emulation: `tempo-planet` latencies on real sockets.
//!
//! The loopback TCP mesh delivers frames in tens of microseconds, which makes every
//! deployment look like a single rack. The simulator already charges geography
//! through the [`Planet`] one-way latency matrix (Table 2 of the paper); this module
//! injects the *same* matrix under real threads so that fig6/fig7-style measurements
//! run on the actual networked stack across emulated regions.
//!
//! Mechanics are [`ChaosTransport`](crate::chaos::ChaosTransport)'s: the shim sits on
//! the *receive path* and parks every arriving frame in the same delay heap until its
//! one-way latency (sender site → receiver site) has elapsed since arrival. Loopback
//! transit is microseconds against emulated latencies of tens of milliseconds, so
//! "delay from arrival" and "delay from send" are indistinguishable at the scale
//! being emulated. Ordering per sender is preserved: the matrix is static, so equal
//! delays keep arrival order (the heap breaks ties by arrival sequence).
//!
//! Unlike chaos injection, geography applies to *everyone* — replicas and client
//! sessions alike; clients live in regions too (each drives the latency its site
//! actually sees, which is exactly what Figure 6 plots). Only endpoints never
//! registered with the [`PlanetNet`] (e.g. the supervisor's [`CONTROL_ID`]) are
//! exempt.
//!
//! [`CONTROL_ID`]: crate::transport::CONTROL_ID

use crate::delay::DelayHeap;
use crate::transport::{RecvError, Transport, TransportStats};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tempo_kernel::id::{ProcessId, SiteId};
use tempo_planet::Planet;

/// The shared geography of one deployment: the latency matrix plus the mapping from
/// transport ids (replicas *and* client endpoints) to the sites they live in. One
/// instance is shared (via `Arc`) by every [`PlanetTransport`] of the cluster.
#[derive(Debug)]
pub struct PlanetNet {
    planet: Planet,
    sites: Mutex<BTreeMap<ProcessId, SiteId>>,
}

impl PlanetNet {
    /// Creates the shared geography from a latency matrix.
    pub fn new(planet: Planet) -> Self {
        Self {
            planet,
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// The latency matrix.
    pub fn planet(&self) -> &Planet {
        &self.planet
    }

    /// Places a transport endpoint in a site. Unregistered endpoints see zero
    /// injected latency (used for harness plumbing such as the supervisor).
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the planet's site range.
    pub fn register(&self, id: ProcessId, site: SiteId) {
        assert!(
            (site as usize) < self.planet.len(),
            "site {site} outside the {}-region planet",
            self.planet.len()
        );
        self.sites.lock().expect("sites lock").insert(id, site);
    }

    /// The site an endpoint was registered in, if any.
    pub fn site_of(&self, id: ProcessId) -> Option<SiteId> {
        self.sites.lock().expect("sites lock").get(&id).copied()
    }

    /// The one-way delay to inject for a frame from `from` to `to`, in
    /// microseconds. Zero when either endpoint is unregistered or the endpoints
    /// share a site with zero matrix latency.
    pub fn delay_us(&self, from: ProcessId, to: ProcessId) -> u64 {
        let sites = self.sites.lock().expect("sites lock");
        match (sites.get(&from), sites.get(&to)) {
            (Some(&a), Some(&b)) => self.planet.one_way_us(a, b),
            _ => 0,
        }
    }
}

/// A [`Transport`] wrapper that holds every arriving frame back by the one-way
/// latency between the sender's and receiver's sites.
pub struct PlanetTransport<T: Transport> {
    inner: T,
    net: std::sync::Arc<PlanetNet>,
    /// Frames in flight across the emulated WAN.
    in_flight: DelayHeap,
}

impl<T: Transport> PlanetTransport<T> {
    /// Wraps `inner` with the shared geography.
    pub fn new(inner: T, net: std::sync::Arc<PlanetNet>) -> Self {
        Self {
            inner,
            net,
            in_flight: DelayHeap::default(),
        }
    }
}

impl<T: Transport> Transport for PlanetTransport<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        self.inner.send(to, payload);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        let local = self.inner.local_id();
        let net = &self.net;
        let admit = |in_flight: &mut DelayHeap, from, payload| {
            let delay = net.delay_us(from, local);
            if delay == 0 {
                return Some((from, payload));
            }
            let due = Instant::now() + Duration::from_micros(delay);
            in_flight.park(due, from, payload);
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
    use crate::transport::CLIENT_ID_BASE;
    use std::sync::Arc;

    /// The satellite bar: injected one-way delays must match the planet matrix
    /// within tolerance (loopback transit + scheduling jitter on top, nothing
    /// missing below).
    #[test]
    fn injected_delays_match_the_planet_matrix() {
        let planet = Planet::ec2_three_regions();
        let net = Arc::new(PlanetNet::new(planet));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = PlanetTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
        net.register(0, 0);
        net.register(1, 1);
        let expect_us = net.planet().one_way_us(0, 1);
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
        let net = Arc::new(PlanetNet::new(Planet::equidistant(2, 100.0)));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = PlanetTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
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
        let net = Arc::new(PlanetNet::new(Planet::equidistant(3, 80.0)));
        let mesh = TcpMesh::new();
        let client_id = CLIENT_ID_BASE + 9;
        let mut client = mesh.endpoint(client_id, true).unwrap();
        let mut replica = PlanetTransport::new(mesh.endpoint(2, true).unwrap(), Arc::clone(&net));
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
        let net = Arc::new(PlanetNet::new(Planet::equidistant(2, 30.0)));
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = PlanetTransport::new(mesh.endpoint(1, true).unwrap(), Arc::clone(&net));
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
        let net = PlanetNet::new(Planet::equidistant(2, 10.0));
        net.register(0, 7);
    }
}

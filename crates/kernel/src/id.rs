//! Identifiers used throughout the workspace.
//!
//! The identifier scheme mirrors the deployment model of the paper (§2, §6.2): the system
//! is made of *sites* (geographic regions); each site hosts one *process* per *shard*
//! (partition group); clients are colocated with a site and attach to its processes.

use std::fmt;

/// Identifier of a process (a replica of one shard at one site).
pub type ProcessId = u64;

/// Identifier of a shard (a group of partitions replicated by `n` processes).
///
/// In the paper's terminology a *partition* can be as fine grained as a single key; a
/// *shard* is a set of partitions colocated on the same machines (§6.4). Protocol
/// instances run per shard.
pub type ShardId = u64;

/// Identifier of a site (a geographic region hosting one process per shard).
pub type SiteId = u64;

/// Identifier of a client.
pub type ClientId = u64;

/// A *r*equest *i*dentifier *f*or *l*inearizability: uniquely identifies a client command
/// end-to-end (client id + per-client sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rifl {
    /// The client that submitted the command.
    pub client: ClientId,
    /// The client-local sequence number of the command.
    pub seq: u64,
}

impl Rifl {
    /// Creates a new request identifier.
    pub fn new(client: ClientId, seq: u64) -> Self {
        Self { client, seq }
    }
}

impl fmt::Display for Rifl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// A command identifier: the pair of the process that coordinated the command and a
/// per-process sequence number (called a *dot* in the literature).
///
/// Dots are globally unique as long as every process uses its own `source`. They provide
/// the deterministic tie-break used when two commands are assigned the same timestamp
/// (Algorithm 2, line 52 orders by `⟨ts, id⟩`). The default, `(0, 0)`, names no
/// command: sequences start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dot {
    /// Process that created the identifier (the command's initial coordinator).
    pub source: ProcessId,
    /// Sequence number local to `source`, starting at 1.
    pub sequence: u64,
}

impl Dot {
    /// Creates a new dot.
    pub fn new(source: ProcessId, sequence: u64) -> Self {
        Self { source, sequence }
    }

    /// The process that generated this identifier (used as the initial coordinator during
    /// recovery: `initial_p(id)` in Algorithm 4).
    pub fn initial_coordinator(&self) -> ProcessId {
        self.source
    }
}

impl fmt::Display for Dot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.source, self.sequence)
    }
}

/// Generator of per-process [`Dot`]s.
#[derive(Debug, Clone)]
pub struct DotGen {
    source: ProcessId,
    next: u64,
}

impl DotGen {
    /// Creates a generator owned by process `source`.
    pub fn new(source: ProcessId) -> Self {
        Self { source, next: 0 }
    }

    /// Returns the next unique dot.
    pub fn next_id(&mut self) -> Dot {
        self.next += 1;
        Dot::new(self.source, self.next)
    }

    /// Fast-forwards the generator so that every future dot has a sequence strictly
    /// greater than `sequence`. Used by a process restarted with volatile state lost: its
    /// new incarnation must never reuse a dot of a previous incarnation, so it jumps to
    /// an incarnation-reserved band of the sequence space.
    pub fn skip_to(&mut self, sequence: u64) {
        self.next = self.next.max(sequence);
    }

    /// Number of dots generated so far.
    pub fn generated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rifl_ordering_is_by_client_then_seq() {
        let a = Rifl::new(1, 10);
        let b = Rifl::new(2, 1);
        let c = Rifl::new(1, 11);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn dot_gen_is_sequential_and_unique() {
        let mut gen = DotGen::new(7);
        let d1 = gen.next_id();
        let d2 = gen.next_id();
        assert_eq!(d1, Dot::new(7, 1));
        assert_eq!(d2, Dot::new(7, 2));
        assert_ne!(d1, d2);
        assert_eq!(gen.generated(), 2);
        assert_eq!(d1.initial_coordinator(), 7);
    }

    #[test]
    fn dot_display_and_rifl_display() {
        assert_eq!(Dot::new(3, 4).to_string(), "(3,4)");
        assert_eq!(Rifl::new(9, 2).to_string(), "9#2");
    }

    #[test]
    fn dot_ordering_breaks_ties_deterministically() {
        let mut dots = vec![Dot::new(2, 1), Dot::new(1, 2), Dot::new(1, 1)];
        dots.sort();
        assert_eq!(dots, vec![Dot::new(1, 1), Dot::new(1, 2), Dot::new(2, 1)]);
    }
}

//! Timestamp stability — this process's clocks, the promises it made and heard, and the
//! line-47 commit gate, owned by one component (Algorithms 1-2, Theorem 1).
//!
//! The keys of a shard fall into [`BUCKETS`] buckets (a hash of the key), and each bucket
//! keeps its own *track*: a clock from which timestamp proposals are generated, the
//! promises every shard member made in it, and its stable timestamp. Advancing a clock
//! *uses up* timestamps in that bucket and therefore produces *promises*:
//!
//! * an **attached** promise `⟨i, t⟩` says that process `i` proposed timestamp `t` for a
//!   specific command and will never use `t` again in that command's buckets,
//! * a **detached** promise `⟨i, b, u⟩` says that process `i` skipped timestamp `u` in
//!   bucket `b` and will never propose it there for any command.
//!
//! A proposal is one more than the highest clock over the command's buckets (and at least
//! the coordinator's), and a commit, `MConsensus` or `MBump` raises only those buckets.
//! Commands that share a key share a bucket, so Theorem 1 holds per bucket: once a
//! majority promised every timestamp up to `s` in a bucket, every command of that bucket
//! at or below `s` is known here. A command that touches no key of a busy bucket never
//! waits for the promises made there, which is what the paper's implementation gets from
//! keeping a clock per key (DESIGN.md §3). One bucket is the scalar clock of Algorithm 1.
//!
//! [`Stability`] registers its own promises as it makes them and buffers them for the next
//! `MPromises` (footnote 2: a promise is sent once in the absence of failures). Peers'
//! promises all go through [`Stability::absorb`], where an attached one waits behind the
//! gate until its command commits here (Algorithm 2, line 47), and then counts in each of
//! the command's buckets. Own attachments also *pin* their buckets' safe frontiers claimed
//! in `MPromises` below them until their command is executed at every shard peer. `Tempo`
//! says which dots committed, persists the clock floor and ships what this produces.

use crate::messages::PromiseBundle;
use crate::promises::{PerBucket, PromiseRange, PromiseTracker};
use std::collections::{BTreeMap, BTreeSet};
use tempo_kernel::command::{Command, Key};
use tempo_kernel::id::{Dot, ProcessId, ShardId};
use tempo_store::DecodeError;

/// `log2` of [`BUCKETS`].
const BUCKET_BITS: u32 = 12;

/// How many buckets a shard's keys fall into: one clock, one promise track and one
/// execution line each. A constant, not an option: every replica of a shard must map a
/// key to the same bucket, and the formats carry bucket numbers.
pub const BUCKETS: u64 = 1 << BUCKET_BITS;

/// A bucket number, in `0..BUCKETS`.
pub type Bucket = u64;

/// The bucket of `key`: the top bits of a multiplicative (Fibonacci) hash. `key % BUCKETS`
/// would fold structured keys onto a few buckets — the microbenchmark's cold keys are
/// `client · 10⁹ + n`, and `10⁹ mod 4096 = 2560` puts every client's n-th key in one of
/// eight buckets.
pub fn bucket_of(key: Key) -> Bucket {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BUCKET_BITS)
}

/// Checks a bucket number read from outside this process — a peer's message or this
/// replica's store, both of which write buckets in 16 bits: one at or past [`BUCKETS`]
/// was written by a build with another bucket count.
pub fn check_bucket(bucket: Bucket) -> Result<Bucket, DecodeError> {
    if bucket < BUCKETS {
        Ok(bucket)
    } else {
        Err(DecodeError::Invalid("bucket"))
    }
}

/// A command's buckets on one shard, sorted and distinct; the common single bucket is
/// held inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Buckets {
    /// The one bucket.
    One(Bucket),
    /// Two buckets or more.
    Many(Box<[Bucket]>),
}

impl Buckets {
    /// The buckets of `cmd`'s keys on `shard`.
    pub fn of(cmd: &Command, shard: ShardId) -> Self {
        match cmd.ops_of(shard) {
            [(key, _)] => Buckets::One(bucket_of(*key)),
            ops => ops.iter().map(|(key, _)| bucket_of(*key)).collect(),
        }
    }
}

impl FromIterator<Bucket> for Buckets {
    fn from_iter<I: IntoIterator<Item = Bucket>>(buckets: I) -> Self {
        let mut buckets: Vec<Bucket> = buckets.into_iter().collect();
        buckets.sort_unstable();
        buckets.dedup();
        match buckets[..] {
            [bucket] => Buckets::One(bucket),
            _ => Buckets::Many(buckets.into()),
        }
    }
}

impl std::ops::Deref for Buckets {
    type Target = [Bucket];

    fn deref(&self) -> &[Bucket] {
        match self {
            Buckets::One(bucket) => std::slice::from_ref(bucket),
            Buckets::Many(buckets) => buckets,
        }
    }
}

/// Promises reported by a peer, in the shape of the message that carried them.
#[derive(Debug)]
pub enum Report {
    /// `Bundle(dot, bundle)`, from an `MCommit`: the detached ranges and the attachments
    /// to `dot` that its fast quorum made while proposing.
    Bundle(Dot, PromiseBundle),
    /// `Promises(from, frontiers, detached, attached)`, from an `MPromises`: `from`
    /// promised all of `[1, frontier]` in each bucket of `frontiers` (its safe frontier
    /// there: every attachment below it is executed at every shard peer), the `detached`
    /// ranges and the `attached` ones.
    Promises(
        ProcessId,
        Vec<(Bucket, u64)>,
        Vec<(Bucket, PromiseRange)>,
        Vec<(Dot, u64)>,
    ),
    /// `Repair(from, clocks, pending)`, from an `MPromiseRepair`: in each bucket of
    /// `clocks`, `from` promised all of `[1, clock]`, the `(bucket, timestamp, dot)`
    /// entries of `pending` as attachments (sorted).
    Repair(ProcessId, Vec<(Bucket, u64)>, Vec<(Bucket, u64, Dot)>),
}

/// The `MPromises` payload: unsent detached and attached promises, and the safe
/// frontiers that moved.
pub type Outgoing = (
    Vec<(Bucket, PromiseRange)>,
    Vec<(Dot, u64)>,
    Vec<(Bucket, u64)>,
);

/// The `MPromiseRepair` payload: per bucket with a clock, the clock, and the pinned
/// attachments as `(bucket, timestamp, dot)`.
pub type Repair = (Vec<(Bucket, u64)>, Vec<(Bucket, u64, Dot)>);

/// What the caller of [`Stability::absorb`] knows of the command an attachment is
/// attached to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gating {
    /// It committed here, on these buckets: the attachment counts at once.
    Counts(Buckets),
    /// It has not: the attachment waits for its commit.
    Waits,
    /// It was collected (executed at every shard peer) and its payload is gone: the
    /// attachment is dropped, and the sender's safe frontier covers it later.
    Collected,
}

/// `Stability::listed` bit: the bucket is in `Stability::moved`.
const MOVED: u8 = 1;
/// `Stability::listed` bit: the bucket is in `Stability::risen`.
const RISEN: u8 = 2;

/// The clocks, the promise tracks and the commit gate of one Tempo process.
#[derive(Debug)]
pub struct Stability {
    process: ProcessId,
    /// The clocks; the next proposal in a bucket is at least its clock + 1.
    clocks: PerBucket<u64>,
    /// The `Promises` variable of Algorithm 2, one track per bucket.
    promises: PromiseTracker,
    /// The highest safe frontiers already broadcast (to skip no-news sends).
    sent_frontiers: PerBucket<u64>,
    /// Which of `moved` and `risen` list the bucket ([`MOVED`], [`RISEN`]).
    listed: PerBucket<u8>,
    /// The highest clock over the buckets: the floor a restart must stay above.
    clock: u64,
    /// A clock floor restored from durable state: every bucket's clock is at least this,
    /// with nothing promised under it.
    restored: u64,
    /// Detached promises made by bumps and not yet broadcast.
    unsent_detached: Vec<(Bucket, PromiseRange)>,
    /// Attached promises made and not yet broadcast.
    unsent_attached: Vec<(Dot, u64)>,
    /// Attached promises to commands not committed here yet, by command (line 47).
    gated: BTreeMap<Dot, Vec<(ProcessId, u64)>>,
    /// This process's attachments not yet forgotten: timestamp and buckets, by dot.
    pins: BTreeMap<Dot, (u64, Buckets)>,
    /// The same attachments in each of their buckets, as `(bucket, timestamp, dot)`: a
    /// bucket's safe frontier stays below its smallest.
    pinned: BTreeSet<(Bucket, u64, Dot)>,
    /// Buckets whose safe frontier may have moved since the last `take_outgoing`.
    moved: Vec<Bucket>,
    /// Buckets whose stable timestamp rose since the last `take_risen`.
    risen: Vec<Bucket>,
    /// Whether this incarnation claims no frontier (see [`Stability::claim_nothing`]).
    claims_nothing: bool,
}

impl Stability {
    /// Clocks at zero for `process` of `shard_peers`; a timestamp is stable in a bucket
    /// once the `stability_index`-th smallest promise prefix there reaches it.
    pub fn new(process: ProcessId, shard_peers: &[ProcessId], stability_index: usize) -> Self {
        let tracks = BUCKETS as usize;
        Self {
            process,
            clocks: PerBucket::new(tracks),
            promises: PromiseTracker::with_tracks(shard_peers, stability_index, tracks),
            sent_frontiers: PerBucket::new(tracks),
            listed: PerBucket::new(tracks),
            clock: 0,
            restored: 0,
            unsent_detached: Vec::new(),
            unsent_attached: Vec::new(),
            gated: BTreeMap::new(),
            pins: BTreeMap::new(),
            pinned: BTreeSet::new(),
            moved: Vec::new(),
            risen: Vec::new(),
            claims_nothing: false,
        }
    }

    /// The highest clock over every bucket.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The clock of `bucket`.
    pub fn clock_of(&self, bucket: Bucket) -> u64 {
        self.clocks[bucket as usize].max(self.restored)
    }

    /// The highest clock over `buckets`.
    pub fn clock_over(&self, buckets: &[Bucket]) -> u64 {
        let clocks = buckets.iter().map(|b| self.clock_of(*b));
        clocks.max().unwrap_or(self.restored)
    }

    /// The highest stable timestamp of `bucket` (Theorem 1).
    pub fn stable_timestamp(&self, bucket: Bucket) -> u64 {
        self.promises.stable_in(bucket as usize)
    }

    /// Lists `bucket` in `moved` (`MOVED`) or `risen` (`RISEN`), once.
    fn list(&mut self, bucket: Bucket, which: u8) {
        let listed = &mut self.listed[bucket as usize];
        if *listed & which == 0 {
            *listed |= which;
            match which {
                MOVED => self.moved.push(bucket),
                _ => self.risen.push(bucket),
            }
        }
    }

    /// Moves the buckets whose stable timestamp rose since the last call into `risen`,
    /// each with its stable timestamp now.
    pub fn take_risen(&mut self, risen: &mut Vec<(Bucket, u64)>) {
        for &bucket in &self.risen {
            self.listed[bucket as usize] &= !RISEN;
            risen.push((bucket, self.stable_timestamp(bucket)));
        }
        self.risen.clear();
    }

    /// Proposes a timestamp for `dot`, which touches `buckets`, given the coordinator's
    /// proposal `min` (Algorithm 1, lines 34-39): `max(min, clock + 1)` over the highest
    /// clock of those buckets, to which each of them moves. Each bucket's skipped range
    /// `[clock + 1, t - 1]` is a detached promise; returned for the `MProposeAck`, it
    /// reaches every replica in the `MCommit` bundle. `⟨self, t⟩` is an attached promise,
    /// gated until `dot` commits here and pinning the buckets' frontiers below `t` until
    /// `dot` is forgotten.
    pub fn propose(
        &mut self,
        dot: Dot,
        min: u64,
        buckets: &Buckets,
    ) -> (u64, Vec<(Bucket, PromiseRange)>) {
        let t = min.max(self.clock_over(buckets) + 1);
        let mut detached = Vec::new();
        for &bucket in buckets.iter() {
            let clock = self.clock_of(bucket);
            if t > clock + 1 {
                let range = PromiseRange::new(clock + 1, t - 1);
                self.promise(bucket, self.process, range);
                detached.push((bucket, range));
            }
            self.set_clock(bucket, t);
        }
        self.unsent_attached.push((dot, t));
        self.admit(dot, self.process, t, &Gating::Waits);
        if !self.pins.contains_key(&dot) {
            for &bucket in buckets.iter() {
                // Proposals come off a strictly increasing clock, so no two dots ever
                // share an attached timestamp in a bucket (timestamp uniqueness,
                // Property 1's premise).
                debug_assert!(
                    self.pinned_in(bucket)
                        .next_back()
                        .is_none_or(|(_, ts, _)| *ts < t),
                    "timestamp {t} attached to a second dot in bucket {bucket}"
                );
                self.pinned.insert((bucket, t, dot));
            }
            self.pins.insert(dot, (t, buckets.clone()));
        }
        (t, detached)
    }

    /// Bumps the clocks of `buckets` to at least `t` (Algorithm 1, lines 40-43),
    /// promising each skipped range `[clock + 1, t]`, which the next flush broadcasts: the
    /// peers' stability may be waiting for it. Returns whether a clock moved.
    pub fn bump(&mut self, buckets: &[Bucket], t: u64) -> bool {
        let mut moved = false;
        for &bucket in buckets {
            let clock = self.clock_of(bucket);
            if t > clock {
                let range = PromiseRange::new(clock + 1, t);
                self.promise(bucket, self.process, range);
                self.unsent_detached.push((bucket, range));
                self.set_clock(bucket, t);
                moved = true;
            }
        }
        moved
    }

    /// Raises every clock to at least `t` *without* promising anything: the replay of a
    /// durable clock floor or commit, whose range belongs to a previous life.
    pub fn restore(&mut self, t: u64) {
        self.restored = self.restored.max(t);
        self.clock = self.clock.max(t);
    }

    fn set_clock(&mut self, bucket: Bucket, t: u64) {
        self.clocks[bucket as usize] = t;
        self.clock = self.clock.max(t);
        self.list(bucket, MOVED);
    }

    /// From now on this incarnation claims nothing (no frontier, no `MPromiseRepair`): a
    /// restarted or restored one cannot enumerate its previous life's in-flight attached
    /// proposals, so any prefix claim could cover an attachment still gated at a peer and
    /// let a *healthy* replica's stability pass an uncommitted command (DESIGN.md §5).
    /// Its prefixes at the peers stall; stability proceeds through the other replicas.
    pub fn claim_nothing(&mut self) {
        self.claims_nothing = true;
    }

    /// Whether this incarnation claims nothing: it restarted, or was restored.
    pub fn claims_nothing(&self) -> bool {
        self.claims_nothing
    }

    /// Absorbs a peer's promises. `gating(dot)` says whether `dot` is committed here — its
    /// attachments then count at once in its buckets — or whether they wait for
    /// [`Self::commit`], or are dropped because `dot` was collected.
    pub fn absorb(&mut self, report: Report, mut gating: impl FnMut(Dot) -> Gating) {
        match report {
            Report::Bundle(dot, bundle) => {
                for (process, bucket, range) in bundle.detached {
                    self.promise(bucket, process, range);
                }
                let gating = gating(dot);
                for (process, ts) in bundle.attached {
                    self.admit(dot, process, ts, &gating);
                }
            }
            Report::Promises(from, frontiers, detached, attached) => {
                for (bucket, frontier) in frontiers {
                    if frontier >= 1 {
                        self.promise(bucket, from, PromiseRange::new(1, frontier));
                    }
                }
                for (bucket, range) in detached {
                    self.promise(bucket, from, range);
                }
                for (dot, ts) in attached {
                    self.admit(dot, from, ts, &gating(dot));
                }
            }
            Report::Repair(from, clocks, pending) => {
                let mut pending = pending.into_iter().peekable();
                for (bucket, clock) in clocks {
                    let mut next = 1;
                    while let Some((at, ts, dot)) = pending.next_if(|(b, _, _)| *b <= bucket) {
                        if at < bucket || ts > clock {
                            continue; // Past the clock, or of a bucket without one.
                        }
                        if ts > next {
                            self.promise(bucket, from, PromiseRange::new(next, ts - 1));
                        }
                        self.admit(dot, from, ts, &gating(dot));
                        next = next.max(ts + 1);
                    }
                    if next <= clock {
                        self.promise(bucket, from, PromiseRange::new(next, clock));
                    }
                }
            }
        }
    }

    /// Adds `process`'s promise in `bucket`.
    fn promise(&mut self, bucket: Bucket, process: ProcessId, range: PromiseRange) {
        if self.promises.add_in(bucket as usize, process, range) {
            self.list(bucket, RISEN);
        }
    }

    /// The commit gate: an attachment to a committed command counts, any other waits.
    fn admit(&mut self, dot: Dot, process: ProcessId, ts: u64, gating: &Gating) {
        match gating {
            Gating::Counts(buckets) => {
                for &bucket in buckets.iter() {
                    self.promise(bucket, process, PromiseRange::single(ts));
                }
            }
            Gating::Waits => {
                let attached = self.gated.entry(dot).or_default();
                if !attached.contains(&(process, ts)) {
                    attached.push((process, ts));
                }
            }
            Gating::Collected => {}
        }
    }

    /// `dot` committed here, on `buckets`: its gated attachments count from now on, in
    /// each of them (line 47).
    pub fn commit(&mut self, dot: Dot, buckets: &[Bucket]) {
        if let Some(attached) = self.gated.remove(&dot) {
            for (process, ts) in attached {
                for &bucket in buckets {
                    self.promise(bucket, process, PromiseRange::single(ts));
                }
            }
        }
    }

    /// `dot` was collected (executed at every shard peer): it gates nothing and no longer
    /// pins any frontier. A dot executed only here needs nothing; its commit ungated it.
    pub fn forget(&mut self, dot: Dot) {
        self.gated.remove(&dot);
        if let Some((ts, buckets)) = self.pins.remove(&dot) {
            for &bucket in buckets.iter() {
                self.pinned.remove(&(bucket, ts, dot));
                self.list(bucket, MOVED);
            }
        }
    }

    /// Whether detached promises are waiting for the next flush (see [`Self::bump`]).
    pub fn flush_due(&self) -> bool {
        !self.unsent_detached.is_empty()
    }

    /// The safe frontier of `bucket`: every timestamp up to it is promised there by this
    /// process, and every attached one among them belongs to a command executed at every
    /// shard peer.
    fn frontier(&self, bucket: Bucket) -> u64 {
        if self.claims_nothing {
            return 0;
        }
        let clock = self.clock_of(bucket);
        match self.pinned_in(bucket).next() {
            Some((_, ts, _)) => clock.min(ts - 1),
            None => clock,
        }
    }

    /// This process's pinned attachments in `bucket`, lowest first.
    fn pinned_in(&self, bucket: Bucket) -> impl DoubleEndedIterator<Item = &(Bucket, u64, Dot)> {
        self.pinned
            .range((bucket, 0, Dot::new(0, 0))..(bucket + 1, 0, Dot::new(0, 0)))
    }

    /// Takes the `MPromises` payload (Algorithm 2, line 45) — the unsent detached and
    /// attached promises and the safe frontiers that advanced since they were last sent —
    /// or `None` when there is nothing new to say and no caller `news`.
    pub fn take_outgoing(&mut self, news: bool) -> Option<Outgoing> {
        let mut frontiers = Vec::new();
        let mut moved = std::mem::take(&mut self.moved);
        for bucket in moved.drain(..) {
            let frontier = self.frontier(bucket);
            self.listed[bucket as usize] &= !MOVED;
            // Attachments land above the clock they were drawn from, so the claimed
            // prefix only grows (per-process promise monotonicity).
            let sent = &mut self.sent_frontiers[bucket as usize];
            if frontier > *sent {
                *sent = frontier;
                frontiers.push((bucket, frontier));
            }
        }
        self.moved = moved;
        let unsent = !self.unsent_detached.is_empty() || !self.unsent_attached.is_empty();
        if !(news || unsent || !frontiers.is_empty()) {
            return None;
        }
        let detached = std::mem::take(&mut self.unsent_detached);
        let attached = std::mem::take(&mut self.unsent_attached);
        Some((detached, attached, frontiers))
    }

    /// Drops the promises not yet broadcast (a rejoining incarnation's floor bumps: they
    /// cover the previous life's range, see [`Self::claim_nothing`]).
    pub fn discard_outgoing(&mut self) {
        self.unsent_detached.clear();
        self.unsent_attached.clear();
    }

    /// The `MPromiseRepair` payload — per bucket with a clock, the clock, and the pinned
    /// attachments, i.e. "all of `[1, clock]` there but these" — or `None` if this
    /// incarnation claims nothing.
    pub fn repair_report(&self) -> Option<Repair> {
        if self.claims_nothing {
            return None;
        }
        let mut clocks = Vec::new();
        for bucket in 0..BUCKETS {
            let clock = self.clocks[bucket as usize];
            if clock > 0 {
                clocks.push((bucket, clock));
            }
        }
        Some((clocks, self.pinned.iter().copied().collect()))
    }

    /// The `MRejoinAck` payload for a rejoining `peer`: the highest clock, the highest
    /// promise ever heard from `peer` and every shard member's contiguous prefix in each
    /// bucket where it has one.
    pub fn rejoin_report(&self, peer: ProcessId) -> (u64, u64, Vec<(Bucket, ProcessId, u64)>) {
        let (mut highest, mut prefixes) = (0, Vec::new());
        let members = self.promises.processes();
        let peer = members.binary_search(&peer).ok();
        for bucket in 0..BUCKETS {
            let track = bucket as usize;
            if let Some(peer) = peer {
                highest = highest.max(self.promises.highest_in(track, peer));
            }
            for (index, &process) in members.iter().enumerate() {
                let prefix = self.promises.prefix_in(track, index);
                if prefix > 0 {
                    prefixes.push((bucket, process, prefix));
                }
            }
        }
        (self.clock, highest, prefixes)
    }

    /// Absorbs one `MRejoinAck`: every clock bumps to `floor` (past the replier's clocks
    /// and all this process was heard promising) and the replier's prefixes seed the
    /// tracks. Returns whether a clock moved.
    pub fn absorb_rejoin(&mut self, floor: u64, prefixes: Vec<(Bucket, ProcessId, u64)>) -> bool {
        let every: Vec<Bucket> = (0..BUCKETS).collect();
        let moved = self.bump(&every, floor);
        for (bucket, process, prefix) in prefixes {
            if prefix >= 1 {
                self.promise(bucket, process, PromiseRange::new(1, prefix));
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::rand::Rng;

    fn dot(seq: u64) -> Dot {
        Dot::new(1, seq)
    }

    fn alone() -> Stability {
        Stability::new(0, &[0, 1, 2], 1)
    }

    const A: Buckets = Buckets::One(3);

    #[test]
    fn proposal_takes_max_of_min_and_clock() {
        let mut s = alone();
        // Coordinator proposal: clock 0 -> proposes 1.
        assert_eq!(s.propose(dot(1), 0, &A), (1, vec![]));
        assert_eq!(s.clock_of(3), 1);
        // A proposal with a higher coordinator value jumps the clock.
        assert_eq!(
            s.propose(dot(2), 10, &A),
            (10, vec![(3, PromiseRange::new(2, 9))])
        );
        assert_eq!(s.clock_of(3), 10);
        // A proposal with a lower coordinator value still advances by one.
        assert_eq!(s.propose(dot(3), 2, &A).0, 11);
        // Other buckets' clocks did not move; a two-bucket command takes the higher.
        assert_eq!(s.clock_of(4), 0);
        let both: Buckets = [3, 4].into_iter().collect();
        assert_eq!(
            s.propose(dot(4), 0, &both),
            (12, vec![(4, PromiseRange::new(1, 11))])
        );
        assert_eq!((s.clock_of(3), s.clock_of(4), s.clock()), (12, 12, 12));
    }

    #[test]
    fn table1_example_b_clock_6_to_7() {
        // Table 1: process B has Clock = 6 and receives the coordinator proposal 6;
        // it bumps from 6 to 7 and proposes 7.
        let mut s = alone();
        s.bump(&A, 6);
        s.discard_outgoing();
        // No detached promises: the clock moved by exactly one.
        assert_eq!(s.propose(dot(1), 6, &A), (7, vec![]));
        let (detached, attached, _) = s.take_outgoing(false).expect("an attachment is news");
        assert!(detached.is_empty());
        assert_eq!(attached, vec![(dot(1), 7)]);
    }

    #[test]
    fn table1_example_d_process_c_generates_detached_promises() {
        // Table 1 d): process C has Clock = 1 and receives proposal 6: it proposes 6 and
        // generates detached promises 2, 3, 4, 5 (§3.2 "Promise collection").
        let mut s = alone();
        s.bump(&A, 1);
        s.discard_outgoing();
        let range = (3, PromiseRange::new(2, 5));
        assert_eq!(s.propose(dot(9), 6, &A), (6, vec![range]));
        // The detached range leaves with the `MProposeAck`, the attachment with the next
        // `MPromises`.
        let (detached, attached, _) = s.take_outgoing(false).expect("promises are news");
        assert!(detached.is_empty());
        assert_eq!(attached, vec![(dot(9), 6)]);
    }

    #[test]
    fn bump_generates_detached_up_to_target() {
        let mut s = alone();
        s.propose(dot(1), 0, &A);
        s.discard_outgoing();
        // Committing a command with timestamp 5 bumps the clock and promises 2..=5.
        assert!(s.bump(&A, 5));
        let (detached, _, _) = s.take_outgoing(false).expect("a bump is news");
        assert_eq!(detached, vec![(3, PromiseRange::new(2, 5))]);
        // Bumping to a lower or equal value is a no-op.
        assert!(!s.bump(&A, 3));
        assert!(!s.flush_due());
        assert_eq!(s.clock_of(3), 5);
    }

    #[test]
    fn has_unsent_detached_tracks_the_buffer() {
        let mut s = alone();
        assert!(!s.flush_due());
        s.propose(dot(1), 0, &A);
        assert!(!s.flush_due(), "attached promises are not detached ones");
        assert!(s.take_outgoing(false).is_some());
        assert!(s.take_outgoing(false).is_none(), "nothing new to say");
        s.bump(&A, 10);
        assert!(s.flush_due());
        s.take_outgoing(false).expect("a bump is news");
        assert!(!s.flush_due());
    }

    /// Process 0 of `{0, 1, 2}` with its own prefix at 10 in buckets 3 and 4, and peer 1
    /// reporting everything up to 10 in both, but in bucket 3 an attachment at 5 to `x`,
    /// which has not committed here. Peer 2 reported nothing, so stability needs peer 1.
    fn one_gate() -> (Stability, Dot) {
        let x = Dot::new(2, 1);
        let mut s = Stability::new(0, &[0, 1, 2], 1);
        s.bump(&[3, 4], 10);
        let detached = vec![(3, PromiseRange::new(6, 10))];
        let report = Report::Promises(1, vec![(3, 4), (4, 10)], detached, vec![(x, 5)]);
        s.absorb(report, |_| Gating::Waits);
        (s, x)
    }

    #[test]
    fn an_uncommitted_conflicting_attachment_at_or_below_ts_blocks() {
        let (mut s, x) = one_gate();
        assert_eq!(s.stable_timestamp(3), 4, "held below the attachment");
        s.commit(x, &[3]);
        assert_eq!(s.stable_timestamp(3), 10);
    }

    #[test]
    fn a_non_conflicting_attachment_counts_at_once() {
        // `x`'s attachment waits in bucket 3; bucket 4 is stable past it at once.
        let (s, _) = one_gate();
        assert_eq!(s.stable_timestamp(4), 10);
        let mut risen = Vec::new();
        let mut s = s;
        s.take_risen(&mut risen);
        risen.sort_unstable();
        assert_eq!(risen, [(3, 4), (4, 10)]);
    }

    #[test]
    fn a_tie_at_the_timestamp_blocks() {
        // The attachment sits at 5: timestamp 5 itself is not stable in its bucket.
        let (s, _) = one_gate();
        assert!(s.stable_timestamp(3) < 5);
    }

    #[test]
    fn a_commands_own_attachments_never_block_it() {
        // Process 0 proposes 11 for `y` (bucket 4) and peer 1 attaches 11 to it too; `y`
        // commits at 11, the timestamp both attachments sit on, and is stable there.
        let (mut s, _) = one_gate();
        let y = Dot::new(0, 1);
        assert_eq!(s.propose(y, 11, &Buckets::One(4)), (11, vec![]));
        let attached = vec![(y, 11)];
        s.absorb(Report::Promises(1, vec![], vec![], attached), |_| {
            Gating::Waits
        });
        assert_eq!(s.stable_timestamp(4), 10, "uncommitted, 11 is a hole");
        s.commit(y, &[4]);
        assert_eq!(s.stable_timestamp(4), 11);
    }

    #[test]
    fn frontiers_and_repairs_are_per_bucket() {
        let mut s = alone();
        s.bump(&[3], 4);
        let (t, _) = s.propose(dot(1), 0, &Buckets::One(7));
        assert_eq!(t, 1);
        let (_, _, frontiers) = s.take_outgoing(false).expect("news");
        assert_eq!(
            frontiers,
            [(3, 4)],
            "bucket 7 is pinned below its attachment"
        );
        assert_eq!(
            s.repair_report(),
            Some((vec![(3, 4), (7, 1)], vec![(7, 1, dot(1))]))
        );
        s.forget(dot(1));
        let (_, _, frontiers) = s.take_outgoing(false).expect("the pin went");
        assert_eq!(frontiers, [(7, 1)]);
        assert!(s.take_outgoing(false).is_none());
    }

    /// The buckets a dot's command touches in the property test: one or two of four.
    fn buckets_of(dot: Dot) -> Buckets {
        let mut buckets = vec![(dot.source * 7 + dot.sequence) % 4];
        if dot.sequence.is_multiple_of(3) {
            buckets.push((dot.source + 1) % 4);
        }
        buckets.into_iter().collect()
    }

    /// The reference the property test holds `Stability` to: per bucket, one set of
    /// promised timestamps per process; attachments that count in each of their
    /// command's buckets only once it committed; and per bucket, stability as the
    /// highest timestamp a majority's contiguous prefixes reach.
    struct Model {
        clocks: [u64; 4],
        /// `promised[bucket][process]`.
        promised: Vec<Vec<BTreeSet<u64>>>,
        gated: Vec<(Dot, ProcessId, u64)>,
        /// Committed (or collected) dots.
        committed: BTreeSet<Dot>,
        /// Collected dots.
        collected: BTreeSet<Dot>,
        /// This process's attachments not yet forgotten.
        pinned: BTreeMap<Dot, u64>,
        /// Attachments that waited behind the gate and then counted.
        released: u64,
        /// Detached promises of bumps not yet broadcast.
        unsent: Vec<(Bucket, PromiseRange)>,
    }

    impl Model {
        fn promise(&mut self, bucket: Bucket, process: ProcessId, from: u64, to: u64) {
            self.promised[bucket as usize][process as usize].extend(from..=to);
        }

        fn attach(&mut self, dot: Dot, process: ProcessId, ts: u64) {
            if self.collected.contains(&dot) {
                return;
            }
            if self.committed.contains(&dot) {
                for &b in buckets_of(dot).iter() {
                    self.promised[b as usize][process as usize].insert(ts);
                }
            } else {
                self.gated.push((dot, process, ts));
            }
        }

        fn commit(&mut self, dot: Dot) {
            self.committed.insert(dot);
            let (now, still): (Vec<_>, Vec<_>) = self.gated.drain(..).partition(|g| g.0 == dot);
            self.gated = still;
            for (_, process, ts) in now {
                for &b in buckets_of(dot).iter() {
                    self.promised[b as usize][process as usize].insert(ts);
                }
                self.released += 1;
            }
        }

        fn prefixes(&self, bucket: usize) -> Vec<u64> {
            let prefix = |set: &BTreeSet<u64>| (1..).take_while(|ts| set.contains(ts)).count();
            self.promised[bucket]
                .iter()
                .map(|set| prefix(set) as u64)
                .collect()
        }

        fn stable(&self, bucket: usize) -> u64 {
            let mut prefixes = self.prefixes(bucket);
            prefixes.sort_unstable_by(|a, b| b.cmp(a));
            prefixes[prefixes.len() / 2]
        }
    }

    /// One seeded interleaving of every operation at process 0 of an `n`-process shard,
    /// over commands on one or two of four buckets, checked against [`Model`] after each
    /// step. Returns the final stable timestamps, how many attachments the gate held and
    /// then released, and whether the buckets told apart: at some step one bucket was
    /// stable past another's stable timestamp.
    fn interleaving(n: u64, seed: u64, restored: bool) -> ([u64; 4], u64, bool) {
        let mut rng = Rng::new(seed);
        let peers: Vec<ProcessId> = (0..n).collect();
        let mut s = Stability::new(0, &peers, (n / 2) as usize);
        if restored {
            s.claim_nothing();
        }
        let mut m = Model {
            clocks: [0; 4],
            promised: vec![vec![BTreeSet::new(); n as usize]; 4],
            gated: Vec::new(),
            committed: BTreeSet::new(),
            collected: BTreeSet::new(),
            pinned: BTreeMap::new(),
            released: 0,
            unsent: Vec::new(),
        };
        let mut apart = false;
        let mut dots: Vec<Dot> = Vec::new();
        let mut sent_frontiers = [0u64; 4];
        for step in 0..80 {
            // A known dot most of the time, a fresh one otherwise.
            let pick = |rng: &mut Rng, dots: &mut Vec<Dot>| {
                if dots.is_empty() || rng.gen_bool(0.3) {
                    dots.push(Dot::new(1 + rng.gen_range(n), step + 1));
                }
                *rng.choose(dots)
            };
            let peer = 1 + rng.gen_range(n - 1);
            let top = *m.clocks.iter().max().expect("four buckets");
            let (committed, collected) = (m.committed.clone(), m.collected.clone());
            let gating = |dot: Dot| match (collected.contains(&dot), committed.contains(&dot)) {
                (true, _) => Gating::Collected,
                (false, true) => Gating::Counts(buckets_of(dot)),
                (false, false) => Gating::Waits,
            };
            match rng.gen_range(9) {
                0 => {
                    let dot = Dot::new(0, step + 1);
                    let buckets = buckets_of(dot);
                    let clock = buckets.iter().map(|b| m.clocks[*b as usize]).max();
                    let clock = clock.expect("a bucket");
                    let min = clock.saturating_sub(2) + rng.gen_range(6);
                    let t = min.max(clock + 1);
                    let mut detached = Vec::new();
                    for &b in buckets.iter() {
                        let c = m.clocks[b as usize];
                        if t > c + 1 {
                            m.promise(b, 0, c + 1, t - 1);
                            detached.push((b, PromiseRange::new(c + 1, t - 1)));
                        }
                        m.clocks[b as usize] = t;
                    }
                    assert_eq!(s.propose(dot, min, &buckets), (t, detached));
                    m.attach(dot, 0, t);
                    m.pinned.insert(dot, t);
                    dots.push(dot);
                }
                1 => {
                    let b = rng.gen_range(4);
                    let c = m.clocks[b as usize];
                    let t = c.saturating_sub(2) + rng.gen_range(6);
                    assert_eq!(s.bump(&[b], t), t > c);
                    if t > c {
                        m.promise(b, 0, c + 1, t);
                        m.unsent.push((b, PromiseRange::new(c + 1, t)));
                        m.clocks[b as usize] = t;
                    }
                }
                2 => {
                    let frontiers: Vec<(Bucket, u64)> = (0..rng.gen_range(3))
                        .map(|_| (rng.gen_range(4), rng.gen_range(top + 3)))
                        .collect();
                    let start = 1 + rng.gen_range(top + 5);
                    let range = PromiseRange::new(start, start + rng.gen_range(4));
                    let bucket = rng.gen_range(4);
                    let attached: Vec<(Dot, u64)> = (0..rng.gen_range(3))
                        .map(|_| (pick(&mut rng, &mut dots), 1 + rng.gen_range(top + 5)))
                        .collect();
                    for &(b, frontier) in &frontiers {
                        m.promise(b, peer, 1, frontier);
                    }
                    m.promise(bucket, peer, range.start, range.end);
                    for &(dot, ts) in &attached {
                        m.attach(dot, peer, ts);
                    }
                    let report = Report::Promises(peer, frontiers, vec![(bucket, range)], attached);
                    s.absorb(report, gating);
                }
                3 => {
                    let dot = pick(&mut rng, &mut dots);
                    let bundle = PromiseBundle {
                        attached: (0..rng.gen_range(n))
                            .map(|_| (rng.gen_range(n), 1 + rng.gen_range(top + 5)))
                            .collect(),
                        detached: (0..rng.gen_range(2))
                            .map(|_| {
                                let start = 1 + rng.gen_range(top + 5);
                                let range = PromiseRange::new(start, start + 2);
                                (rng.gen_range(n), rng.gen_range(4), range)
                            })
                            .collect(),
                    };
                    for &(process, b, range) in &bundle.detached {
                        m.promise(b, process, range.start, range.end);
                    }
                    for &(process, ts) in &bundle.attached {
                        m.attach(dot, process, ts);
                    }
                    s.absorb(Report::Bundle(dot, bundle), gating);
                }
                4 => {
                    let mut clocks = Vec::new();
                    let mut pending = Vec::new();
                    for b in 0..4 {
                        if rng.gen_bool(0.5) {
                            continue;
                        }
                        let clock = rng.gen_range(top + 6);
                        clocks.push((b, clock));
                        let mut stamps: Vec<u64> = (0..rng.gen_range(3))
                            .map(|_| 1 + rng.gen_range(clock + 3))
                            .collect();
                        stamps.sort_unstable();
                        stamps.dedup();
                        for ts in 1..=clock {
                            match stamps.contains(&ts) {
                                true => {
                                    let dot = pick(&mut rng, &mut dots);
                                    m.attach(dot, peer, ts);
                                    pending.push((b, ts, dot));
                                }
                                false => m.promise(b, peer, ts, ts),
                            }
                        }
                        // Entries past the clock are ignored.
                        pending.extend(
                            stamps
                                .iter()
                                .filter(|ts| **ts > clock)
                                .map(|ts| (b, *ts, dot(99))),
                        );
                    }
                    s.absorb(Report::Repair(peer, clocks, pending), gating);
                }
                5 | 6 => {
                    let open: Vec<Dot> = dots
                        .iter()
                        .copied()
                        .filter(|d| !m.committed.contains(d))
                        .collect();
                    if let Some(&dot) = open.get(rng.gen_range(open.len() as u64 + 1) as usize) {
                        s.commit(dot, &buckets_of(dot));
                        m.commit(dot);
                    }
                }
                7 => {
                    // GC collects only what executed everywhere, hence committed here.
                    let done: Vec<Dot> = m.committed.iter().copied().collect();
                    if let Some(&dot) = done.get(rng.gen_range(done.len() as u64 + 1) as usize) {
                        s.forget(dot);
                        m.pinned.remove(&dot);
                        m.collected.insert(dot);
                    }
                }
                _ => {
                    if let Some((detached, _, frontiers)) = s.take_outgoing(rng.gen_bool(0.3)) {
                        assert_eq!(detached, std::mem::take(&mut m.unsent));
                        for (b, frontier) in frontiers {
                            let b = b as usize;
                            assert!(frontier > sent_frontiers[b], "frontier regressed");
                            assert!(frontier <= m.clocks[b]);
                            assert!(
                                m.pinned
                                    .iter()
                                    .filter(|(dot, _)| buckets_of(**dot).contains(&(b as u64)))
                                    .all(|(_, ts)| frontier < *ts),
                                "frontier {frontier} covers a pinned attachment {:?}",
                                m.pinned
                            );
                            assert!(!restored, "a restored instance claimed");
                            sent_frontiers[b] = frontier;
                        }
                    }
                    match s.repair_report() {
                        Some((clocks, pending)) => {
                            assert!(!restored);
                            let expected: Vec<(Bucket, u64)> = (0..4)
                                .filter(|b| m.clocks[*b as usize] > 0)
                                .map(|b| (b, m.clocks[b as usize]))
                                .collect();
                            assert_eq!(clocks, expected);
                            let mut pinned: Vec<(Bucket, u64, Dot)> = m
                                .pinned
                                .iter()
                                .flat_map(|(d, t)| {
                                    buckets_of(*d)
                                        .iter()
                                        .map(|b| (*b, *t, *d))
                                        .collect::<Vec<_>>()
                                })
                                .collect();
                            pinned.sort_unstable();
                            assert_eq!(pending, pinned);
                        }
                        None => assert!(restored),
                    }
                }
            }
            let stable: Vec<u64> = (0..4).map(|b| m.stable(b)).collect();
            for (b, &ts) in (0..).zip(&stable) {
                assert_eq!(
                    s.stable_timestamp(b),
                    ts,
                    "seed {seed}, step {step}: bucket {b}'s stable timestamp diverged from the model"
                );
            }
            let mut risen = Vec::new();
            s.take_risen(&mut risen);
            for (b, ts) in risen {
                assert_eq!(ts, stable[b as usize], "seed {seed}, step {step}: risen");
            }
            apart |= stable.iter().any(|a| stable.iter().any(|b| a > b));
            if step % 8 == 7 {
                let (clock, highest, prefixes) = s.rejoin_report(peer);
                let highest_heard = (0..4)
                    .filter_map(|b| m.promised[b][peer as usize].last().copied())
                    .max()
                    .unwrap_or(0);
                assert_eq!(
                    (clock, highest),
                    (*m.clocks.iter().max().unwrap(), highest_heard)
                );
                for (b, process, prefix) in prefixes {
                    assert_eq!(
                        prefix,
                        m.prefixes(b as usize)[process as usize],
                        "seed {seed}, step {step}"
                    );
                }
                // The whole state, not only what it is summarised into.
                for b in 0..4usize {
                    for (p, promised) in (0..n).zip(&m.promised[b]) {
                        for ts in 1..top + 12 {
                            let heard = s.promises.contains_in(b, p, ts);
                            assert_eq!(heard, promised.contains(&ts));
                        }
                    }
                }
                let gated: BTreeSet<(Dot, ProcessId, u64)> = s
                    .gated
                    .iter()
                    .flat_map(|(dot, attached)| attached.iter().map(|(p, ts)| (*dot, *p, *ts)))
                    .collect();
                assert_eq!(gated, m.gated.iter().copied().collect());
            }
        }
        let stable = [m.stable(0), m.stable(1), m.stable(2), m.stable(3)];
        (stable, m.released, apart)
    }

    /// Runs 300 interleavings (every tenth restored) and checks that they exercised
    /// stability, the gate and the buckets' independence.
    fn interleavings(n: u64, first_seed: u64) {
        let (mut stable, mut released, mut apart) = (0, 0, 0);
        for seed in first_seed..first_seed + 300 {
            let (s, r, a) = interleaving(n, seed, seed % 10 == 9);
            stable += u64::from(s.iter().all(|ts| *ts > 0));
            released += r;
            apart += u64::from(a);
        }
        assert!(stable > 100 && released > 300, "{stable} {released}");
        assert!(apart > 200, "{apart} interleavings told the buckets apart");
    }

    #[test]
    fn stability_matches_a_naive_model_n3() {
        interleavings(3, 0);
    }

    #[test]
    fn stability_matches_a_naive_model_n5() {
        interleavings(5, 1_000);
    }
}

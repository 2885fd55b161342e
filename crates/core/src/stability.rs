//! Timestamp stability — this process's clock, the promises it made and heard, and the
//! line-47 commit gate, owned by one component (Algorithms 1-2, Theorem 1).
//!
//! Every Tempo process keeps a scalar clock from which timestamp proposals are
//! generated. Advancing the clock *uses up* timestamps and therefore produces *promises*:
//!
//! * an **attached** promise `⟨i, t⟩` says that process `i` proposed timestamp `t` for a
//!   specific command and will never use `t` again,
//! * a **detached** promise `⟨i, u⟩` says that process `i` skipped timestamp `u` and will
//!   never propose it for any command.
//!
//! [`Stability`] registers its own promises as it makes them and buffers them for the next
//! `MPromises` (footnote 2: a promise is sent once in the absence of failures). Peers'
//! promises all go through [`Stability::absorb`], where an attached one waits behind the
//! gate until its command commits here (Algorithm 2, line 47). Own attachments also *pin*
//! the safe frontier claimed in `MPromises` below them until their command is executed at
//! every shard peer. `Tempo` says which dots committed, persists clock floors and ships
//! what this produces.
//!
//! The gate answers two questions. [`Stability::stable_timestamp`] is the *strict*
//! watermark, the one execution, the WAL, snapshots and transfers follow: a gated
//! attachment is a hole in its process's prefix, whatever keys its command touches.
//! [`Stability::stable_for`] is *key-scoped*, the one a client reply may follow: an
//! attachment counts toward its process's prefix as soon as it is heard, and a gated one
//! blocks only the commands that share a key with its command on this shard — every
//! command while that payload is unknown here. Theorem 1's argument, restricted to the
//! commands that conflict, is unchanged: a conflicting attachment still counts only once
//! its command has committed here.

use crate::messages::PromiseBundle;
use crate::promises::{PromiseRange, PromiseTracker, SeqSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use tempo_kernel::command::{KVOp, Key};
use tempo_kernel::id::{Dot, ProcessId};

/// Promises reported by a peer, in the shape of the message that carried them.
#[derive(Debug)]
pub enum Report {
    /// `Bundle(dot, bundle)`, from an `MCommit`: the detached ranges and the attachments
    /// to `dot` that its fast quorum made while proposing.
    Bundle(Dot, PromiseBundle),
    /// `Promises(from, frontier, detached, attached)`, from an `MPromises`: `from`
    /// promised all of `[1, frontier]` (its safe frontier: every attachment below it is
    /// executed at every shard peer), the `detached` ranges and the `attached` ones.
    Promises(ProcessId, u64, Vec<PromiseRange>, Vec<(Dot, u64)>),
    /// `Repair(from, clock, pending)`, from an `MPromiseRepair`: `from` promised all of
    /// `[1, clock]`, the timestamps in `pending` as attachments (in timestamp order).
    Repair(ProcessId, u64, Vec<(u64, Dot)>),
}

/// The `MPromises` payload: unsent detached and attached promises, and the safe frontier.
pub type Outgoing = (Vec<PromiseRange>, Vec<(Dot, u64)>, u64);

/// What moved in the key-scoped gate since the last [`Stability::settle`]: a command
/// that was not stable on its keys may be now if its timestamp lies in `reached`, if it
/// touches one of `keys`, or if its timestamp is below `unknown`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Wakes {
    /// `(old, new)`: the timestamp a majority's key-scoped prefixes reach rose from `old`
    /// to `new`.
    pub reached: Option<(u64, u64)>,
    /// The keys of commands whose blocking attachments stopped blocking.
    pub keys: Vec<Key>,
    /// The lowest attachment that blocks every key (to a command whose payload is
    /// unknown here) rose to this timestamp (`u64::MAX`: none is left): everything below
    /// it is clear of such blockers.
    pub unknown: Option<u64>,
}

impl Wakes {
    /// Whether nothing moved.
    pub fn is_empty(&self) -> bool {
        self.reached.is_none() && self.keys.is_empty() && self.unknown.is_none()
    }

    /// Forgets what moved, keeping the allocations.
    pub fn clear(&mut self) {
        self.reached = None;
        self.keys.clear();
        self.unknown = None;
    }
}

/// A command's keys on one shard, sorted and distinct; the common single key is held
/// inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Keys {
    /// The one key.
    One(Key),
    /// Two keys or more.
    Many(Box<[Key]>),
}

impl Keys {
    /// The keys `ops` touch.
    pub fn of(ops: &[(Key, KVOp)]) -> Self {
        match ops {
            [(key, _)] => Keys::One(*key),
            _ => ops.iter().map(|(key, _)| *key).collect::<Vec<_>>().into(),
        }
    }
}

impl From<Vec<Key>> for Keys {
    fn from(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        match keys[..] {
            [key] => Keys::One(key),
            _ => Keys::Many(keys.into()),
        }
    }
}

impl std::ops::Deref for Keys {
    type Target = [Key];

    fn deref(&self) -> &[Key] {
        match self {
            Keys::One(key) => std::slice::from_ref(key),
            Keys::Many(keys) => keys,
        }
    }
}

/// What the caller of [`Stability::absorb`] knows of the command an attachment is
/// attached to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gating {
    /// It committed here (or was collected): the attachment counts at once.
    Counts,
    /// It has not: the attachment waits for its commit, and blocks the commands sharing
    /// one of these keys of this shard meanwhile — every command while its payload is
    /// unknown here (`None`).
    Waits(Option<Keys>),
}

/// The attachments to one command that has not committed here (line 47).
#[derive(Debug, Default)]
struct Gate {
    attached: Vec<(ProcessId, u64)>,
    /// The command's keys on this shard, sorted; `None` while its payload is unknown here.
    keys: Option<Keys>,
    /// How many of `attached`, from the first, the gate is filed for; the rest are
    /// filed at the next settle.
    indexed: usize,
    /// The lowest timestamp among the filed attachments of shard members, under which
    /// the gate is filed by key; 0 while none is.
    low: u64,
}

/// `(ts, dot)` entries by key, each key's in ascending order: a hash map of short sorted
/// lists, since most keys hold one entry or none — a point operation is a hash lookup,
/// where one ordered set over every entry would be a search of the whole.
#[derive(Debug)]
pub(crate) struct ByKey<K> {
    lists: HashMap<K, Vec<(u64, Dot)>>,
}

impl<K> Default for ByKey<K> {
    fn default() -> Self {
        Self {
            lists: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq> ByKey<K> {
    pub(crate) fn insert(&mut self, key: K, entry: (u64, Dot)) {
        let list = self.lists.entry(key).or_default();
        if let Err(at) = list.binary_search(&entry) {
            list.insert(at, entry);
        }
    }

    pub(crate) fn remove(&mut self, key: K, entry: (u64, Dot)) {
        if let Some(list) = self.lists.get_mut(&key) {
            if let Ok(at) = list.binary_search(&entry) {
                list.remove(at);
                if list.is_empty() {
                    self.lists.remove(&key);
                }
            }
        }
    }

    /// The lowest entry under `key`.
    pub(crate) fn first(&self, key: &K) -> Option<(u64, Dot)> {
        self.lists.get(key)?.first().copied()
    }

    /// The lowest entry under `key` above `after`.
    pub(crate) fn first_after(&self, key: &K, after: (u64, Dot)) -> Option<(u64, Dot)> {
        let list = self.lists.get(key)?;
        list.get(list.partition_point(|entry| *entry <= after))
            .copied()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.lists.clear();
    }
}

/// The settled gates by key: each one under each key of its command — under `None`
/// while its payload is unknown — at its lowest attachment.
#[derive(Debug, Default)]
struct Blockers(ByKey<Option<Key>>);

impl Blockers {
    /// Files `dot`'s lowest attachment `ts` under `keys` (`None`: under every key).
    fn file(&mut self, keys: Option<&[Key]>, ts: u64, dot: Dot) {
        match keys {
            None => self.0.insert(None, (ts, dot)),
            Some(keys) => keys
                .iter()
                .for_each(|key| self.0.insert(Some(*key), (ts, dot))),
        }
    }

    fn unfile(&mut self, keys: Option<&[Key]>, ts: u64, dot: Dot) {
        match keys {
            None => self.0.remove(None, (ts, dot)),
            Some(keys) => keys
                .iter()
                .for_each(|key| self.0.remove(Some(*key), (ts, dot))),
        }
    }

    /// The lowest attachment of a gate filed under every key (`u64::MAX`: none).
    fn first_unknown(&self) -> u64 {
        self.0.first(&None).map_or(u64::MAX, |(ts, _)| ts)
    }

    /// Whether some gate filed under `scope` has an attachment at or below `ts`.
    fn blocks(&self, scope: Option<Key>, ts: u64) -> bool {
        self.0.first(&scope).is_some_and(|(low, _)| low <= ts)
    }
}

/// The clock, the promise tracker and the commit gate of one Tempo process.
#[derive(Debug)]
pub struct Stability {
    process: ProcessId,
    /// Current clock value; the next proposal is at least `clock + 1`.
    clock: u64,
    /// Detached promises made and not yet broadcast.
    unsent_detached: Vec<PromiseRange>,
    /// Attached promises made and not yet broadcast.
    unsent_attached: Vec<(Dot, u64)>,
    /// The `Promises` variable of Algorithm 2, this process included: the promises that
    /// count for every command (gated attachments do not).
    promises: PromiseTracker,
    /// Attached promises to commands not committed here yet, by command (line 47).
    gated: BTreeMap<Dot, Gate>,
    /// Gates with attachments not yet filed, in the order they grew (a released one is
    /// skipped at the next settle).
    unsettled: Vec<Dot>,
    /// The settled gates by key.
    blockers: Blockers,
    /// Per process in tracker order, every timestamp it attached (gated or not) or, as of
    /// the last settle, promised: its contiguous part is the key-scoped prefix.
    heard: Vec<SeqSet>,
    /// The highest timestamp a majority of key-scoped prefixes reach, as of the last
    /// settle.
    reached: u64,
    /// The lowest attachment that blocks every key, as of the last settle.
    unknown_from: u64,
    /// Whether a key-scoped prefix may have moved since the last settle.
    touched: bool,
    /// What moved since the last settle.
    wakes: Wakes,
    /// This process's attachments to commands not yet executed at every shard peer, as
    /// `(timestamp, dot)`. The safe frontier stays below the smallest of them.
    attached_pending: BTreeSet<(u64, Dot)>,
    /// Inverse of `attached_pending`, for O(log n) unpinning when a dot is collected.
    attached_ts: BTreeMap<Dot, u64>,
    /// The highest safe frontier already broadcast (to skip no-news sends).
    last_frontier_sent: u64,
    /// Whether this incarnation claims no frontier (see [`Stability::claim_nothing`]).
    claims_nothing: bool,
}

impl Stability {
    /// A clock at zero for `process` of `shard_peers`; a timestamp is stable once the
    /// `stability_index`-th smallest promise prefix reaches it.
    pub fn new(process: ProcessId, shard_peers: &[ProcessId], stability_index: usize) -> Self {
        let promises = PromiseTracker::new(shard_peers, stability_index);
        let n = promises.processes().count();
        Self {
            process,
            clock: 0,
            unsent_detached: Vec::new(),
            unsent_attached: Vec::new(),
            heard: vec![SeqSet::default(); n],
            reached: 0,
            unknown_from: u64::MAX,
            touched: false,
            promises,
            gated: BTreeMap::new(),
            unsettled: Vec::new(),
            blockers: Blockers::default(),
            wakes: Wakes::default(),
            attached_pending: BTreeSet::new(),
            attached_ts: BTreeMap::new(),
            last_frontier_sent: 0,
            claims_nothing: false,
        }
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The highest stable timestamp (Theorem 1): the strict watermark, under which every
    /// attachment to an uncommitted command is a hole.
    pub fn stable_timestamp(&self) -> u64 {
        self.promises.stable_timestamp()
    }

    /// Whether `ts` is stable for a command on `keys` (this shard's, sorted or not) as of
    /// the last [`Self::settle`]: a majority of processes have a key-scoped prefix at
    /// `ts` or above, and no shard member has an attachment at or below `ts` to a command
    /// that has not committed here and shares one of `keys` — or whose payload is
    /// unknown here. A tie at `ts` blocks. The caller's command must have committed here:
    /// its own attachments are then counted, never gated.
    pub fn stable_for(&self, ts: u64, keys: &[Key]) -> bool {
        ts <= self.reached
            && !self.blockers.blocks(None, ts)
            && !keys.iter().any(|key| self.blockers.blocks(Some(*key), ts))
    }

    /// The highest timestamp a majority's key-scoped prefixes reach, as of the last
    /// [`Self::settle`]: no command above it is stable on any keys.
    pub fn reached(&self) -> u64 {
        self.reached
    }

    /// The lowest attachment to a command whose payload is unknown here, as of the last
    /// [`Self::settle`] (`u64::MAX`: none): no command at or above it is stable on any
    /// keys until that payload arrives or the command commits.
    pub fn unknown_from(&self) -> u64 {
        self.unknown_from
    }

    /// Brings the key-scoped state up to date and swaps what moved since the last call
    /// into `wakes`, which the caller cleared (both buffers keep their allocations): the
    /// gates opened or grown since then are filed by key, and every process's key-scoped
    /// prefix takes in what the tracker gained.
    pub fn settle(&mut self, wakes: &mut Wakes) {
        debug_assert!(wakes.is_empty(), "the caller clears the buffer");
        if !self.unsettled.is_empty() {
            self.file();
        }
        if std::mem::take(&mut self.touched) {
            self.hear();
            let reached = self.majority_heard();
            if reached > self.reached {
                self.wakes.reached = Some((self.reached, reached));
                self.reached = reached;
            }
        }
        let unknown_from = self.blockers.first_unknown();
        if unknown_from > self.unknown_from {
            self.wakes.unknown = Some(unknown_from);
        }
        self.unknown_from = unknown_from;
        std::mem::swap(&mut self.wakes, wakes);
    }

    /// The highest timestamp a majority's key-scoped prefixes reach: the highest prefix
    /// that at least `n - ⌊n/2⌋` prefixes reach (a shard is a handful of processes).
    fn majority_heard(&self) -> u64 {
        let needed = self.heard.len() - self.promises.stability_index();
        let prefixes = self.heard.iter().map(SeqSet::contiguous);
        let reaching = |at: u64| prefixes.clone().filter(|heard| *heard >= at).count();
        let majority = prefixes.clone().filter(|at| reaching(*at) >= needed);
        majority.max().unwrap_or(0)
    }

    /// Takes the tracker's promises into `heard`: each process's contiguous prefix, and
    /// whatever runs above it continue the key-scoped prefix (most of the time none).
    fn hear(&mut self) {
        for (index, heard) in self.heard.iter_mut().enumerate() {
            let prefix = self.promises.prefix_at(index);
            if prefix > heard.contiguous() {
                heard.insert_range(1, prefix);
            }
            while let Some(end) = self.promises.run_end(index, heard.contiguous() + 1) {
                heard.insert_range(heard.contiguous() + 1, end);
            }
        }
    }

    /// Files the gates opened or grown since the last settle by key.
    fn file(&mut self) {
        let mut unsettled = std::mem::take(&mut self.unsettled);
        for dot in unsettled.drain(..) {
            let Some(gate) = self.gated.get_mut(&dot) else {
                continue; // Released since it was opened.
            };
            if gate.indexed == gate.attached.len() {
                continue;
            }
            let mut low = u64::MAX;
            for &(process, ts) in &gate.attached[gate.indexed..] {
                if self.promises.index_of(process).is_some() {
                    low = low.min(ts);
                }
            }
            gate.indexed = gate.attached.len();
            if low != u64::MAX && (gate.low == 0 || low < gate.low) {
                if gate.low > 0 {
                    self.blockers.unfile(gate.keys.as_deref(), gate.low, dot);
                }
                self.blockers.file(gate.keys.as_deref(), low, dot);
                gate.low = low;
            }
        }
        self.unsettled = unsettled;
    }

    /// The payload of `dot` is known here now, with `keys` its keys on this shard: an
    /// attachment to it that blocked every key blocks only those from now on.
    pub fn learn(&mut self, dot: Dot, keys: impl FnOnce() -> Keys) {
        let Some(gate) = self.gated.get_mut(&dot) else {
            return;
        };
        if gate.keys.is_some() {
            return;
        }
        let keys = keys();
        if gate.low > 0 {
            self.blockers.unfile(None, gate.low, dot);
            self.blockers.file(Some(&keys), gate.low, dot);
        }
        gate.keys = Some(keys);
    }

    /// Proposes a timestamp for `dot` given the coordinator's proposal `min` (Algorithm
    /// 1, lines 34-39): `max(min, clock + 1)`, to which the clock moves. The skipped range
    /// `[clock + 1, t - 1]` is a detached promise, also returned for the `MProposeAck`;
    /// `⟨self, t⟩` is an attached promise, gated until `dot` commits here and pinning the
    /// frontier below `t` until `dot` is forgotten.
    pub fn propose(&mut self, dot: Dot, min: u64) -> (u64, Option<PromiseRange>) {
        let t = min.max(self.clock + 1);
        let detached = (t > self.clock + 1).then(|| PromiseRange::new(self.clock + 1, t - 1));
        if let Some(range) = detached {
            self.promise(self.process, range);
            self.unsent_detached.push(range);
        }
        self.clock = t;
        self.unsent_attached.push((dot, t));
        self.admit(dot, self.process, t, &Gating::Waits(None));
        if self.attached_ts.insert(dot, t).is_none() {
            // Proposals come off a strictly increasing clock, so no two dots ever share
            // an attached timestamp (timestamp uniqueness, Property 1's premise).
            debug_assert!(
                self.attached_pending.last().is_none_or(|(ts, _)| *ts < t),
                "timestamp {t} attached to a second dot"
            );
            self.attached_pending.insert((t, dot));
        }
        (t, detached)
    }

    /// Bumps the clock to at least `t` (Algorithm 1, lines 40-43), promising the skipped
    /// range `[clock + 1, t]`. Returns whether the clock moved.
    pub fn bump(&mut self, t: u64) -> bool {
        if t <= self.clock {
            return false;
        }
        let range = PromiseRange::new(self.clock + 1, t);
        self.promise(self.process, range);
        self.unsent_detached.push(range);
        self.clock = t;
        true
    }

    /// Raises the clock to at least `t` *without* promising anything: the replay of a
    /// durable clock floor or commit, whose range belongs to a previous life.
    pub fn restore(&mut self, t: u64) {
        self.clock = self.clock.max(t);
    }

    /// From now on this incarnation claims nothing (frontier 0, no `MPromiseRepair`): a
    /// restarted or restored one cannot enumerate its previous life's in-flight attached
    /// proposals, so any prefix claim could cover an attachment still gated at a peer and
    /// let a *healthy* replica's stability pass an uncommitted command (DESIGN.md §5).
    /// Its prefix at the peers stalls; stability proceeds through the other replicas.
    pub fn claim_nothing(&mut self) {
        self.claims_nothing = true;
    }

    /// Absorbs a peer's promises. `gating(dot)` says whether `dot` is committed (or
    /// collected) here — its attachments then count at once — or which keys they block
    /// while they wait for [`Self::commit`].
    pub fn absorb(&mut self, report: Report, mut gating: impl FnMut(Dot) -> Gating) {
        match report {
            Report::Bundle(dot, bundle) => {
                for (process, range) in bundle.detached {
                    self.promise(process, range);
                }
                let gating = gating(dot);
                for (process, ts) in bundle.attached {
                    self.admit(dot, process, ts, &gating);
                }
            }
            Report::Promises(from, frontier, detached, attached) => {
                if frontier >= 1 {
                    self.promise(from, PromiseRange::new(1, frontier));
                }
                for range in detached {
                    self.promise(from, range);
                }
                for (dot, ts) in attached {
                    self.admit(dot, from, ts, &gating(dot));
                }
            }
            Report::Repair(from, clock, pending) => {
                let mut next = 1;
                for (ts, dot) in pending.into_iter().take_while(|(ts, _)| *ts <= clock) {
                    if ts > next {
                        self.promise(from, PromiseRange::new(next, ts - 1));
                    }
                    self.admit(dot, from, ts, &gating(dot));
                    next = next.max(ts + 1);
                }
                if next <= clock {
                    self.promise(from, PromiseRange::new(next, clock));
                }
            }
        }
    }

    /// Adds `process`'s promise to the tracker; `heard` takes it in at the next settle.
    fn promise(&mut self, process: ProcessId, range: PromiseRange) {
        self.promises.add(process, range);
        self.touched = true;
    }

    /// The commit gate: an attachment to a committed command counts, any other waits.
    fn admit(&mut self, dot: Dot, process: ProcessId, ts: u64, gating: &Gating) {
        let keys = match gating {
            Gating::Counts => return self.promise(process, PromiseRange::single(ts)),
            Gating::Waits(keys) => keys,
        };
        if let Some(index) = self.promises.index_of(process) {
            self.heard[index].insert(ts);
            self.touched = true;
        }
        let gate = self.gated.entry(dot).or_insert_with(|| Gate {
            keys: keys.clone(),
            ..Gate::default()
        });
        if gate.attached.contains(&(process, ts)) {
            return;
        }
        let grew = gate.indexed == gate.attached.len();
        gate.attached.push((process, ts));
        if grew {
            self.unsettled.push(dot);
            // Released gates leave their entries behind until the next settle; while
            // none runs, compacting at twice the open gates keeps this bounded.
            if self.unsettled.len() > 2 * self.gated.len() + 16 {
                let gated = &self.gated;
                self.unsettled.retain(|dot| gated.contains_key(dot));
            }
        }
    }

    /// `dot` committed here: its gated attachments count from now on (line 47).
    pub fn commit(&mut self, dot: Dot) {
        if let Some(gate) = self.gated.remove(&dot) {
            for &(process, ts) in self.unblock(dot, &gate) {
                self.promise(process, PromiseRange::single(ts));
            }
        }
    }

    /// `dot` was collected (executed at every shard peer): it gates nothing and no longer
    /// pins the frontier. A dot executed only here needs nothing; its commit ungated it.
    pub fn forget(&mut self, dot: Dot) {
        if let Some(gate) = self.gated.remove(&dot) {
            self.unblock(dot, &gate);
        }
        if let Some(ts) = self.attached_ts.remove(&dot) {
            self.attached_pending.remove(&(ts, dot));
        }
    }

    /// Takes a removed gate's attachments out of the indexes, noting what they blocked.
    fn unblock<'g>(&mut self, dot: Dot, gate: &'g Gate) -> &'g [(ProcessId, u64)] {
        if gate.low > 0 {
            self.blockers.unfile(gate.keys.as_deref(), gate.low, dot);
            if let Some(keys) = &gate.keys {
                self.wakes.keys.extend_from_slice(keys);
            }
        }
        &gate.attached
    }

    /// Whether detached promises are waiting to be broadcast.
    pub fn has_unsent_detached(&self) -> bool {
        !self.unsent_detached.is_empty()
    }

    /// The safe frontier: every timestamp up to it is promised by this process, and every
    /// attached one among them belongs to a command executed at every shard peer.
    fn frontier(&self) -> u64 {
        if self.claims_nothing {
            return 0;
        }
        match self.attached_pending.first() {
            Some((ts, _)) => self.clock.min(ts.saturating_sub(1)),
            None => self.clock,
        }
    }

    /// Takes the `MPromises` payload (Algorithm 2, line 45) — the unsent detached and
    /// attached promises and the safe frontier — or `None` when there is nothing new to
    /// say: nothing unsent, the frontier where it was last sent, and no caller `news`.
    pub fn take_outgoing(&mut self, news: bool) -> Option<Outgoing> {
        let frontier = self.frontier();
        let unsent = !self.unsent_detached.is_empty() || !self.unsent_attached.is_empty();
        if !(news || unsent || frontier > self.last_frontier_sent) {
            return None;
        }
        // Attachments land above the clock they were drawn from, so the claimed prefix
        // only grows (per-process promise monotonicity).
        debug_assert!(
            frontier >= self.last_frontier_sent,
            "promise frontier regressed"
        );
        self.last_frontier_sent = frontier;
        let detached = std::mem::take(&mut self.unsent_detached);
        let attached = std::mem::take(&mut self.unsent_attached);
        Some((detached, attached, frontier))
    }

    /// Drops the promises not yet broadcast (a rejoining incarnation's floor bumps: they
    /// cover the previous life's range, see [`Self::claim_nothing`]).
    pub fn discard_outgoing(&mut self) {
        self.unsent_detached.clear();
        self.unsent_attached.clear();
    }

    /// The `MPromiseRepair` payload — the clock and the pinned attachments, i.e. "all of
    /// `[1, clock]` but these" — or `None` if this incarnation claims nothing.
    pub fn repair_report(&self) -> Option<(u64, Vec<(u64, Dot)>)> {
        (!self.claims_nothing)
            .then(|| (self.clock, self.attached_pending.iter().copied().collect()))
    }

    /// The `MRejoinAck` payload for a rejoining `peer`: this clock, the highest promise
    /// ever heard from `peer` and the contiguous prefix of every shard member.
    pub fn rejoin_report(&self, peer: ProcessId) -> (u64, u64, Vec<(ProcessId, u64)>) {
        let highest = self.promises.highest_promise(peer);
        (self.clock, highest, self.promises.prefixes())
    }

    /// Absorbs one `MRejoinAck`: the clock bumps to `floor` (past the replier's clock and
    /// all this process was heard promising) and the replier's prefixes seed the tracker.
    /// Returns whether the clock moved.
    pub fn absorb_rejoin(&mut self, floor: u64, prefixes: Vec<(ProcessId, u64)>) -> bool {
        let moved = self.bump(floor);
        for (process, prefix) in prefixes {
            if prefix >= 1 {
                self.promise(process, PromiseRange::new(1, prefix));
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

    #[test]
    fn proposal_takes_max_of_min_and_clock() {
        let mut s = alone();
        // Coordinator proposal: clock 0 -> proposes 1.
        assert_eq!(s.propose(dot(1), 0), (1, None));
        assert_eq!(s.clock(), 1);
        // A proposal with a higher coordinator value jumps the clock.
        assert_eq!(s.propose(dot(2), 10), (10, Some(PromiseRange::new(2, 9))));
        assert_eq!(s.clock(), 10);
        // A proposal with a lower coordinator value still advances by one.
        assert_eq!(s.propose(dot(3), 2).0, 11);
    }

    #[test]
    fn table1_example_b_clock_6_to_7() {
        // Table 1: process B has Clock = 6 and receives the coordinator proposal 6;
        // it bumps from 6 to 7 and proposes 7.
        let mut s = alone();
        s.bump(6);
        s.discard_outgoing();
        // No detached promises: the clock moved by exactly one.
        assert_eq!(s.propose(dot(1), 6), (7, None));
        let (detached, attached, _) = s.take_outgoing(false).expect("an attachment is news");
        assert!(detached.is_empty());
        assert_eq!(attached, vec![(dot(1), 7)]);
    }

    #[test]
    fn table1_example_d_process_c_generates_detached_promises() {
        // Table 1 d): process C has Clock = 1 and receives proposal 6: it proposes 6 and
        // generates detached promises 2, 3, 4, 5 (§3.2 "Promise collection").
        let mut s = alone();
        s.bump(1);
        s.discard_outgoing();
        assert_eq!(s.propose(dot(9), 6), (6, Some(PromiseRange::new(2, 5))));
        let (detached, attached, _) = s.take_outgoing(false).expect("promises are news");
        assert_eq!(detached, vec![PromiseRange::new(2, 5)]);
        assert_eq!(attached, vec![(dot(9), 6)]);
    }

    #[test]
    fn bump_generates_detached_up_to_target() {
        let mut s = alone();
        s.propose(dot(1), 0);
        s.discard_outgoing();
        // Committing a command with timestamp 5 bumps the clock and promises 2..=5.
        assert!(s.bump(5));
        let (detached, _, _) = s.take_outgoing(false).expect("a bump is news");
        assert_eq!(detached, vec![PromiseRange::new(2, 5)]);
        // Bumping to a lower or equal value is a no-op.
        assert!(!s.bump(3));
        assert!(!s.has_unsent_detached());
        assert_eq!(s.clock(), 5);
    }

    #[test]
    fn has_unsent_detached_tracks_the_buffer() {
        let mut s = alone();
        assert!(!s.has_unsent_detached());
        s.propose(dot(1), 0);
        assert!(
            !s.has_unsent_detached(),
            "attached promises are not detached ones"
        );
        assert!(s.take_outgoing(false).is_some());
        assert!(s.take_outgoing(false).is_none(), "nothing new to say");
        s.bump(10);
        assert!(s.has_unsent_detached());
    }

    fn settle(s: &mut Stability) -> Wakes {
        let mut wakes = Wakes::default();
        s.settle(&mut wakes);
        wakes
    }

    /// Gating for a command that has not committed, on `keys` if its payload is known.
    fn waits(keys: Option<Vec<Key>>) -> Gating {
        Gating::Waits(keys.map(Keys::from))
    }

    /// Process 0 of `{0, 1, 2}` with its own prefix at 10, and peer 1 reporting
    /// everything up to 10 but an attachment at 5 to `x` (from process 2), which has not
    /// committed here and touches key 7 when `known`. Peer 2 reported nothing, so
    /// key-scoped stability needs peer 1.
    fn one_gate(known: bool) -> (Stability, Dot) {
        let x = Dot::new(2, 1);
        let mut s = Stability::new(0, &[0, 1, 2], 1);
        s.bump(10);
        let detached = vec![PromiseRange::new(6, 10)];
        let report = Report::Promises(1, 4, detached, vec![(x, 5)]);
        s.absorb(report, |_| waits(known.then(|| vec![7])));
        let wakes = settle(&mut s);
        assert_eq!(
            wakes.reached,
            Some((0, 10)),
            "two of three prefixes reach 10"
        );
        (s, x)
    }

    #[test]
    fn an_uncommitted_conflicting_attachment_at_or_below_ts_blocks() {
        let (mut s, x) = one_gate(true);
        assert!(!s.stable_for(8, &[7]));
        assert!(!s.stable_for(8, &[3, 7]), "one shared key is enough");
        assert!(
            s.stable_for(4, &[7]),
            "below the attachment, nothing blocks"
        );
        // The strict watermark stops below the gated attachment whatever the keys.
        assert_eq!(s.stable_timestamp(), 4);
        s.commit(x);
        let wakes = settle(&mut s);
        assert_eq!(wakes.keys, [7], "the commit opens key 7");
        assert!(s.stable_for(8, &[7]));
        assert_eq!(s.stable_timestamp(), 10);
    }

    #[test]
    fn a_non_conflicting_attachment_counts_at_once() {
        let (s, _) = one_gate(true);
        assert!(s.stable_for(10, &[3]));
        assert!(s.stable_for(10, &[0, 8]));
        assert!(!s.stable_for(11, &[3]), "past every prefix");
    }

    #[test]
    fn an_unknown_payload_blocks_every_key_until_it_arrives() {
        let (mut s, x) = one_gate(false);
        assert!(!s.stable_for(8, &[3]));
        assert!(!s.stable_for(8, &[7]));
        assert!(s.stable_for(4, &[3]));
        s.learn(x, || vec![7].into());
        let wakes = settle(&mut s);
        assert_eq!(
            wakes.unknown,
            Some(u64::MAX),
            "no attachment blocks every key now"
        );
        assert!(s.stable_for(8, &[3]));
        assert!(!s.stable_for(8, &[7]), "still uncommitted on its own key");
    }

    #[test]
    fn a_tie_at_the_timestamp_blocks() {
        let (s, _) = one_gate(true);
        assert!(!s.stable_for(5, &[7]));
        assert!(s.stable_for(5, &[8]));
    }

    #[test]
    fn a_commands_own_attachments_never_block_it() {
        // Process 0 proposes 11 for `y` (key 7) and peer 1 attaches 11 to it too; `y`
        // commits at 11, the timestamp both attachments sit on.
        let (mut s, _) = one_gate(true);
        let y = Dot::new(0, 1);
        assert_eq!(s.propose(y, 11), (11, None));
        s.learn(y, || Keys::One(3));
        s.absorb(Report::Promises(1, 0, vec![], vec![(y, 11)]), |_| {
            waits(Some(vec![3]))
        });
        settle(&mut s);
        assert!(
            !s.stable_for(11, &[3]),
            "uncommitted, it would block a conflict"
        );
        s.commit(y);
        settle(&mut s);
        assert!(s.stable_for(11, &[3]));
    }

    /// The keys a dot's command touches in the property test: one or two of four.
    fn keys_of(dot: Dot) -> Vec<Key> {
        let mut keys = vec![(dot.source * 7 + dot.sequence) % 4];
        if dot.sequence.is_multiple_of(3) {
            keys.push((dot.source + 1) % 4);
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The key sets the property test asks `stable_for` about.
    const PROBES: [&[Key]; 6] = [&[0], &[1], &[2], &[3], &[0, 1], &[2, 3]];

    /// The reference the property test holds `Stability` to: one set of promised
    /// timestamps per process, attachments that count only once their command committed,
    /// and stability as the highest timestamp a majority's contiguous prefixes reach.
    /// Key-scoped, every attachment counts, and one to an uncommitted command blocks the
    /// keys it shares (all of them while its payload is unknown) at and above its
    /// timestamp.
    struct Model {
        clock: u64,
        promised: Vec<BTreeSet<u64>>,
        gated: Vec<(Dot, ProcessId, u64)>,
        /// Committed (or collected) dots.
        committed: BTreeSet<Dot>,
        /// Dots whose payload is known.
        known: BTreeSet<Dot>,
        /// This process's attachments not yet forgotten.
        pinned: BTreeMap<Dot, u64>,
        /// Attachments that waited behind the gate and then counted.
        released: u64,
    }

    impl Model {
        fn promise(&mut self, process: ProcessId, from: u64, to: u64) {
            self.promised[process as usize].extend(from..=to);
        }

        fn attach(&mut self, dot: Dot, process: ProcessId, ts: u64) {
            if self.committed.contains(&dot) {
                self.promised[process as usize].insert(ts);
            } else {
                self.gated.push((dot, process, ts));
            }
        }

        fn commit(&mut self, dot: Dot) {
            self.committed.insert(dot);
            let (now, still): (Vec<_>, Vec<_>) = self.gated.drain(..).partition(|g| g.0 == dot);
            self.gated = still;
            for (_, process, ts) in now {
                self.promised[process as usize].insert(ts);
                self.released += 1;
            }
        }

        fn prefixes(&self) -> Vec<u64> {
            let prefix = |set: &BTreeSet<u64>| (1..).take_while(|ts| set.contains(ts)).count();
            self.promised.iter().map(|set| prefix(set) as u64).collect()
        }

        fn stable(&self) -> u64 {
            let mut prefixes = self.prefixes();
            prefixes.sort_unstable_by(|a, b| b.cmp(a));
            prefixes[prefixes.len() / 2]
        }

        /// Per process, the contiguous prefix of what it promised or attached.
        fn heard(&self) -> Vec<u64> {
            (0..self.promised.len())
                .map(|p| {
                    let attached = |ts: &u64| {
                        self.gated
                            .iter()
                            .any(|g| g.1 == p as ProcessId && g.2 == *ts)
                    };
                    let heard = |ts: &u64| self.promised[p].contains(ts) || attached(ts);
                    (1..).take_while(heard).count() as u64
                })
                .collect()
        }

        fn stable_for(&self, heard: &[u64], ts: u64, keys: &[Key]) -> bool {
            let blocks = |&(dot, _, at): &(Dot, ProcessId, u64)| {
                at <= ts
                    && (!self.known.contains(&dot) || keys_of(dot).iter().any(|k| keys.contains(k)))
            };
            let reached = heard.iter().filter(|h| **h >= ts).count();
            reached >= heard.len() - heard.len() / 2 && !self.gated.iter().any(blocks)
        }

        /// `stable_for` over every probe: timestamps up to a little past the clock, by
        /// [`PROBES`].
        fn probes(&self) -> Vec<(u64, usize, bool)> {
            let heard = self.heard();
            let mut out = Vec::new();
            for ts in 1..self.clock + 6 {
                for (i, keys) in PROBES.iter().enumerate() {
                    out.push((ts, i, self.stable_for(&heard, ts, keys)));
                }
            }
            out
        }
    }

    /// One seeded interleaving of every operation at process 0 of an `n`-process shard,
    /// checked against [`Model`] after each step. Returns the final stable timestamp, how
    /// many attachments the gate held and then released, and whether the key scope
    /// mattered: some probe was stable above the strict watermark, and at some step and
    /// timestamp one key set was stable while another was not.
    fn interleaving(n: u64, seed: u64, restored: bool) -> (u64, u64, bool) {
        let mut rng = Rng::new(seed);
        let peers: Vec<ProcessId> = (0..n).collect();
        let mut s = Stability::new(0, &peers, (n / 2) as usize);
        if restored {
            s.claim_nothing();
        }
        let mut m = Model {
            clock: 0,
            promised: vec![BTreeSet::new(); n as usize],
            gated: Vec::new(),
            committed: BTreeSet::new(),
            known: BTreeSet::new(),
            pinned: BTreeMap::new(),
            released: 0,
        };
        let mut before = m.probes();
        let (mut ahead, mut split) = (false, false);
        let mut dots: Vec<Dot> = Vec::new();
        let mut sent_frontier = 0;
        for step in 0..80 {
            // A known dot most of the time, a fresh one otherwise.
            let pick = |rng: &mut Rng, dots: &mut Vec<Dot>| {
                if dots.is_empty() || rng.gen_bool(0.3) {
                    dots.push(Dot::new(1 + rng.gen_range(n), step + 1));
                }
                *rng.choose(dots)
            };
            let peer = 1 + rng.gen_range(n - 1);
            let (committed, known) = (m.committed.clone(), m.known.clone());
            let gating = |dot: Dot| match committed.contains(&dot) {
                true => Gating::Counts,
                false => waits(known.contains(&dot).then(|| keys_of(dot))),
            };
            match rng.gen_range(10) {
                0 => {
                    let dot = Dot::new(0, step + 1);
                    m.known.insert(dot);
                    let min = m.clock.saturating_sub(2) + rng.gen_range(6);
                    let t = min.max(m.clock + 1);
                    let detached = (t > m.clock + 1).then(|| PromiseRange::new(m.clock + 1, t - 1));
                    assert_eq!(s.propose(dot, min), (t, detached));
                    s.learn(dot, || keys_of(dot).into());
                    m.promise(0, m.clock + 1, t - 1);
                    m.attach(dot, 0, t);
                    m.pinned.insert(dot, t);
                    m.clock = t;
                    dots.push(dot);
                }
                1 => {
                    let t = m.clock.saturating_sub(2) + rng.gen_range(6);
                    assert_eq!(s.bump(t), t > m.clock);
                    if t > m.clock {
                        m.promise(0, m.clock + 1, t);
                        m.clock = t;
                    }
                }
                2 => {
                    let frontier = rng.gen_range(m.clock + 3);
                    let start = 1 + rng.gen_range(m.clock + 5);
                    let detached = vec![PromiseRange::new(start, start + rng.gen_range(4))];
                    let attached: Vec<(Dot, u64)> = (0..rng.gen_range(3))
                        .map(|_| (pick(&mut rng, &mut dots), 1 + rng.gen_range(m.clock + 5)))
                        .collect();
                    m.promise(peer, 1, frontier);
                    m.promise(peer, detached[0].start, detached[0].end);
                    for &(dot, ts) in &attached {
                        m.attach(dot, peer, ts);
                    }
                    s.absorb(Report::Promises(peer, frontier, detached, attached), gating);
                }
                3 => {
                    let dot = pick(&mut rng, &mut dots);
                    let bundle = PromiseBundle {
                        attached: (0..rng.gen_range(n))
                            .map(|_| (rng.gen_range(n), 1 + rng.gen_range(m.clock + 5)))
                            .collect(),
                        detached: (0..rng.gen_range(2))
                            .map(|_| {
                                let start = 1 + rng.gen_range(m.clock + 5);
                                (rng.gen_range(n), PromiseRange::new(start, start + 2))
                            })
                            .collect(),
                    };
                    for &(process, range) in &bundle.detached {
                        m.promise(process, range.start, range.end);
                    }
                    for &(process, ts) in &bundle.attached {
                        m.attach(dot, process, ts);
                    }
                    s.absorb(Report::Bundle(dot, bundle), gating);
                }
                4 => {
                    let clock = rng.gen_range(m.clock + 6);
                    let mut stamps: Vec<u64> = (0..rng.gen_range(4))
                        .map(|_| 1 + rng.gen_range(clock + 3))
                        .collect();
                    stamps.sort_unstable();
                    stamps.dedup();
                    let pending: Vec<(u64, Dot)> = stamps
                        .into_iter()
                        .map(|ts| (ts, pick(&mut rng, &mut dots)))
                        .collect();
                    for ts in 1..=clock {
                        match pending.iter().find(|(p, _)| *p == ts) {
                            Some(&(_, dot)) => m.attach(dot, peer, ts),
                            None => m.promise(peer, ts, ts),
                        }
                    }
                    s.absorb(Report::Repair(peer, clock, pending), gating);
                }
                5 | 6 => {
                    let open: Vec<Dot> = dots
                        .iter()
                        .copied()
                        .filter(|d| !m.committed.contains(d))
                        .collect();
                    if let Some(&dot) = open.get(rng.gen_range(open.len() as u64 + 1) as usize) {
                        s.commit(dot);
                        m.commit(dot);
                    }
                }
                7 => {
                    // GC collects only what executed everywhere, hence committed here.
                    let done: Vec<Dot> = m.committed.iter().copied().collect();
                    if let Some(&dot) = done.get(rng.gen_range(done.len() as u64 + 1) as usize) {
                        s.forget(dot);
                        m.pinned.remove(&dot);
                    }
                }
                8 => {
                    // A payload arrives (an `MPropose` or `MPayload`).
                    let dot = pick(&mut rng, &mut dots);
                    m.known.insert(dot);
                    s.learn(dot, || keys_of(dot).into());
                }
                _ => {
                    if let Some((_, _, frontier)) = s.take_outgoing(rng.gen_bool(0.3)) {
                        assert!(frontier >= sent_frontier, "frontier regressed");
                        assert!(frontier <= m.clock);
                        assert!(
                            m.pinned.values().all(|ts| frontier < *ts),
                            "frontier {frontier} covers a pinned attachment {:?}",
                            m.pinned
                        );
                        assert!(!restored || frontier == 0, "a restored instance claimed");
                        sent_frontier = frontier;
                    }
                    match s.repair_report() {
                        Some((clock, pending)) => {
                            assert!(!restored);
                            assert_eq!(clock, m.clock);
                            let mut pinned: Vec<(u64, Dot)> =
                                m.pinned.iter().map(|(d, t)| (*t, *d)).collect();
                            pinned.sort_unstable();
                            assert_eq!(pending, pinned);
                        }
                        None => assert!(restored),
                    }
                }
            }
            assert_eq!(
                s.stable_timestamp(),
                m.stable(),
                "seed {seed}, step {step}: stable timestamp diverged from the model"
            );
            let wakes = settle(&mut s);
            let heard: Vec<u64> = s.heard.iter().map(SeqSet::contiguous).collect();
            assert_eq!(
                heard,
                m.heard(),
                "seed {seed}, step {step}: key-scoped prefixes"
            );
            let after = m.probes();
            for (&(ts, probe, was), &(_, _, is)) in before.iter().zip(&after) {
                let keys = PROBES[probe];
                assert_eq!(
                    s.stable_for(ts, keys),
                    is,
                    "seed {seed}, step {step}: stable_for({ts}, {keys:?}) diverged from the model"
                );
                // Whatever turns a probe stable is in the wakes, so a command waiting on
                // it is re-checked.
                let woken = wakes
                    .reached
                    .is_some_and(|(old, new)| old < ts && ts <= new)
                    || wakes.keys.iter().any(|k| keys.contains(k))
                    || wakes.unknown.is_some_and(|clear| ts < clear);
                assert!(
                    was || !is || woken,
                    "seed {seed}, step {step}: stable_for({ts}, {keys:?}) turned true unseen: {wakes:?}"
                );
            }
            ahead |= after.iter().any(|(ts, _, is)| *is && *ts > m.stable());
            split |= after
                .chunks(PROBES.len())
                .any(|at| at.iter().any(|p| p.2) && at.iter().any(|p| !p.2));
            before = after;
            let (clock, highest, prefixes) = s.rejoin_report(peer);
            let highest_heard = m.promised[peer as usize].last().copied().unwrap_or(0);
            assert_eq!((clock, highest), (m.clock, highest_heard));
            let prefixes: Vec<u64> = prefixes.into_iter().map(|(_, prefix)| prefix).collect();
            assert_eq!(prefixes, m.prefixes(), "seed {seed}, step {step}");
            if step % 8 == 7 {
                // The whole state, not only what it is summarised into.
                for (p, promised) in (0..n).zip(&m.promised) {
                    for ts in 1..m.clock + 12 {
                        assert_eq!(s.promises.contains(p, ts), promised.contains(&ts));
                    }
                }
                let gated = |(dot, gate): (&Dot, &Gate)| {
                    gate.attached
                        .iter()
                        .map(|(p, ts)| (*dot, *p, *ts))
                        .collect::<Vec<_>>()
                };
                let gated: BTreeSet<_> = s.gated.iter().flat_map(gated).collect();
                assert_eq!(gated, m.gated.iter().copied().collect());
                // Settled, each gate is filed under its keys (every key while unknown)
                // at its lowest attachment.
                let mut filed = BTreeSet::new();
                for (dot, gate) in &s.gated {
                    let keys = m.known.contains(dot).then(|| keys_of(*dot));
                    assert_eq!(gate.keys.as_deref(), keys.as_deref(), "{dot:?}");
                    let low = gate.attached.iter().map(|a| a.1).min().expect("gated");
                    match keys {
                        Some(keys) => filed.extend(keys.iter().map(|k| (Some(*k), low, *dot))),
                        None => {
                            filed.insert((None, low, *dot));
                        }
                    }
                }
                let lists = s.blockers.0.lists.iter();
                let filed_now: BTreeSet<_> = lists
                    .flat_map(|(k, list)| list.iter().map(|(ts, d)| (*k, *ts, *d)))
                    .collect();
                assert_eq!(filed_now, filed);
            }
        }
        (m.stable(), m.released, ahead && split)
    }

    /// Runs 300 interleavings (every tenth restored) and checks that they exercised
    /// both stability and the gate.
    fn interleavings(n: u64, first_seed: u64) {
        let (mut stable, mut released, mut keyed) = (0, 0, 0);
        for seed in first_seed..first_seed + 300 {
            let (s, r, k) = interleaving(n, seed, seed % 10 == 9);
            stable += u64::from(s > 0);
            released += r;
            keyed += u64::from(k);
        }
        assert!(stable > 200 && released > 300, "{stable} {released}");
        assert!(keyed > 200, "{keyed} interleavings ended key-scoped stable");
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

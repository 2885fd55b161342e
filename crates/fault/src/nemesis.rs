//! Deterministic, seeded fault schedules and the network state they induce.
//!
//! A [`NemesisSchedule`] is a time-ordered list of [`FaultEvent`]s. The simulator hands
//! the schedule to a [`Nemesis`], advances it as simulated time passes, and consults it
//! before every message delivery: crashed endpoints, partitioned links and Bernoulli
//! link drops all silently discard the message (counted in the [`FaultSummary`]), while
//! delay spikes stretch a link's latency. Crash/restart events are returned to the
//! embedder, which owns the process lifecycle (killing and rebuilding drivers).
//!
//! The translation of Byzantine-grade adversity into systematically injected *crash*
//! faults follows the methodology of Imbs/Raynal/Stainer ("From Byzantine Failures to
//! Crash Failures", see PAPERS.md); the preset schedules cover the scenarios the paper's
//! recovery protocol (Algorithm 4) must survive.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tempo_kernel::config::Config;
use tempo_kernel::id::ProcessId;
use tempo_kernel::membership::Membership;
use tempo_kernel::rand::Rng;

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The process stops: it neither sends nor receives anything, its timers no longer
    /// fire, and every message it had in flight is lost (its connections die with it).
    Crash(ProcessId),
    /// The process comes back with **volatile state lost**: the embedder rebuilds it
    /// from scratch (`Protocol::new` + `rejoin`) and it rejoins the cluster.
    Restart(ProcessId),
    /// The network splits into the given groups: messages are delivered only within a
    /// group. Processes not named in any group form one implicit extra group.
    Partition(Vec<Vec<ProcessId>>),
    /// Restores the perfect network: clears the partition, all link faults and all
    /// delay spikes (crashed processes stay crashed).
    Heal,
    /// The directed link `from → to` drops each message independently with
    /// probability `p`.
    DropLink {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Per-message drop probability.
        p: f64,
    },
    /// The directed link `from → to` gains `extra_us` of one-way latency.
    DelaySpike {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Additional one-way latency, in microseconds.
        extra_us: u64,
    },
    /// Gray failure: the process stays alive and correct but *answers* at a crawl —
    /// every frame it sends gains `extra_us` of latency (typically ~100× the normal
    /// RTT). To a timeout-based detector this is indistinguishable from a crash until
    /// the late frames land, so it provokes suspect/unsuspect flapping. Cleared by
    /// [`FaultEvent::Heal`].
    SlowNode {
        /// The slow process.
        process: ProcessId,
        /// Extra one-way latency on every frame it sends, in microseconds.
        extra_us: u64,
    },
    /// The directed link `from → to` delivers each frame a second time with
    /// probability `p` (the duplicate arrives immediately after the original).
    /// Protocol handlers must be idempotent for this to be harmless. Cleared by
    /// [`FaultEvent::Heal`].
    DuplicateFrame {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Per-frame duplication probability.
        p: f64,
    },
    /// The directed link `from → to` holds each frame back with probability `p`,
    /// releasing it after a short extra delay — later frames overtake it, so the
    /// link is no longer FIFO. Cleared by [`FaultEvent::Heal`].
    ReorderFrame {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Per-frame holdback probability.
        p: f64,
    },
}

/// Counters of injected faults and of their frame-level effects, reported alongside
/// the latency percentiles in the simulator's run report.
///
/// The frame counters count every frame between replicas, failure-detector heartbeats
/// as well as protocol messages: heartbeats cross the same afflicted network. In the
/// simulator heartbeats are never duplicated or reordered, and one lost with a crashed
/// endpoint is not counted in `dropped_crash`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// `Crash` events applied.
    pub crashes: u64,
    /// `Restart` events applied.
    pub restarts: u64,
    /// `Partition` events applied.
    pub partitions: u64,
    /// `Heal` events applied.
    pub heals: u64,
    /// `DropLink` events applied.
    pub link_faults: u64,
    /// `DelaySpike` events applied.
    pub delay_spikes: u64,
    /// `SlowNode` events applied.
    pub slow_nodes: u64,
    /// `DuplicateFrame` events applied.
    pub dup_links: u64,
    /// `ReorderFrame` events applied.
    pub reorder_links: u64,
    /// Frames dropped because an endpoint was crashed (or the sender had restarted
    /// since sending: its connections died with the old incarnation).
    pub dropped_crash: u64,
    /// Frames dropped by an active partition, heartbeats included.
    pub dropped_partition: u64,
    /// Frames dropped by a lossy link's Bernoulli draw, heartbeats included.
    pub dropped_link: u64,
    /// Frames that crossed a delay-spiked link, heartbeats included.
    pub delayed: u64,
    /// Frames delayed because their sender was a `SlowNode`, heartbeats included.
    pub slowed: u64,
    /// Frames delivered twice by a `DuplicateFrame` draw.
    pub duplicated: u64,
    /// Frames held back (delivered out of order) by a `ReorderFrame` draw.
    pub reordered: u64,
}

impl FaultSummary {
    /// Total injected fault events.
    pub fn events(&self) -> u64 {
        self.crashes
            + self.restarts
            + self.partitions
            + self.heals
            + self.link_faults
            + self.delay_spikes
            + self.slow_nodes
            + self.dup_links
            + self.reorder_links
    }

    /// Total frames dropped, for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_crash + self.dropped_partition + self.dropped_link
    }
}

/// A time-ordered fault schedule (times are absolute simulated microseconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NemesisSchedule {
    events: Vec<(u64, FaultEvent)>,
}

impl NemesisSchedule {
    /// Creates a schedule from `(time_us, event)` pairs (sorted internally; ties keep
    /// their relative order).
    pub fn new(mut events: Vec<(u64, FaultEvent)>) -> Self {
        events.sort_by_key(|(t, _)| *t);
        Self { events }
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Folds `other`'s events into this schedule, keeping time order (composes
    /// presets — e.g. a slow node *and* a lossy soak in one run). Ties keep their
    /// relative order, `self` before `other`.
    pub fn merge(&mut self, other: NemesisSchedule) {
        self.events.extend(other.events);
        self.events.sort_by_key(|(t, _)| *t);
    }

    /// The distinct event times, ascending (the simulator registers one wake-up per
    /// time so faults apply at exactly the right simulated instant).
    pub fn times(&self) -> Vec<u64> {
        let mut times: Vec<u64> = self.events.iter().map(|(t, _)| *t).collect();
        times.dedup();
        times
    }

    // ------------------------------------------------------------------ presets

    /// Preset: crash one process (a command coordinator, typically) at `at_us` — after
    /// it has proposed but before it commits — and never bring it back. The surviving
    /// quorum must finish the command through `MRec` (Algorithm 4).
    pub fn coordinator_crash(process: ProcessId, at_us: u64) -> Self {
        Self::new(vec![(at_us, FaultEvent::Crash(process))])
    }

    /// Preset: rolling crashes through the first `f` sites — site `i` crashes (all its
    /// processes), stays down for half a `period_us`, restarts with volatile state
    /// lost, and then the next site follows. At most one site is ever down, but over
    /// the run every tolerated failure budget is spent.
    pub fn rolling_crashes(config: Config, start_us: u64, period_us: u64) -> Self {
        let membership = Membership::from_config(&config);
        let mut events = Vec::new();
        for i in 0..config.f() as u64 {
            let at = start_us + 2 * i * period_us;
            for p in membership.processes_of_site(i) {
                events.push((at, FaultEvent::Crash(p)));
                events.push((at + period_us, FaultEvent::Restart(p)));
            }
        }
        Self::new(events)
    }

    /// Preset: split-brain — the first `f` sites are partitioned away from the rest
    /// between `at_us` and `heal_at_us`. The majority side keeps committing; the
    /// minority's submissions stall and must finish (or be recovered) after the heal.
    pub fn split_brain_and_heal(config: Config, at_us: u64, heal_at_us: u64) -> Self {
        assert!(heal_at_us > at_us, "heal must come after the split");
        let membership = Membership::from_config(&config);
        let minority: Vec<ProcessId> = (0..config.f() as u64)
            .flat_map(|site| membership.processes_of_site(site))
            .collect();
        let majority: Vec<ProcessId> = membership
            .all_processes()
            .into_iter()
            .filter(|p| !minority.contains(p))
            .collect();
        Self::new(vec![
            (at_us, FaultEvent::Partition(vec![minority, majority])),
            (heal_at_us, FaultEvent::Heal),
        ])
    }

    /// Preset: lossy-link soak — every directed link drops messages with probability
    /// `p` between `from_us` and `until_us`. Commits must still happen through the
    /// retransmission/recovery machinery.
    pub fn lossy_link_soak(config: Config, p: f64, from_us: u64, until_us: u64) -> Self {
        assert!(until_us > from_us, "soak window must be non-empty");
        let membership = Membership::from_config(&config);
        let all = membership.all_processes();
        let mut events = Vec::new();
        for &from in &all {
            for &to in &all {
                if from != to {
                    events.push((from_us, FaultEvent::DropLink { from, to, p }));
                }
            }
        }
        events.push((until_us, FaultEvent::Heal));
        Self::new(events)
    }

    /// Preset: gray failure — `process` stays alive but answers at `extra_us` extra
    /// latency (typically ~100× the healthy RTT) between `at_us` and `until_us`. A
    /// timeout-based detector must eventually suspect it, the protocol must keep
    /// committing around it, and the heal must let it rejoin the quorums.
    pub fn slow_node(process: ProcessId, extra_us: u64, at_us: u64, until_us: u64) -> Self {
        assert!(until_us > at_us, "slow window must be non-empty");
        Self::new(vec![
            (at_us, FaultEvent::SlowNode { process, extra_us }),
            (until_us, FaultEvent::Heal),
        ])
    }

    /// Preset: duplicate/reorder soak — every directed link both duplicates and holds
    /// back frames with probability `p` between `from_us` and `until_us`. Exercises
    /// handler idempotence and the protocol's tolerance of non-FIFO links.
    pub fn duplicate_reorder_soak(config: Config, p: f64, from_us: u64, until_us: u64) -> Self {
        assert!(until_us > from_us, "soak window must be non-empty");
        let membership = Membership::from_config(&config);
        let all = membership.all_processes();
        let mut events = Vec::new();
        for &from in &all {
            for &to in &all {
                if from != to {
                    events.push((from_us, FaultEvent::DuplicateFrame { from, to, p }));
                    events.push((from_us, FaultEvent::ReorderFrame { from, to, p }));
                }
            }
        }
        events.push((until_us, FaultEvent::Heal));
        Self::new(events)
    }

    /// A seeded random schedule: a handful of non-overlapping incidents (crash with
    /// optional restart, partition-and-heal, lossy window, delay-spike window, slow
    /// node, duplicate/reorder window) placed over the horizon. Crash budgets respect
    /// `f` per shard — counting a restarted process as spent, since it comes back with
    /// volatile state lost — and every network incident heals before the horizon, so a
    /// run always regains liveness. Link-level incidents only ever target processes
    /// that are still up at that point in the schedule: a `DelaySpike` (or lossy link,
    /// or gray fault) aimed at a crashed process would be a wasted event.
    pub fn random(opts: &RandomNemesisOpts) -> Self {
        let mut rng = Rng::new(opts.seed);
        let membership = Membership::from_config(&opts.config);
        let f = opts.config.f();
        let sites = opts.config.n() as u64;
        let mut events = Vec::new();
        // Per-site crash budget: crashing a site spends one unit of every shard's
        // budget at once (one process per shard lives there), so `f` sites total.
        let mut crash_budget = f;
        // Sites crashed without a scheduled restart: permanently down for the rest of
        // the schedule, so later incidents must not target their processes.
        let mut down_sites: BTreeSet<u64> = BTreeSet::new();
        let alive = |down: &BTreeSet<u64>| -> Vec<ProcessId> {
            (0..sites)
                .filter(|s| !down.contains(s))
                .flat_map(|s| membership.processes_of_site(s))
                .collect()
        };
        let incidents = opts.incidents.max(1) as u64;
        let segment = opts.horizon_us / (incidents + 1);
        for i in 0..incidents {
            let base = segment * (i + 1);
            // The `.max(1)` guards the *bound*: a degenerate horizon must not panic in
            // `gen_range(0)`, it just loses the jitter.
            let start = base + rng.gen_range((segment / 4).max(1));
            let end = start + segment / 2;
            match rng.gen_range(6) {
                0 if crash_budget > 0 && down_sites.len() < sites as usize => {
                    crash_budget -= 1;
                    // Pick among the sites still up — crashing a dead site is a no-op.
                    let up: Vec<u64> = (0..sites).filter(|s| !down_sites.contains(s)).collect();
                    let site = up[rng.gen_range(up.len() as u64) as usize];
                    let restarts = rng.gen_bool(0.5);
                    if !restarts {
                        down_sites.insert(site);
                    }
                    for p in membership.processes_of_site(site) {
                        events.push((start, FaultEvent::Crash(p)));
                        if restarts {
                            events.push((end, FaultEvent::Restart(p)));
                        }
                    }
                }
                1 => {
                    let minority_site = rng.gen_range(sites);
                    let minority = membership.processes_of_site(minority_site);
                    let majority: Vec<ProcessId> = membership
                        .all_processes()
                        .into_iter()
                        .filter(|p| !minority.contains(p))
                        .collect();
                    events.push((start, FaultEvent::Partition(vec![minority, majority])));
                    events.push((end, FaultEvent::Heal));
                }
                2 => {
                    let p = 0.05 + rng.next_f64() * 0.15;
                    let links = 1 + rng.gen_range(4);
                    let up = alive(&down_sites);
                    if up.len() < 2 {
                        continue;
                    }
                    for _ in 0..links {
                        let (from, to) = distinct_pair(&mut rng, &up);
                        events.push((start, FaultEvent::DropLink { from, to, p }));
                    }
                    events.push((end, FaultEvent::Heal));
                }
                3 => {
                    let up = alive(&down_sites);
                    if up.len() < 2 {
                        continue;
                    }
                    let (from, to) = distinct_pair(&mut rng, &up);
                    let extra_us = 10_000 + rng.gen_range(200_000);
                    events.push((start, FaultEvent::DelaySpike { from, to, extra_us }));
                    events.push((end, FaultEvent::Heal));
                }
                4 => {
                    let up = alive(&down_sites);
                    if up.is_empty() {
                        continue;
                    }
                    let process = up[rng.gen_range(up.len() as u64) as usize];
                    let extra_us = 100_000 + rng.gen_range(400_000);
                    events.push((start, FaultEvent::SlowNode { process, extra_us }));
                    events.push((end, FaultEvent::Heal));
                }
                _ => {
                    let up = alive(&down_sites);
                    if up.len() < 2 {
                        continue;
                    }
                    let p = 0.1 + rng.next_f64() * 0.3;
                    let links = 1 + rng.gen_range(4);
                    for _ in 0..links {
                        let (from, to) = distinct_pair(&mut rng, &up);
                        if rng.gen_bool(0.5) {
                            events.push((start, FaultEvent::DuplicateFrame { from, to, p }));
                        } else {
                            events.push((start, FaultEvent::ReorderFrame { from, to, p }));
                        }
                    }
                    events.push((end, FaultEvent::Heal));
                }
            }
        }
        Self::new(events)
    }
}

/// A uniformly random ordered pair of *distinct* processes (so every generated link
/// fault is a real link — an incident never degenerates to zero events).
fn distinct_pair(rng: &mut Rng, all: &[ProcessId]) -> (ProcessId, ProcessId) {
    assert!(all.len() >= 2);
    let from_idx = rng.gen_range(all.len() as u64) as usize;
    let mut to_idx = rng.gen_range(all.len() as u64 - 1) as usize;
    if to_idx >= from_idx {
        to_idx += 1;
    }
    (all[from_idx], all[to_idx])
}

/// Parameters of [`NemesisSchedule::random`].
#[derive(Debug, Clone)]
pub struct RandomNemesisOpts {
    /// The deployment the schedule targets (bounds crash budgets and process ids).
    pub config: Config,
    /// The simulated-time horizon over which incidents are placed.
    pub horizon_us: u64,
    /// Number of incidents to place (at least 1).
    pub incidents: usize,
    /// Seed for schedule generation *and* for the per-message Bernoulli drop draws.
    pub seed: u64,
}

/// The live fault-injection state the simulator consults.
#[derive(Debug, Clone)]
pub struct Nemesis {
    pending: VecDeque<(u64, FaultEvent)>,
    rng: Rng,
    down: BTreeSet<ProcessId>,
    /// Partition groups, when active: process -> group index (unlisted processes share
    /// the implicit group `usize::MAX`).
    groups: Option<BTreeMap<ProcessId, usize>>,
    link_drop: BTreeMap<(ProcessId, ProcessId), f64>,
    link_delay: BTreeMap<(ProcessId, ProcessId), u64>,
    slow: BTreeMap<ProcessId, u64>,
    link_dup: BTreeMap<(ProcessId, ProcessId), f64>,
    link_reorder: BTreeMap<(ProcessId, ProcessId), f64>,
    summary: FaultSummary,
}

impl Nemesis {
    /// Creates the nemesis from a schedule; `seed` drives the per-message drop draws.
    pub fn new(schedule: NemesisSchedule, seed: u64) -> Self {
        Self {
            pending: schedule.events.into(),
            rng: Rng::new(seed),
            down: BTreeSet::new(),
            groups: None,
            link_drop: BTreeMap::new(),
            link_delay: BTreeMap::new(),
            slow: BTreeMap::new(),
            link_dup: BTreeMap::new(),
            link_reorder: BTreeMap::new(),
            summary: FaultSummary::default(),
        }
    }

    /// The time of the next scheduled fault, if any.
    pub fn next_due(&self) -> Option<u64> {
        self.pending.front().map(|(t, _)| *t)
    }

    /// Applies every fault due at or before `now_us` to the network state and returns
    /// them; the embedder acts on `Crash`/`Restart` (process lifecycle) and may log the
    /// rest.
    pub fn advance(&mut self, now_us: u64) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        while self.pending.front().is_some_and(|(t, _)| *t <= now_us) {
            let (_, event) = self.pending.pop_front().expect("checked non-empty");
            match &event {
                FaultEvent::Crash(p) => {
                    self.down.insert(*p);
                    self.summary.crashes += 1;
                }
                FaultEvent::Restart(p) => {
                    self.down.remove(p);
                    self.summary.restarts += 1;
                }
                FaultEvent::Partition(groups) => {
                    let mut map = BTreeMap::new();
                    for (i, group) in groups.iter().enumerate() {
                        for p in group {
                            map.insert(*p, i);
                        }
                    }
                    self.groups = Some(map);
                    self.summary.partitions += 1;
                }
                FaultEvent::Heal => {
                    self.groups = None;
                    self.link_drop.clear();
                    self.link_delay.clear();
                    self.slow.clear();
                    self.link_dup.clear();
                    self.link_reorder.clear();
                    self.summary.heals += 1;
                }
                FaultEvent::DropLink { from, to, p } => {
                    self.link_drop.insert((*from, *to), *p);
                    self.summary.link_faults += 1;
                }
                FaultEvent::DelaySpike { from, to, extra_us } => {
                    self.link_delay.insert((*from, *to), *extra_us);
                    self.summary.delay_spikes += 1;
                }
                FaultEvent::SlowNode { process, extra_us } => {
                    self.slow.insert(*process, *extra_us);
                    self.summary.slow_nodes += 1;
                }
                FaultEvent::DuplicateFrame { from, to, p } => {
                    self.link_dup.insert((*from, *to), *p);
                    self.summary.dup_links += 1;
                }
                FaultEvent::ReorderFrame { from, to, p } => {
                    self.link_reorder.insert((*from, *to), *p);
                    self.summary.reorder_links += 1;
                }
            }
            fired.push(event);
        }
        fired
    }

    /// Whether `process` is currently crashed.
    pub fn is_down(&self, process: ProcessId) -> bool {
        self.down.contains(&process)
    }

    /// Extra one-way latency of `from → to` under the active delay spikes and slow
    /// nodes (applied at send time, like the serialization delay it models). A
    /// `SlowNode` slows everything its victim *sends* — its answers — which is what a
    /// heartbeat-fed detector at the receiving end actually observes.
    pub fn send_delay(&mut self, from: ProcessId, to: ProcessId) -> u64 {
        let mut total = 0;
        if let Some(extra) = self.link_delay.get(&(from, to)) {
            self.summary.delayed += 1;
            total += *extra;
        }
        if let Some(extra) = self.slow.get(&from) {
            self.summary.slowed += 1;
            total += *extra;
        }
        total
    }

    /// Consulted at delivery time: whether this frame should additionally be delivered
    /// a second time (an active `DuplicateFrame` link whose Bernoulli draw fired).
    pub fn should_duplicate(&mut self, from: ProcessId, to: ProcessId) -> bool {
        if let Some(p) = self.link_dup.get(&(from, to)).copied() {
            if self.rng.gen_bool(p) {
                self.summary.duplicated += 1;
                return true;
            }
        }
        false
    }

    /// Consulted at delivery time: if an active `ReorderFrame` link's draw fires,
    /// returns the extra holdback delay (in microseconds) the frame must wait before
    /// delivery — later frames overtake it, breaking FIFO on the link.
    pub fn reorder_delay(&mut self, from: ProcessId, to: ProcessId) -> Option<u64> {
        if let Some(p) = self.link_reorder.get(&(from, to)).copied() {
            if self.rng.gen_bool(p) {
                self.summary.reordered += 1;
                return Some(500 + self.rng.gen_range(5_000));
            }
        }
        None
    }

    /// Whether `process` is currently a `SlowNode` victim, and by how much.
    pub fn slow_node_extra(&self, process: ProcessId) -> Option<u64> {
        self.slow.get(&process).copied()
    }

    /// Consulted at delivery time: whether the message may be delivered given the
    /// partition and lossy-link state. Records any drop in the summary.
    pub fn allows_delivery(&mut self, from: ProcessId, to: ProcessId) -> bool {
        if let Some(groups) = &self.groups {
            let ga = groups.get(&from).copied().unwrap_or(usize::MAX);
            let gb = groups.get(&to).copied().unwrap_or(usize::MAX);
            if ga != gb {
                self.summary.dropped_partition += 1;
                return false;
            }
        }
        if let Some(p) = self.link_drop.get(&(from, to)).copied() {
            if self.rng.gen_bool(p) {
                self.summary.dropped_link += 1;
                return false;
            }
        }
        true
    }

    /// Records a message dropped because an endpoint was crashed or the sender
    /// restarted since sending (the embedder detects both — it owns incarnations).
    pub fn note_crash_drop(&mut self) {
        self.summary.dropped_crash += 1;
    }

    /// The fault counters so far.
    pub fn summary(&self) -> FaultSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_by_time_and_reports_times() {
        let s = NemesisSchedule::new(vec![
            (50, FaultEvent::Heal),
            (10, FaultEvent::Crash(1)),
            (50, FaultEvent::Crash(2)),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.times(), vec![10, 50]);
        assert!(matches!(s.events()[0], (10, FaultEvent::Crash(1))));
    }

    #[test]
    fn nemesis_applies_crash_and_restart() {
        let s = NemesisSchedule::new(vec![
            (10, FaultEvent::Crash(0)),
            (20, FaultEvent::Restart(0)),
        ]);
        let mut n = Nemesis::new(s, 1);
        assert_eq!(n.next_due(), Some(10));
        let fired = n.advance(10);
        assert_eq!(fired.len(), 1);
        assert!(n.is_down(0));
        n.advance(25);
        assert!(!n.is_down(0));
        let summary = n.summary();
        assert_eq!(summary.crashes, 1);
        assert_eq!(summary.restarts, 1);
    }

    #[test]
    fn partition_blocks_cross_group_delivery_until_heal() {
        let s = NemesisSchedule::new(vec![
            (0, FaultEvent::Partition(vec![vec![0], vec![1, 2]])),
            (100, FaultEvent::Heal),
        ]);
        let mut n = Nemesis::new(s, 1);
        n.advance(0);
        assert!(!n.allows_delivery(0, 1));
        assert!(n.allows_delivery(1, 2));
        n.advance(100);
        assert!(n.allows_delivery(0, 1));
        assert_eq!(n.summary().dropped_partition, 1);
    }

    #[test]
    fn unlisted_processes_share_the_implicit_group() {
        let s = NemesisSchedule::new(vec![(0, FaultEvent::Partition(vec![vec![0]]))]);
        let mut n = Nemesis::new(s, 1);
        n.advance(0);
        assert!(!n.allows_delivery(0, 1));
        assert!(n.allows_delivery(1, 2), "unlisted processes stay connected");
    }

    #[test]
    fn lossy_link_drops_roughly_p() {
        let s = NemesisSchedule::new(vec![(
            0,
            FaultEvent::DropLink {
                from: 0,
                to: 1,
                p: 0.3,
            },
        )]);
        let mut n = Nemesis::new(s, 7);
        n.advance(0);
        let mut dropped = 0;
        for _ in 0..10_000 {
            if !n.allows_delivery(0, 1) {
                dropped += 1;
            }
            // The reverse direction is unaffected.
            assert!(n.allows_delivery(1, 0));
        }
        let rate = dropped as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&rate), "drop rate off: {rate}");
        assert_eq!(n.summary().dropped_link, dropped);
    }

    #[test]
    fn delay_spike_applies_at_send_time() {
        let s = NemesisSchedule::new(vec![(
            0,
            FaultEvent::DelaySpike {
                from: 2,
                to: 0,
                extra_us: 5_000,
            },
        )]);
        let mut n = Nemesis::new(s, 1);
        n.advance(0);
        assert_eq!(n.send_delay(2, 0), 5_000);
        assert_eq!(n.send_delay(0, 2), 0);
        assert_eq!(n.summary().delayed, 1);
    }

    #[test]
    fn presets_are_well_formed() {
        let config = Config::full(5, 2);
        let rolling = NemesisSchedule::rolling_crashes(config, 1_000, 10_000);
        // f = 2 sites, one crash + one restart each (single shard).
        assert_eq!(rolling.len(), 4);
        let split = NemesisSchedule::split_brain_and_heal(config, 10, 20);
        assert_eq!(split.len(), 2);
        let soak = NemesisSchedule::lossy_link_soak(config, 0.1, 0, 100);
        assert_eq!(soak.len(), 5 * 4 + 1);
        assert!(matches!(
            soak.events().last(),
            Some((100, FaultEvent::Heal))
        ));
    }

    #[test]
    fn slow_node_delays_only_its_sends_until_heal() {
        let s = NemesisSchedule::slow_node(1, 300_000, 10, 100);
        let mut n = Nemesis::new(s, 1);
        n.advance(10);
        assert_eq!(n.send_delay(1, 0), 300_000, "the slow node answers late");
        assert_eq!(n.send_delay(0, 1), 0, "traffic *to* it is unaffected");
        assert_eq!(n.slow_node_extra(1), Some(300_000));
        n.advance(100);
        assert_eq!(n.send_delay(1, 0), 0, "heal clears the gray fault");
        assert_eq!(n.summary().slow_nodes, 1);
        assert_eq!(n.summary().slowed, 1);
    }

    #[test]
    fn duplicate_and_reorder_draws_fire_roughly_p() {
        let s = NemesisSchedule::new(vec![
            (
                0,
                FaultEvent::DuplicateFrame {
                    from: 0,
                    to: 1,
                    p: 0.3,
                },
            ),
            (
                0,
                FaultEvent::ReorderFrame {
                    from: 1,
                    to: 0,
                    p: 0.3,
                },
            ),
        ]);
        let mut n = Nemesis::new(s, 11);
        n.advance(0);
        let mut dups = 0;
        let mut reorders = 0;
        for _ in 0..10_000 {
            if n.should_duplicate(0, 1) {
                dups += 1;
            }
            assert!(!n.should_duplicate(1, 0), "only the configured link");
            if let Some(extra) = n.reorder_delay(1, 0) {
                assert!(extra >= 500, "holdback must be non-zero");
                reorders += 1;
            }
            assert!(n.reorder_delay(0, 1).is_none());
        }
        for (name, count) in [("dup", dups), ("reorder", reorders)] {
            let rate = count as f64 / 10_000.0;
            assert!((0.25..0.35).contains(&rate), "{name} rate off: {rate}");
        }
        assert_eq!(n.summary().duplicated, dups);
        assert_eq!(n.summary().reordered, reorders);
        // Heal clears both.
        let mut healed = Nemesis::new(NemesisSchedule::new(vec![(5, FaultEvent::Heal)]), 1);
        healed.advance(5);
        assert!(!healed.should_duplicate(0, 1));
    }

    /// The random generator never aims a link-level incident (lossy link, delay spike,
    /// slow node, duplicate/reorder) at a process that is crashed-without-restart at
    /// that point in the schedule, and never re-crashes a dead site.
    #[test]
    fn random_never_targets_a_crashed_process() {
        for seed in 0..200 {
            let s = NemesisSchedule::random(&RandomNemesisOpts {
                config: Config::full(5, 2),
                horizon_us: 20_000_000,
                incidents: 8,
                seed,
            });
            let mut dead: BTreeSet<ProcessId> = BTreeSet::new();
            for (_, e) in s.events() {
                match e {
                    FaultEvent::Crash(p) => {
                        assert!(!dead.contains(p), "seed {seed}: re-crashed dead {p}");
                        dead.insert(*p);
                    }
                    FaultEvent::Restart(p) => {
                        dead.remove(p);
                    }
                    FaultEvent::DropLink { from, to, .. }
                    | FaultEvent::DelaySpike { from, to, .. }
                    | FaultEvent::DuplicateFrame { from, to, .. }
                    | FaultEvent::ReorderFrame { from, to, .. } => {
                        assert!(!dead.contains(from), "seed {seed}: link from dead {from}");
                        assert!(!dead.contains(to), "seed {seed}: link to dead {to}");
                    }
                    FaultEvent::SlowNode { process, .. } => {
                        assert!(
                            !dead.contains(process),
                            "seed {seed}: slowed dead {process}"
                        );
                    }
                    FaultEvent::Partition(_) | FaultEvent::Heal => {}
                }
            }
        }
    }

    #[test]
    fn random_schedules_are_deterministic_and_respect_crash_budget() {
        let opts = RandomNemesisOpts {
            config: Config::full(5, 1),
            horizon_us: 10_000_000,
            incidents: 4,
            seed: 42,
        };
        let a = NemesisSchedule::random(&opts);
        let b = NemesisSchedule::random(&opts);
        assert_eq!(a, b, "same seed, same schedule");
        for seed in 0..50 {
            let s = NemesisSchedule::random(&RandomNemesisOpts {
                seed,
                ..opts.clone()
            });
            let crashes = s
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, FaultEvent::Crash(_)))
                .count();
            assert!(crashes <= 1, "seed {seed}: crash budget f=1 exceeded");
        }
    }
}

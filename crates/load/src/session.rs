//! One client session: the in-flight command every client of the workspace keeps.
//!
//! The simulator's clients, `tempo-runtime`'s `ClientSession` and its `run_load` pumps
//! follow one rule (DESIGN.md §7): submit to the closest live replica of the command's
//! target shard, watch the closest live replica of *every* accessed shard, and count
//! the command complete when each watched replica has reported executing it. Every
//! replica of a shard reports, so most execution notices a client receives are for a
//! replica it does not watch, or for a command it already gave up on. [`Session`] is
//! that rule, written once: no clock, no transport, no history — each caller keeps its
//! own (rifl numbering, timeouts, event scheduling, recording) around it.

use tempo_kernel::command::{Command, Key};
use tempo_kernel::id::{ProcessId, Rifl, ShardId};
use tempo_kernel::protocol::View;

/// One observed per-key output, tagged with the shard that produced it (the shape a
/// history's completion record takes).
pub type ShardOutput = (ShardId, Key, Option<u64>);

/// At most one in-flight command and the replicas it waits for. Reusing a session
/// for the next command keeps its buffers, so a client's steady state allocates
/// nothing here.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// The in-flight command; `None` when the session is idle.
    rifl: Option<Rifl>,
    start_us: u64,
    /// Per accessed shard not yet answered, the replica whose notice counts.
    pending: Vec<(ShardId, ProcessId)>,
    outputs: Vec<ShardOutput>,
}

/// A command the last watched replica just answered.
#[derive(Debug, PartialEq)]
pub struct Completed<'a> {
    /// The start time given to [`Session::open`].
    pub start_us: u64,
    /// Every watched replica's outputs, tagged by shard, in the order they arrived.
    pub outputs: &'a [ShardOutput],
}

impl Session {
    /// Opens `cmd`, started at `start_us`, watching per accessed shard the closest
    /// replica that `down` does not rule out — closest in `view`'s order, the client
    /// site's own [`View`] (geographic with a planet, ring order without), so a client
    /// watches the replica its colocated replicas would pick first. Returns the
    /// replica to submit to: the watched one of the target shard. `None` means some
    /// accessed shard has every replica down: the command cannot complete and the
    /// session stays idle.
    pub fn open(
        &mut self,
        cmd: &Command,
        start_us: u64,
        view: &View,
        down: &dyn Fn(ProcessId) -> bool,
    ) -> Option<ProcessId> {
        debug_assert!(self.rifl.is_none(), "a session holds one command at a time");
        self.pending.clear();
        self.outputs.clear();
        for shard in cmd.shards() {
            let watched = view.closest(shard).iter().copied().find(|p| !down(*p))?;
            self.pending.push((shard, watched));
        }
        self.rifl = Some(cmd.rifl);
        self.start_us = start_us;
        let target = cmd.target_shard();
        self.pending
            .iter()
            .find(|(shard, _)| *shard == target)
            .map(|(_, p)| *p)
    }

    /// The in-flight command, if any.
    pub fn rifl(&self) -> Option<Rifl> {
        self.rifl
    }

    /// When the in-flight command started (as given to [`open`](Session::open)).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Takes one execution notice: `from` executed `rifl`'s part at `shard` with
    /// `outputs`. A notice for another command, for a shard already answered or from
    /// a replica not watched changes nothing. The one from the last watched replica
    /// completes the command and leaves the session idle.
    pub fn reply(
        &mut self,
        from: ProcessId,
        rifl: Rifl,
        shard: ShardId,
        outputs: &[(Key, Option<u64>)],
    ) -> Option<Completed<'_>> {
        if self.rifl != Some(rifl) {
            return None;
        }
        let i = self.pending.iter().position(|w| *w == (shard, from))?;
        self.pending.swap_remove(i);
        self.outputs
            .extend(outputs.iter().map(|(key, out)| (shard, *key, *out)));
        if !self.pending.is_empty() {
            return None;
        }
        self.rifl = None;
        Some(Completed {
            start_us: self.start_us,
            outputs: &self.outputs,
        })
    }

    /// Gives up on `rifl` unless it completed since. Returns whether it was still in
    /// flight (so the caller counts one abort per command).
    pub fn abort(&mut self, rifl: Rifl) -> bool {
        let in_flight = self.rifl == Some(rifl);
        if in_flight {
            self.rifl = None;
        }
        in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_kernel::command::KVOp;
    use tempo_kernel::config::Config;
    use tempo_kernel::membership::Membership;
    use tempo_planet::Planet;

    const RIFL: Rifl = Rifl { client: 7, seq: 1 };

    fn up(_: ProcessId) -> bool {
        false
    }

    /// One key per listed shard.
    fn cmd(shards: &[ShardId]) -> Command {
        let ops = shards.iter().map(|s| (*s, 10 + s, KVOp::Get)).collect();
        Command::new(RIFL, ops, 0)
    }

    #[test]
    fn only_the_watched_replica_for_the_current_command_counts() {
        let view = View::trivial(Config::full(3, 1), 0);
        let mut session = Session::default();
        assert_eq!(session.open(&cmd(&[0]), 5, &view, &up), Some(0));
        // An unwatched replica, a stale rifl, the wrong shard: none completes it.
        assert_eq!(session.reply(1, RIFL, 0, &[(10, Some(1))]), None);
        assert_eq!(session.reply(0, Rifl::new(7, 0), 0, &[(10, Some(1))]), None);
        assert_eq!(session.reply(0, RIFL, 1, &[(10, Some(1))]), None);
        assert_eq!(session.rifl(), Some(RIFL));
        let done = session.reply(0, RIFL, 0, &[(10, Some(2))]);
        assert_eq!(
            done,
            Some(Completed {
                start_us: 5,
                outputs: &[(0, 10, Some(2))],
            })
        );
        // Idle now: the same notice again (a duplicate) changes nothing.
        assert_eq!(session.rifl(), None);
        assert_eq!(session.reply(0, RIFL, 0, &[(10, Some(2))]), None);
    }

    #[test]
    fn a_two_shard_command_waits_for_both_watched_replicas() {
        // Two shards over three sites: shard 0 is processes 0-2, shard 1 is 3-5.
        let view = View::trivial(Config::new(3, 1, 2), 1);
        let mut session = Session::default();
        assert_eq!(session.open(&cmd(&[0, 1]), 0, &view, &up), Some(1));
        assert_eq!(session.reply(4, RIFL, 1, &[(11, None)]), None);
        // Shard 1 already answered: a second notice for it does not finish the job.
        assert_eq!(session.reply(4, RIFL, 1, &[(11, None)]), None);
        let done = session
            .reply(1, RIFL, 0, &[(10, Some(3))])
            .expect("complete");
        assert_eq!(done.outputs, &[(1, 11, None), (0, 10, Some(3))]);
    }

    #[test]
    fn a_shard_with_every_replica_down_is_unreachable() {
        let view = View::trivial(Config::new(3, 1, 2), 0);
        let mut session = Session::default();
        // Shard 0 is reachable, shard 1 (processes 3-5) is not.
        let shard_one_down = |p: ProcessId| p >= 3;
        assert_eq!(session.open(&cmd(&[0, 1]), 0, &view, &shard_one_down), None);
        assert_eq!(session.rifl(), None, "nothing is in flight");
        assert!(!session.abort(RIFL), "and there is nothing to abort");
        assert_eq!(session.reply(0, RIFL, 0, &[]), None);
    }

    #[test]
    fn abort_counts_once_and_only_for_the_command_in_flight() {
        let view = View::trivial(Config::full(3, 1), 0);
        let mut session = Session::default();
        session.open(&cmd(&[0]), 0, &view, &up);
        assert!(!session.abort(Rifl::new(7, 9)));
        assert!(session.abort(RIFL));
        assert!(!session.abort(RIFL));
        assert_eq!(session.reply(0, RIFL, 0, &[]), None, "late notice ignored");
    }

    /// The watched replica of `shard` from every site, with `down` crashed.
    fn watched(
        view_of: impl Fn(u64) -> View,
        sites: u64,
        shard: ShardId,
        down: &[ProcessId],
    ) -> Vec<Option<ProcessId>> {
        let mut session = Session::default();
        (0..sites)
            .map(|site| {
                let view = view_of(site);
                let target = session.open(&cmd(&[shard]), 0, &view, &|p| down.contains(&p));
                session.abort(RIFL);
                target
            })
            .collect()
    }

    #[test]
    fn failover_skips_down_replicas_in_ring_order() {
        let config = Config::full(5, 2);
        let view_of = |site| View::trivial(config, site);
        assert_eq!(watched(view_of, 5, 0, &[]), [0, 1, 2, 3, 4].map(Some));
        // Ring order: site s falls back to s+1, then s+2.
        assert_eq!(watched(view_of, 5, 0, &[1]), [0, 2, 2, 3, 4].map(Some));
        assert_eq!(watched(view_of, 5, 0, &[1, 2]), [0, 3, 3, 3, 4].map(Some));
        assert_eq!(watched(view_of, 5, 0, &[0, 1, 2, 3, 4]), [None; 5]);
    }

    #[test]
    fn failover_skips_down_replicas_in_planet_order() {
        let config = Config::full(5, 2);
        let planet = Planet::ec2();
        let view_of = |site| planet.view_for(config, site);
        // Ireland (0) falls back to Canada (3), then N. California (1); Singapore (2)
        // to N. California, then Ireland.
        assert_eq!(watched(view_of, 5, 0, &[0]), [3, 1, 2, 3, 4].map(Some));
        assert_eq!(watched(view_of, 5, 0, &[0, 3]), [1, 1, 2, 1, 4].map(Some));
        assert_eq!(watched(view_of, 5, 0, &[1, 2]), [0, 3, 0, 3, 4].map(Some));
    }

    /// The simulator (always with a planet) and `NetCluster` with one both give a
    /// site's clients the `Planet::view_for` view of the site's replica of shard 0.
    /// From every site, for every shard and every set of crashed replicas, that view
    /// watches the live replica at the least one-way delay from the site (the least id
    /// on a tie): the same replica whichever scheduler runs the client.
    #[test]
    fn sim_and_net_cluster_watch_the_closest_live_replica_from_every_site() {
        for (config, planet) in [
            (Config::full(5, 1), Planet::ec2()),
            (Config::new(3, 1, 2), Planet::ec2_three_regions()),
            (Config::full(3, 1), Planet::equidistant(3, 50.0)),
        ] {
            let m = Membership::from_config(&config);
            let processes = m.total_processes() as u64;
            for site in m.all_sites() {
                let view = planet.view_for(config, m.process(0, site));
                for crashed in 0..1u64 << processes {
                    let down = |p: ProcessId| crashed & (1 << p) != 0;
                    for shard in 0..m.shards() as u64 {
                        let by_distance = m
                            .processes_of_shard(shard)
                            .into_iter()
                            .filter(|p| !down(*p))
                            .min_by_key(|p| (planet.one_way_us(site, m.site_of(*p)), *p));
                        let mut session = Session::default();
                        let opened = Command::single(RIFL, shard, 1, KVOp::Get, 0);
                        assert_eq!(session.open(&opened, 0, &view, &down), by_distance);
                    }
                }
            }
        }
    }
}

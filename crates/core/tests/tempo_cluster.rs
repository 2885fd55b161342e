//! End-to-end tests of the Tempo protocol on a synchronous local cluster.
//!
//! These tests drive full deployments (several processes, one or more shards) through the
//! kernel's `LocalCluster` harness and check the paper's correctness properties:
//! timestamp agreement (Property 1), ordering, the fast-path condition of Table 1, the
//! stability examples of Figures 2-4 and the recovery protocol of §5.

use tempo_core::stability::bucket_of;
use tempo_core::{Message, Phase, PromiseBundle, PromiseRange, Quorums, Tempo};
use tempo_kernel::config::Config;
use tempo_kernel::driver::{Driver, Outbound, Output};
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::kvstore::KVStore;
use tempo_kernel::protocol::{Action, Protocol, View};
use tempo_kernel::rand::Rng;
use tempo_kernel::{Command, KVOp};

fn rifl(client: u64, seq: u64) -> Rifl {
    Rifl::new(client, seq)
}

fn key_cmd(client: u64, seq: u64, key: u64) -> Command {
    Command::single(rifl(client, seq), 0, key, KVOp::Put(seq), 0)
}

/// The commands of `executed` that touch `key`, in order: what every replica must agree
/// on (commands on keys of different buckets may execute in either order).
fn on_key(executed: &[tempo_kernel::protocol::Executed], key: u64) -> Vec<Rifl> {
    let on = executed
        .iter()
        .filter(|e| e.result.outputs.iter().any(|(k, _)| *k == key));
    on.map(|e| e.rifl).collect()
}

/// Sets the clock of `key`'s bucket at `process` to `value` by feeding it an `MBump`
/// (bumping is always safe).
fn set_clock(cluster: &mut LocalCluster<Tempo>, process: ProcessId, key: u64, value: u64) {
    let msg = Message::MBump {
        dot: Dot::new(process, u64::MAX),
        ts: value,
        buckets: vec![bucket_of(key)],
    };
    cluster.deliver(process, process, msg);
    assert_eq!(cluster.process(process).clock_value(), value);
}

#[test]
fn single_command_commits_and_executes_everywhere() {
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, key_cmd(1, 1, 42));
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        // Executed — or already executed-and-GC'd once every peer's watermark covered it.
        let phase = cluster.process(p).phase_of(dot);
        assert!(
            phase == Some(Phase::Execute)
                || (phase.is_none() && cluster.process(p).gc_tracker().is_collected(dot)),
            "command not executed at {p} (phase {phase:?})"
        );
        let executed = cluster.executed(p);
        assert_eq!(executed.len(), 1);
        assert_eq!(executed[0].rifl, rifl(1, 1));
    }
}

#[test]
fn coordinator_executes_without_extra_ticks_thanks_to_piggybacking() {
    // §3.2: promises piggybacked on MProposeAck/MCommit often make the timestamp stable
    // immediately after it is decided.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, key_cmd(1, 1, 7));
    let executed = cluster.executed(0);
    assert_eq!(
        executed.len(),
        1,
        "coordinator should execute with no ticks"
    );
}

#[test]
fn fast_path_is_always_taken_with_f1() {
    // §3.1: with f = 1 the fast-path condition trivially holds, whatever the proposals.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Give the replicas wildly different clocks.
    set_clock(&mut cluster, 1, 1, 100);
    set_clock(&mut cluster, 2, 1, 3);
    for seq in 1..=20 {
        cluster.submit(0, key_cmd(1, seq, seq));
    }
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 20);
    assert_eq!(metrics.slow_paths, 0);
}

#[test]
fn table1_scenario_a_fast_path_without_matching_proposals() {
    // Table 1 a): f = 2, clocks A=5 (proposes 6), B=6, C=10, D=10 -> proposals 6,7,11,11;
    // count(11) = 2 >= f, so the fast path is taken and the timestamp is 11.
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 0, 5);
    set_clock(&mut cluster, 1, 0, 6);
    set_clock(&mut cluster, 2, 0, 10);
    set_clock(&mut cluster, 3, 0, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 1);
    assert_eq!(metrics.slow_paths, 0);
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), Some(11));
    }
}

#[test]
fn table1_scenario_b_slow_path_when_highest_proposal_is_unique() {
    // Table 1 b): f = 2, clocks A=5, B=6, C=10, D=5 -> proposals 6,7,11,6; count(11) = 1 < f,
    // so the slow path is taken. The committed timestamp is still 11 (Property 1).
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 0, 5);
    set_clock(&mut cluster, 1, 0, 6);
    set_clock(&mut cluster, 2, 0, 10);
    set_clock(&mut cluster, 3, 0, 5);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.fast_paths, 0);
    assert_eq!(metrics.slow_paths, 1);
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), Some(11));
    }
}

#[test]
fn table1_scenario_c_fast_path_with_f1_divergent_clocks() {
    // Table 1 c): f = 1, clocks A=5, B=6, C=10 -> proposals 6,7,11; fast path, timestamp 11.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 0, 5);
    set_clock(&mut cluster, 1, 0, 6);
    set_clock(&mut cluster, 2, 0, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    assert_eq!(cluster.process(0).metrics().fast_paths, 1);
    assert_eq!(
        cluster.process(4).committed_timestamp(Dot::new(0, 1)),
        Some(11)
    );
}

#[test]
fn table1_scenario_d_fast_path_with_matching_proposals() {
    // Table 1 d): f = 1, clocks A=5, B=5, C=1 -> proposals 6,6,6; fast path, timestamp 6.
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 0, 0, 5);
    set_clock(&mut cluster, 1, 0, 5);
    set_clock(&mut cluster, 2, 0, 1);
    cluster.submit(0, key_cmd(1, 1, 0));
    assert_eq!(cluster.process(0).metrics().fast_paths, 1);
    assert_eq!(
        cluster.process(3).committed_timestamp(Dot::new(0, 1)),
        Some(6)
    );
}

#[test]
fn concurrent_conflicting_commands_agree_on_timestamps_and_order() {
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Submit concurrently (no deliveries in between) from every process, all on key 0.
    for (i, p) in cluster.process_ids().into_iter().enumerate() {
        cluster.submit_no_deliver(p, Command::single(rifl(p, 1), 0, 0, KVOp::Put(i as u64), 0));
    }
    cluster.run_to_quiescence();
    // Property 1: all processes agree on every command's timestamp. Checked before the
    // stability ticks: afterwards the executed-watermark GC may have dropped the
    // metadata the query reads.
    for seq_source in cluster.process_ids() {
        let dot = Dot::new(seq_source, 1);
        let ts0 = cluster.process(0).committed_timestamp(dot);
        assert!(ts0.is_some(), "command {dot} not committed at process 0");
        for p in cluster.process_ids() {
            assert_eq!(cluster.process(p).committed_timestamp(dot), ts0);
        }
    }
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // Ordering: all processes execute the same sequence and end with the same state.
    let orders: Vec<Vec<Rifl>> = cluster
        .process_ids()
        .into_iter()
        .map(|p| cluster.executed(p).into_iter().map(|e| e.rifl).collect())
        .collect();
    assert_eq!(orders[0].len(), 5);
    for order in &orders {
        assert_eq!(order, &orders[0]);
    }
}

#[test]
fn random_interleavings_preserve_ordering_property() {
    // A randomized schedule of submissions and message deliveries; whatever the
    // interleaving, all replicas must execute the same sequence of conflicting commands.
    for seed in 0..10u64 {
        let mut rng = Rng::new(seed);
        let config = Config::full(5, 1);
        let mut cluster = LocalCluster::<Tempo>::new(config);
        let total = 30u64;
        let mut submitted = 0u64;
        while submitted < total || cluster.in_flight() > 0 {
            let submit_now = submitted < total && (cluster.in_flight() == 0 || rng.gen_bool(0.3));
            if submit_now {
                let process = rng.gen_range(5);
                // Two hot keys so that most commands conflict.
                let key = rng.gen_range(2);
                submitted += 1;
                cluster.submit_no_deliver(
                    process,
                    Command::single(rifl(process, submitted), 0, key, KVOp::Put(submitted), 0),
                );
            } else {
                cluster.step();
            }
        }
        for _ in 0..5 {
            cluster.tick_all(5_000);
        }
        let reference = cluster.executed(0);
        assert_eq!(
            reference.len() as u64,
            total,
            "seed {seed}: missing executions"
        );
        for p in cluster.process_ids().into_iter().skip(1) {
            let order = cluster.executed(p);
            for key in 0..2 {
                assert_eq!(
                    on_key(&order, key),
                    on_key(&reference, key),
                    "seed {seed}: divergent execution on key {key} at {p}"
                );
            }
        }
    }
}

#[test]
fn replicated_state_machines_converge() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let mut expected = KVStore::new();
    let mut commands = Vec::new();
    for seq in 1..=50u64 {
        let cmd = Command::single(rifl(0, seq), 0, seq % 5, KVOp::Add(seq), 0);
        commands.push(cmd.clone());
        cluster.submit((seq % 3) as ProcessId, cmd);
    }
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // All replicas executed all commands; apply the reference order (process 0's) to a
    // fresh store and compare values.
    let order: Vec<Rifl> = cluster.executed(0).into_iter().map(|e| e.rifl).collect();
    assert_eq!(order.len(), 50);
    for r in &order {
        let cmd = commands.iter().find(|c| c.rifl == *r).unwrap();
        expected.execute(0, cmd);
    }
    for p in cluster.process_ids().into_iter().skip(1) {
        assert_eq!(cluster.executed(p).len(), 50);
    }
}

#[test]
fn multi_shard_command_executes_at_both_shards() {
    // 2 shards over 3 sites; a command accessing both shards, submitted at site 0.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let cmd = Command::new(
        rifl(1, 1),
        vec![(0, 10, KVOp::Put(1)), (1, 20, KVOp::Put(2))],
        0,
    );
    cluster.submit(0, cmd);
    let dot = Dot::new(0, 1);
    // Committed with the same final timestamp at every replica of both shards (checked
    // before the stability ticks, which may garbage collect the metadata).
    let ts = cluster.process(0).committed_timestamp(dot);
    assert!(ts.is_some());
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), ts, "at {p}");
    }
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
    // Executed at the submitting site's processes of both shards.
    assert_eq!(cluster.executed(0).len(), 1, "shard 0 replica at site 0");
    assert_eq!(cluster.executed(3).len(), 1, "shard 1 replica at site 0");
}

#[test]
fn multi_shard_final_timestamp_is_max_of_shard_timestamps() {
    // Figure 4: shard 0 commits with timestamp 6, shard 1 with timestamp 10; the final
    // timestamp is max{6, 10} = 10.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Shard 0 processes: 0,1,2 (clocks 5); shard 1 processes: 3,4,5 (clocks 9).
    for p in [0, 1, 2] {
        set_clock(&mut cluster, p, 1, 5);
    }
    for p in [3, 4, 5] {
        set_clock(&mut cluster, p, 2, 9);
    }
    let cmd = Command::new(rifl(1, 1), vec![(0, 1, KVOp::Get), (1, 2, KVOp::Get)], 0);
    cluster.submit(0, cmd);
    // Checked before the stability ticks: afterwards the GC may drop the metadata.
    let dot = Dot::new(0, 1);
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).committed_timestamp(dot), Some(10));
    }
    for _ in 0..4 {
        cluster.tick_all(5_000);
    }
}

#[test]
fn single_shard_commands_on_different_shards_are_independent() {
    // Genuineness (§4): a command on shard 0 involves no shard-1 process.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, Command::single(rifl(1, 1), 0, 5, KVOp::Put(1), 0));
    cluster.tick_all(5_000);
    for p in [3, 4, 5] {
        let metrics = cluster.process(p).metrics();
        assert_eq!(metrics.committed, 0, "shard 1 process {p} saw the command");
    }
    assert_eq!(cluster.executed(0).len(), 1);
}

#[test]
fn recovery_after_coordinator_crash_preserves_fast_path_timestamp() {
    // The coordinator crashes after its fast quorum made proposals but before sending any
    // MCommit. A new coordinator recovers the command with the same timestamp that the
    // crashed coordinator could have committed (Property 4 / §5 case 2).
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Give process 1 a head start so the recovered timestamp is distinctive.
    set_clock(&mut cluster, 1, 0, 7);
    cluster.submit_no_deliver(0, key_cmd(1, 1, 0));
    // Deliver MPropose to process 1 and MPayload to process 2, then crash the coordinator
    // before it can receive the MProposeAck.
    assert!(cluster.step());
    assert!(cluster.step());
    cluster.crash(0);
    cluster.run_to_quiescence();
    let dot = Dot::new(0, 1);
    assert_eq!(cluster.process(1).phase_of(dot), Some(Phase::Propose));
    assert_eq!(cluster.process(2).phase_of(dot), Some(Phase::Payload));
    // The survivors suspect the coordinator; process 1 becomes the shard leader.
    cluster.process_mut(1).suspect(0);
    cluster.process_mut(2).suspect(0);
    assert!(cluster.process(1).is_leader());
    assert!(!cluster.process(2).is_leader());
    // Recovery is triggered by the periodic handler once the command is old enough.
    cluster.tick_all(3_000_000);
    for p in [1, 2] {
        assert_eq!(
            cluster.process(p).committed_timestamp(dot),
            Some(8),
            "recovered timestamp must be process 1's proposal (its clock 7 + 1)"
        );
    }
    // After promises propagate, the command also executes at the survivors.
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);
    assert_eq!(cluster.executed(1).len(), 1);
    assert_eq!(cluster.executed(2).len(), 1);
    assert!(cluster.process(1).metrics().recoveries_started >= 1);
    assert!(cluster.process(1).metrics().recoveries_completed >= 1);
}

/// A restarted replica stays out of a recovery only where it is in the command's fast
/// quorum (DESIGN.md §6). Here it is not: replica 3 restarted, coordinator 0's fast quorum
/// is {0, 1, 2}, and 0 crashes after its proposals. The recovery needs n - f = 4 acks, so
/// with 0 down the restarted replica's is one of them, and the command commits.
#[test]
fn a_restarted_replica_outside_the_fast_quorum_helps_recover_a_command() {
    let config = Config::full(5, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    // Replica 3 restarts as incarnation 1 and completes its rejoin handshake.
    for action in cluster.process_mut(3).rejoin(1, 0) {
        if let Action::Send { to, msg } = action {
            for target in to {
                cluster.deliver(3, target, msg.clone());
            }
        }
    }
    cluster.run_to_quiescence();
    assert!(cluster.process(3).is_joined());
    cluster.submit_no_deliver(0, key_cmd(1, 1, 0));
    // Deliver MPropose to 1 and 2 and MPayload to 3 and 4, then crash the coordinator
    // before it can receive an MProposeAck.
    assert_eq!(cluster.in_flight(), 4);
    for _ in 0..4 {
        assert!(cluster.step());
    }
    cluster.crash(0);
    cluster.run_to_quiescence();
    let dot = Dot::new(0, 1);
    for (p, phase) in [
        (1, Phase::Propose),
        (2, Phase::Propose),
        (3, Phase::Payload),
    ] {
        assert_eq!(cluster.process(p).phase_of(dot), Some(phase));
    }
    for p in 1..5 {
        cluster.process_mut(p).suspect(0);
    }
    assert!(cluster.process(1).is_leader());
    cluster.tick_all(3_000_000);
    for p in 1..5 {
        assert!(
            cluster.process(p).committed_timestamp(dot).is_some(),
            "the command must commit at {p}"
        );
    }
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);
    for p in 1..5 {
        assert_eq!(
            cluster.executed(p).len(),
            1,
            "the command must execute at {p}"
        );
    }
}

#[test]
fn recovery_after_commit_spreads_the_existing_decision() {
    // The coordinator commits (so some process knows the outcome) and then crashes before
    // every replica learns it; the periodic commit-request mechanism fills the gap.
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit_no_deliver(0, key_cmd(1, 1, 3));
    // Deliver: MPropose to 1, MPayload to 2, MProposeAck back to 0 (which commits and
    // sends MCommit to 1 and 2). Deliver the MCommit to 1 only, then crash 0.
    assert!(cluster.step()); // MPropose -> 1
    assert!(cluster.step()); // MPayload -> 2
    assert!(cluster.step()); // MProposeAck -> 0 (commits, queues MCommit to 1 and 2)
    assert!(cluster.step()); // MCommit -> 1
    cluster.crash(0);
    cluster.run_to_quiescence();
    let dot = Dot::new(0, 1);
    assert!(cluster.process(1).committed_timestamp(dot).is_some());
    assert!(cluster.process(2).committed_timestamp(dot).is_none());
    cluster.process_mut(1).suspect(0);
    cluster.process_mut(2).suspect(0);
    // After the timeout, process 2 asks around and learns the commit.
    cluster.tick_all(3_000_000);
    assert_eq!(
        cluster.process(2).committed_timestamp(dot),
        cluster.process(1).committed_timestamp(dot)
    );
}

#[test]
fn slow_path_consensus_tolerates_duplicate_acks() {
    // Exercise the slow path explicitly (f = 2 and a unique highest proposal) and check
    // that replaying a consensus ack does not commit twice.
    let config = Config::full(5, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    set_clock(&mut cluster, 2, 0, 10);
    cluster.submit(0, key_cmd(1, 1, 0));
    let metrics = cluster.process(0).metrics();
    assert_eq!(metrics.slow_paths, 1);
    let dot = Dot::new(0, 1);
    let ts = cluster.process(0).committed_timestamp(dot).unwrap();
    // Replay a consensus ack; the committed timestamp must not change.
    let replay = Message::MConsensusAck { dot, ballot: 1 };
    cluster.deliver(1, 0, replay);
    assert_eq!(cluster.process(0).committed_timestamp(dot), Some(ts));
    assert_eq!(cluster.process(0).metrics().committed, 1);
}

#[test]
fn gc_keeps_command_metadata_bounded_over_a_long_run() {
    // The seed kept one `CommandInfo` per command ever issued: after 400 commands,
    // `Tempo::info` held 400 entries at every replica, forever. With the
    // executed-watermark GC, metadata is dropped once every shard peer has executed a
    // command, so the live set only covers the in-flight window.
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let total = 400u64;
    for seq in 1..=total {
        cluster.submit(((seq % 3) + 1) % 3, key_cmd(1, seq, seq % 11));
        if seq % 20 == 0 {
            // Periodic promise broadcasts carry the executed watermarks.
            cluster.tick_all(5_000);
        }
    }
    for _ in 0..3 {
        cluster.tick_all(5_000);
    }
    for p in cluster.process_ids() {
        let metrics = cluster.process(p).metrics();
        assert_eq!(metrics.executed, total, "all commands executed at {p}");
        // At quiescence the frontier-only broadcasts ship the final window, so *every*
        // command's metadata has been reclaimed — not merely a bounded prefix.
        assert_eq!(
            metrics.gc_collected, total,
            "GC must reclaim all {total} executed commands at {p}"
        );
        assert_eq!(
            cluster.process(p).info_len(),
            0,
            "no live metadata must remain at {p} after {total} executed commands"
        );
    }
    // GC must not disturb execution: all replicas executed each key's commands in the
    // same order.
    let reference = cluster.executed(0);
    assert_eq!(reference.len() as u64, total);
    for p in [1u64, 2] {
        let order = cluster.executed(p);
        for key in 0..11 {
            let (at_p, at_0) = (on_key(&order, key), on_key(&reference, key));
            assert_eq!(at_p, at_0, "divergent execution on key {key} at {p}");
        }
    }
}

#[test]
fn stale_messages_for_collected_dots_are_dropped() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    cluster.submit(0, key_cmd(1, 1, 0));
    cluster.submit(0, key_cmd(1, 2, 0));
    for _ in 0..3 {
        cluster.tick_all(5_000);
    }
    let dot = Dot::new(0, 1);
    assert!(
        cluster.process(0).gc_tracker().is_collected(dot),
        "first command should be collected once every peer executed it"
    );
    assert!(cluster.process(0).phase_of(dot).is_none());
    // A stale in-flight message about the collected dot must not resurrect metadata.
    let before = cluster.process(0).info_len();
    cluster.deliver(1, 0, Message::MCommitRequest { dot });
    cluster.deliver(1, 0, Message::MRec { dot, ballot: 5 });
    assert_eq!(cluster.in_flight(), 0, "stale messages get no answer");
    assert_eq!(cluster.process(0).info_len(), before);
    assert!(cluster.process(0).phase_of(dot).is_none());
}

#[test]
fn executions_follow_timestamp_order_per_process() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    for seq in 1..=20u64 {
        let source = (seq % 3) as ProcessId;
        cluster.submit_no_deliver(
            source,
            Command::single(rifl(source, seq), 0, 0, KVOp::Get, 0),
        );
        // Interleave some deliveries to create concurrency.
        if seq % 2 == 0 {
            for _ in 0..3 {
                cluster.step();
            }
        }
    }
    cluster.run_to_quiescence();
    for _ in 0..5 {
        cluster.tick_all(5_000);
    }
    // Check that at each process, executed commands have non-decreasing timestamps.
    for p in cluster.process_ids() {
        let executed = cluster.executed(p);
        assert_eq!(executed.len(), 20);
    }
}

#[test]
fn one_executor_batch_may_announce_execute_and_collect_its_own_commands() {
    // The scenario behind PR 9's `exec_absorb` panic. A straggler (process 2 of shard 0)
    // holds two cross-shard commands queued behind each other: both committed, both
    // already attested by the sibling shard and executed at both shard peers, while its
    // own stability still lags below them. One `MPromises` then lifts stability past
    // both, so a single executor batch announces *and* executes the pair, and the pair
    // is collectable the moment it executes. `exec_absorb` announces straight out of
    // `take_newly_stable()`, which is only sound because the `MStable` copies addressed
    // to this process are delivered after it returns: handled in the middle of the
    // loop, the first would claim the batch's executed dots and garbage-collect the
    // second command's metadata before the loop reached it.
    let config = Config::new(3, 1, 2);
    let mut cluster = LocalCluster::<Tempo>::new(config);
    let straggler: ProcessId = 2;
    let quorums: Quorums = [(0, vec![0, 1]), (1, vec![3, 4])].into();
    for (seq, ts) in [(1u64, 11u64), (2, 12)] {
        let dot = Dot::new(0, seq);
        let cmd = Command::new(
            rifl(1, seq),
            vec![(0, 10, KVOp::Put(seq)), (1, 20, KVOp::Put(seq))],
            0,
        );
        let payload = Message::MPayload {
            dot,
            cmd,
            quorums: quorums.clone(),
        };
        cluster.deliver(0, straggler, payload);
        // Shard 0 decided `ts` (process 1's clock ran ahead); shard 1 proposed lower.
        let first_proposal = if seq == 1 { 1 } else { ts };
        for (from, shard, shard_ts, attached) in [
            (0, 0, ts, vec![(0, first_proposal), (1, ts)]),
            (3, 1, seq, Vec::new()),
        ] {
            let promises = PromiseBundle {
                attached,
                detached: Vec::new(),
            };
            let commit = Message::MCommit {
                dot,
                shard,
                ts: shard_ts,
                promises,
            };
            cluster.deliver(from, straggler, commit);
        }
        assert_eq!(
            cluster.process(straggler).committed_timestamp(dot),
            Some(ts)
        );
        cluster.deliver(3, straggler, Message::MStable { dot });
    }
    assert!(cluster.process(straggler).stable_timestamp(10) < 11);
    let executed_everywhere = vec![(0, 2)];
    let caught_up = Message::MPromises {
        detached: Vec::new(),
        attached: Vec::new(),
        executed: executed_everywhere.clone(),
        frontiers: Vec::new(),
    };
    cluster.deliver(1, straggler, caught_up);
    assert!(cluster.executed(straggler).is_empty());
    // The lagging promises of process 0 arrive: timestamps 1..=12 are now promised by a
    // majority (0 and the straggler itself), so 11 and 12 become stable at once.
    let lifts_stability = Message::MPromises {
        detached: vec![(bucket_of(10), PromiseRange::new(2, 11))],
        attached: vec![(Dot::new(0, 1), 1), (Dot::new(0, 2), 12)],
        executed: executed_everywhere,
        frontiers: Vec::new(),
    };
    cluster.deliver(0, straggler, lifts_stability);
    let order: Vec<Rifl> = cluster
        .executed(straggler)
        .into_iter()
        .map(|e| e.rifl)
        .collect();
    assert_eq!(order, vec![rifl(1, 1), rifl(1, 2)]);
    let tempo = cluster.process(straggler);
    assert_eq!(tempo.stable_timestamp(10), 12);
    assert_eq!(
        tempo.info_len(),
        0,
        "both commands collected within the step"
    );
    assert!(tempo.gc_tracker().is_collected(Dot::new(0, 2)));
}

// ------------------------------------------------- burst-edge promise flush

/// The periodic `MPromises` tick (`PROMISE_INTERVAL_US`, private to the protocol).
const TICK_US: u64 = 5_000;

/// A started bare driver for `process` of an n = 3, f = 1 deployment: what a step
/// emits, and when its next timer is due, are visible to the test.
fn bare_driver(process: ProcessId) -> Driver<Tempo> {
    let config = Config::full(3, 1);
    let mut driver = Driver::<Tempo>::new(process, 0, config);
    driver.start(View::trivial(config, process), 0);
    driver
}

/// The detached ranges of every `MPromises` in `output`, one entry per broadcast.
fn promises(output: &Output<Message>) -> Vec<Vec<PromiseRange>> {
    output
        .sends
        .iter()
        .filter_map(|s| match &s.msg {
            Message::MPromises { detached, .. } => {
                Some(detached.iter().map(|(_, range)| *range).collect())
            }
            _ => None,
        })
        .collect()
}

fn bump(ts: u64) -> Message {
    Message::MBump {
        dot: Dot::new(0, 1),
        ts,
        buckets: vec![bucket_of(7)],
    }
}

/// An `MCommit` whose timestamp a replica outside the fast quorum has not reached bumps
/// that replica's clock, and the detached promises the bump generates must leave with
/// the step that made them, not with the tick.
#[test]
fn flush_carries_commit_bump_promises_before_the_tick() {
    // Replica 1 learns of coordinator 2's command (fast quorum {2, 0}, timestamp 5)
    // from its payload and commit.
    let mut replica = bare_driver(1);
    let dot = Dot::new(2, 1);
    let payload = Message::MPayload {
        dot,
        cmd: key_cmd(1, 1, 7),
        quorums: [(0, vec![2, 0])].into(),
    };
    assert!(replica.handle(2, payload, 0).is_empty());
    let bucket = bucket_of(7);
    let commit = Message::MCommit {
        dot,
        shard: 0,
        ts: 5,
        promises: PromiseBundle {
            attached: vec![(2, 5), (0, 5)],
            detached: vec![
                (2, bucket, PromiseRange::new(1, 4)),
                (0, bucket, PromiseRange::new(1, 4)),
            ],
        },
    };
    let output = replica.handle(2, commit, 0);
    assert!(promises(&output).is_empty(), "nothing fired yet");
    assert_eq!(replica.protocol().committed_timestamp(dot), Some(5));
    assert_eq!(replica.protocol().clock_value(), 5, "the commit bumped it");
    let due = replica.next_timer_due().expect("timers pending");
    assert!(
        due < TICK_US,
        "the bump must arm a flush, not wait for the tick at {TICK_US}: next due {due}"
    );
    let output = replica.fire_due(due);
    match output.sends.as_slice() {
        [Outbound {
            to,
            msg: Message::MPromises { detached, .. },
        }] => {
            assert_eq!(to, &[0, 2]);
            assert_eq!(detached, &[(bucket, PromiseRange::new(1, 5))]);
        }
        other => panic!("expected one MPromises, got {other:?}"),
    }
}

/// One command per coordinator on one key (ring fast quorums {2,0}, {0,1}, {1,2}),
/// interleaved so
/// that each needs a commit-bump promise of the one before: coordinator 0's timestamp 2
/// needs replica 1's prefix to reach 2, and timestamp 1 at replica 1 is a detached
/// promise generated by the first commit; coordinator 1's timestamp 3 needs replica
/// 2's, bumped to 2 by the second. Every timestamp is stable at its coordinator — and
/// every command executed everywhere — before any tick has fired anywhere.
#[test]
fn flush_makes_timestamps_stable_before_any_tick() {
    let mut cluster = LocalCluster::<Tempo>::new(Config::full(3, 1));
    let rounds = [(2, 1), (0, 2), (1, 3)];
    for (coordinator, ts) in rounds {
        cluster.submit(coordinator, key_cmd(coordinator, 1, 7));
        let dot = Dot::new(coordinator, 1);
        assert_eq!(
            cluster.process(coordinator).committed_timestamp(dot),
            Some(ts)
        );
        cluster.tick_all(10);
    }
    assert!(cluster.now_us() < TICK_US, "no tick has fired anywhere");
    for (coordinator, ts) in rounds {
        let stable = cluster.process(coordinator).stable_timestamp(7);
        assert!(
            stable >= ts,
            "timestamp {ts} not stable at its coordinator {coordinator} before the tick: {stable}"
        );
    }
    for p in cluster.process_ids() {
        assert_eq!(cluster.process(p).metrics().executed, 3, "replica {p}");
    }
}

/// The flush is one-shot and armed once: however many steps of a burst bump the clock
/// before the scheduler next looks at its timers, one `MPromises` carries them all.
#[test]
fn flush_coalesces_the_bumps_of_a_burst() {
    let mut replica = bare_driver(1);
    for step in 1..=10u64 {
        // Ten steps at successive microseconds, no timer looked at in between (a
        // replica thread inside one burst).
        let output = replica.handle(0, bump(10 * step), step);
        assert!(output.is_empty(), "a bump sends nothing by itself");
    }
    assert_eq!(replica.protocol().clock_value(), 100);
    let due = replica.next_timer_due().expect("timers pending");
    assert!(due <= 11, "flushed at the burst's edge, not at {due}");
    let output = replica.fire_due(TICK_US - 1);
    let ranges: Vec<PromiseRange> = (0..10)
        .map(|i| PromiseRange::new(10 * i + 1, 10 * i + 10))
        .collect();
    assert_eq!(promises(&output), vec![ranges], "one flush for ten bumps");
    assert_eq!(
        replica.next_timer_due(),
        Some(TICK_US),
        "no second flush is outstanding"
    );
}

/// Mid-rejoin the clock's buffer holds floor bumps over the previous incarnation's
/// range (`handle_rejoin_ack`), which must never be broadcast — by the flush no more
/// than by the tick. Once the handshake completes, the next bump is flushed as usual
/// and claims only what this incarnation generated.
#[test]
fn flush_is_silent_mid_rejoin_and_resumes_after_the_handshake() {
    let mut replica = bare_driver(1);
    let output = replica.rejoin(1, 0);
    assert!(matches!(output.sends[0].msg, Message::MRejoin));
    assert!(!replica.protocol().is_joined());
    // A bump while unjoined is buffered, but nothing may leave: no flush is armed, and
    // the tick (fired together with the liveness timer's handshake retry) stays silent.
    assert!(replica.handle(0, bump(5), 0).is_empty());
    assert_eq!(
        replica.next_timer_due(),
        Some(TICK_US),
        "no flush mid-rejoin"
    );
    let output = replica.fire_due(TICK_US);
    assert!(
        output
            .sends
            .iter()
            .all(|s| matches!(s.msg, Message::MRejoin)),
        "mid-rejoin broadcast: {output:?}"
    );
    // The handshake completes (recovery quorum = this process + one ack); the ack's
    // floor bump covers the previous incarnation's timestamps up to 40.
    let ack = Message::MRejoinAck {
        clock: 40,
        your_highest: 30,
        prefixes: vec![(1, 0, 40), (1, 1, 30), (1, 2, 40)],
    };
    let output = replica.handle(0, ack, TICK_US);
    assert!(replica.protocol().is_joined());
    assert_eq!(replica.protocol().clock_value(), 40);
    assert!(promises(&output).is_empty());
    let output = replica.fire_due(TICK_US + 10);
    assert!(
        promises(&output).is_empty(),
        "the floor bumps were broadcast: {output:?}"
    );
    // First bump of the new incarnation: flushed at once, claiming (40, 50] only.
    assert!(replica.handle(0, bump(50), TICK_US + 10).is_empty());
    let due = replica.next_timer_due().expect("timers pending");
    assert!(due < 2 * TICK_US, "flush armed after the handshake: {due}");
    let output = replica.fire_due(due);
    assert_eq!(promises(&output), vec![vec![PromiseRange::new(41, 50)]]);
}

/// The tick keeps its no-news suppression: with the flush having carried every promise
/// already, a tick that has nothing new to report (no promise, no executed-frontier
/// movement, no safe-frontier advance) sends nothing — on an idle cluster, and again
/// once the healing broadcasts that follow real traffic have gone out.
#[test]
fn flush_leaves_the_tick_with_nothing_to_say() {
    let mut cluster = LocalCluster::<Tempo>::new(Config::full(3, 1));
    for _ in 0..2 {
        cluster.tick_all(TICK_US);
    }
    assert_eq!(cluster.delivered, 0, "idle ticks sent something");
    cluster.submit(2, key_cmd(1, 1, 7));
    cluster.submit(0, key_cmd(2, 1, 8));
    // Executed watermarks and safe frontiers ride the next ticks; then silence.
    for _ in 0..4 {
        cluster.tick_all(TICK_US);
    }
    let delivered = cluster.delivered;
    for _ in 0..4 {
        cluster.tick_all(TICK_US);
    }
    assert_eq!(
        cluster.delivered, delivered,
        "ticks with nothing new sent something"
    );
    for p in cluster.process_ids() {
        assert_eq!(
            cluster.process(p).info_len(),
            0,
            "replica {p} collected everything"
        );
    }
}

//! The rejoin state transfer, driven directly: a restarted replica on a bare driver is
//! handed `MState` images and the test checks what installing them does — which
//! queued commits the image covers, how the donor's queue is committed on top, when
//! execution stays gated and whom the replica asks next (DESIGN.md §6).

use tempo_core::{Message, Quorums, Tempo};
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::config::Config;
use tempo_kernel::driver::{Driver, Output};
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::protocol::{Protocol, View};
use tempo_store::QueuedCommit;

/// Two shards of three replicas; the replica under test is process 2 of shard 0, whose
/// shard peers are 0 and 1.
const REPLICA: ProcessId = 2;
/// The default `commit_request_timeout_us`, which paces transfer retries.
const RETRY_US: u64 = 1_000_000;
/// The liveness timer's period (`LIVENESS_INTERVAL_US`, private to the protocol): a
/// `fire_due` runs it at most once and re-arms it this far ahead.
const TICK_US: u64 = 5_000;

fn config() -> Config {
    Config::new(3, 1, 2)
}

fn put(seq: u64, key: u64) -> Command {
    Command::single(Rifl::new(1, seq), 0, key, KVOp::Put(seq), 0)
}

/// A command over both shards: key `key` of shard 0 and `key + 1` of shard 1.
fn cross(seq: u64, key: u64) -> Command {
    let ops = vec![(0, key, KVOp::Put(seq)), (1, key + 1, KVOp::Put(seq))];
    Command::new(Rifl::new(1, seq), ops, 0)
}

/// Process 2 restarted as incarnation 1, its `MRejoin` handshake completed by peer 0
/// (one ack makes the recovery quorum). `prefix` is the promise prefix the ack reports
/// for both peers, i.e. the stable timestamp the replica starts from. `before` runs
/// while the handshake is pending.
fn rejoined(
    prefix: u64,
    before: impl FnOnce(&mut Driver<Tempo>),
) -> (Driver<Tempo>, Output<Message>) {
    let mut replica = Driver::<Tempo>::new(REPLICA, 0, config());
    replica.start(View::trivial(config(), REPLICA), 0);
    replica.rejoin(1, 0);
    before(&mut replica);
    let ack = Message::MRejoinAck {
        clock: 40,
        your_highest: 0,
        prefixes: vec![(0, prefix), (1, prefix), (2, 0)],
    };
    let output = replica.handle(0, ack, 0);
    assert!(replica.protocol().is_joined());
    (replica, output)
}

/// Commits `cmd` at `replica` as its shard-0 coordinator 0 would announce it.
fn commit(
    replica: &mut Driver<Tempo>,
    dot: Dot,
    cmd: Command,
    ts: u64,
    now_us: u64,
) -> Output<Message> {
    let quorums: Quorums = [(0, vec![0, 1])].into();
    replica.handle(0, Message::MPayload { dot, cmd, quorums }, now_us);
    let commit = Message::MCommit {
        dot,
        shard: 0,
        ts,
        promises: Default::default(),
    };
    replica.handle(0, commit, now_us)
}

/// An image complete up to `floor`, whose only executed watermark is `executed`: the
/// origin-1 prefix the donor executed (its dots all lie at or below the floor).
fn state(
    floor: (u64, Dot),
    executed: u64,
    kv: Vec<(u64, u64)>,
    queued: Vec<QueuedCommit>,
) -> Message {
    Message::MState {
        floor_ts: floor.0,
        floor_dot: floor.1,
        kv,
        watermarks: vec![(1, executed)],
        queued,
    }
}

/// The peers an output asks for their image.
fn asked(output: &Output<Message>) -> Vec<ProcessId> {
    output
        .sends
        .iter()
        .filter(|s| matches!(s.msg, Message::MStateRequest))
        .flat_map(|s| s.to.clone())
        .collect()
}

fn executed(output: &Output<Message>) -> Vec<u64> {
    output.executed.iter().map(|e| e.rifl.seq).collect()
}

#[test]
fn installing_an_image_drops_what_it_covers_and_commits_the_donor_queue_on_top() {
    let a = Dot::new(0, 1);
    // A commit that reached the replica mid-handshake: queued, not executed.
    let (mut replica, output) = rejoined(0, |r| {
        commit(r, a, put(3, 1), 3, 0);
    });
    assert_eq!(asked(&output), vec![0], "the first live peer is asked");
    assert!(replica.protocol().is_awaiting_state());
    assert_eq!(replica.protocol().executor().queued(), 1);

    // Peer 0's image is complete up to ⟨5, F⟩, which covers A. Its queue holds C at
    // the floor's own timestamp (above F in ⟨ts, id⟩ order) and the cross-shard B, whose
    // wait for shard 1 the donor had already cleared.
    let f = Dot::new(1, 1);
    let c = QueuedCommit {
        dot: Dot::new(1, 2),
        ts: 5,
        cmd: put(5, 2),
        waits: vec![],
    };
    let b = QueuedCommit {
        dot: Dot::new(0, 2),
        ts: 10,
        cmd: cross(10, 3),
        waits: vec![],
    };
    let b_dot = b.dot;
    let output = replica.handle(0, state((5, f), 1, vec![(1, 100)], vec![c, b]), 10);
    let tempo = replica.protocol();
    assert!(!tempo.is_awaiting_state());
    assert_eq!(
        tempo.exec_skipped(),
        1,
        "A is covered by the image, not applied"
    );
    assert_eq!(tempo.executor().store().get(1), Some(100));
    // C executes: had the stable watermark been raised to the floor's timestamp before
    // the queue was committed, C (at that timestamp) would have been skipped as a gap.
    assert_eq!(executed(&output), vec![5]);
    assert_eq!(tempo.executor().store().get(2), Some(5));
    assert!(
        tempo.executor().is_queued(b_dot),
        "B waits for stability only"
    );

    // Stability passes B: it executes without any `MStable` from shard 1 reaching this
    // replica — the attestation the donor consumed was fed again.
    let promises = Message::MPromises {
        detached: vec![],
        attached: vec![],
        executed: vec![],
        frontier: 40,
    };
    let output = replica.handle(0, promises, 20);
    assert_eq!(executed(&output), vec![10]);
    assert_eq!(replica.protocol().executor().store().get(3), Some(10));

    // A commit below the stable watermark the image did not cover is a gap: execution
    // gates again and the *next* live peer is asked.
    let d = Dot::new(1, 3);
    let output = commit(&mut replica, d, put(20, 1), 20, 30);
    assert_eq!(asked(&output), vec![1]);
    assert!(replica.protocol().is_awaiting_state());
    assert_eq!(replica.protocol().exec_skipped(), 2);

    // Peer 1's image is newer than the local one but its floor stays below the gap:
    // installed, yet still gated, and the retry goes on to the next peer.
    let output = replica.handle(
        1,
        state((15, Dot::new(0, 9)), 2, vec![(1, 100)], vec![]),
        40,
    );
    assert!(output.executed.is_empty());
    assert!(replica.protocol().is_awaiting_state());
    assert!(replica.protocol().executor().is_gated());
    assert!(
        asked(&replica.fire_due(30 + RETRY_US - 1)).is_empty(),
        "paced"
    );
    let retry = 30 + RETRY_US - 1 + TICK_US;
    assert_eq!(asked(&replica.fire_due(retry)), vec![0]);

    // With every peer suspected the gap keeps execution gated: the store is known to
    // miss a write.
    replica.protocol_mut().suspect(0);
    replica.protocol_mut().suspect(1);
    let later = retry + RETRY_US + TICK_US;
    assert!(asked(&replica.fire_due(later)).is_empty());
    assert!(replica.protocol().is_awaiting_state());

    // An image whose floor passes the gap closes it and ungates. (Its watermarks stop
    // short of D, so only closing the gap can put D in the executed frontier.)
    replica.protocol_mut().unsuspect(0);
    let image = state((25, Dot::new(0, 12)), 2, vec![(1, 20)], vec![]);
    let output = replica.handle(0, image, later + 10);
    let tempo = replica.protocol();
    assert!(output.executed.is_empty());
    assert!(!tempo.is_awaiting_state());
    assert!(!tempo.executor().is_gated());
    assert!(
        tempo.gc_tracker().is_executed(d),
        "a closed gap joins the frontier"
    );
    assert_eq!(tempo.executor().store().get(1), Some(20));
}

#[test]
fn with_every_peer_suspected_and_no_gap_the_replica_ungates() {
    let a = Dot::new(0, 1);
    let (mut replica, output) = rejoined(40, |r| {
        commit(r, a, put(3, 1), 3, 0);
    });
    assert_eq!(asked(&output), vec![0]);
    assert!(
        output.executed.is_empty(),
        "gated while the transfer is due"
    );
    replica.protocol_mut().suspect(0);
    replica.protocol_mut().suspect(1);
    let output = replica.fire_due(RETRY_US);
    assert!(asked(&output).is_empty(), "nobody left to ask");
    assert!(!replica.protocol().is_awaiting_state());
    assert_eq!(
        executed(&output),
        vec![3],
        "the queue runs on the local image"
    );
}

#[test]
fn a_commit_the_donor_missed_under_the_rejoin_prefixes_is_a_gap_not_a_duplicate() {
    // The rejoin prefixes put the stable timestamp at 40: they may come from peers that
    // know more than the donor does.
    let (mut replica, output) = rejoined(40, |_| {});
    assert_eq!(asked(&output), vec![0]);

    // Peer 0's image is complete up to ⟨3, F⟩; its queue holds entries at 5 and 10 that
    // are not stable at the donor.
    let entry = |seq, ts| QueuedCommit {
        dot: Dot::new(1, seq),
        ts,
        cmd: put(ts, seq),
        waits: vec![],
    };
    let image = state(
        (3, Dot::new(1, 1)),
        1,
        vec![],
        vec![entry(2, 5), entry(3, 10)],
    );
    replica.handle(0, image, 10);

    // A command the donor never saw commits at 7. Had the replica executed the donor's
    // whole queue under its seeded stable timestamp, 7 would lie below its execution
    // floor and be dropped as a duplicate: a lost write. It must be a gap instead, which
    // keeps execution gated until an image covers it.
    let late = Dot::new(0, 1);
    commit(&mut replica, late, put(7, 4), 7, 20);
    let tempo = replica.protocol();
    assert!(tempo.is_awaiting_state());
    assert!(tempo.executor().is_gated());
    assert!(!tempo.gc_tracker().is_executed(late));

    // An image that covers the gap closes it and ungates.
    let image = state((12, Dot::new(1, 4)), 4, vec![(4, 7)], vec![]);
    let output = replica.handle(1, image, 30);
    let tempo = replica.protocol();
    assert!(output.executed.is_empty());
    assert!(!tempo.is_awaiting_state());
    assert!(tempo.gc_tracker().is_executed(late));
    assert_eq!(tempo.executor().store().get(4), Some(7));
}

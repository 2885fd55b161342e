//! The rejoin state transfer, driven directly: a restarted replica on a bare driver is
//! handed `MState` images and the test checks what installing them does — which
//! queued commits the image covers, how the donor's queue is committed on top, when
//! execution stays gated and whom the replica asks next (DESIGN.md §6) — and that a
//! snapshot holding the same image restores the same applied state.

use tempo_core::stability::{bucket_of, Bucket};
use tempo_core::{Message, PromiseRange, Quorums, RecPhase, Tempo, TempoOptions};
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::config::Config;
use tempo_kernel::driver::{Driver, Output};
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::protocol::{Protocol, View};
use tempo_store::{AppliedImage, MemStore, QueuedCommit, Snapshot, Store};

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

/// The buckets of every key these tests use: the promise reports and images below
/// cover all of them alike.
fn buckets() -> impl Iterator<Item = Bucket> {
    (0..16).map(bucket_of)
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
/// for both peers in every bucket, i.e. the stable timestamp the replica starts from.
/// `before` runs while the handshake is pending.
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
        prefixes: buckets()
            .flat_map(|b| [(b, 0, prefix), (b, 1, prefix)])
            .collect(),
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

/// An image complete up to `floor` in every bucket, whose only executed watermark is
/// `executed`: the origin-1 prefix the donor executed (its dots all lie at or below the
/// floor).
fn state(
    floor: (u64, Dot),
    executed: u64,
    kv: Vec<(u64, u64)>,
    queued: Vec<QueuedCommit>,
) -> Message {
    Message::MState(AppliedImage {
        floors: buckets().map(|b| (b, floor.0, floor.1)).collect(),
        kv,
        watermarks: vec![(1, executed)],
        queued,
    })
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
    let output = replica.handle(0, frontier(40), 20);
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

/// Commits `x` (seq 50, key 9) at timestamp 50 while both peers report every promise up
/// to 60 in its bucket but their attachments at 50 to `x`, and in `y`'s (key 8) everything
/// up to 60 but an attachment at 45 to `y`, which has not committed here: once committed,
/// `x` is stable in its bucket, while `y`'s bucket stays stable at 44, under `y`'s
/// attachment.
fn stable_in_its_bucket_only(replica: &mut Driver<Tempo>, now_us: u64) -> Output<Message> {
    let (x, y) = (Dot::new(REPLICA, 9), Dot::new(1, 7));
    let quorums: Quorums = [(0, vec![0, 1])].into();
    replica.handle(
        0,
        Message::MPayload {
            dot: y,
            cmd: put(45, 8),
            quorums,
        },
        now_us,
    );
    for peer in [0, 1] {
        let promises = Message::MPromises {
            detached: vec![
                (bucket_of(8), PromiseRange::new(46, 60)),
                (bucket_of(9), PromiseRange::new(51, 60)),
            ],
            attached: vec![(y, 45), (x, 50)],
            executed: vec![],
            frontiers: vec![(bucket_of(8), 44), (bucket_of(9), 49)],
        };
        replica.handle(peer, promises, now_us);
    }
    commit(replica, x, put(50, 9), 50, now_us)
}

#[test]
fn a_rejoined_incarnation_replies_only_when_it_executes() {
    // A replica that never restarted answers `x` as soon as it is stable in its bucket:
    // its reply is its execution, once, whatever `y`'s attachment holds back elsewhere.
    let mut fresh = Driver::<Tempo>::new(REPLICA, 0, config());
    fresh.start(View::trivial(config(), REPLICA), 0);
    let output = stable_in_its_bucket_only(&mut fresh, 10);
    assert_eq!(executed(&output), vec![50]);
    assert_eq!(fresh.protocol().stable_timestamp(8), 44);
    let output = fresh.handle(0, frontier(60), 20);
    assert!(output.executed.is_empty(), "answered once");

    // DESIGN.md §6's case: the rejoin prefixes put the stable timestamp at 40 and the
    // donor's queue holds entries at 5 and 10. Whatever answers, answers as an execution:
    // the first entry executes, the second commits under the seeded stable timestamp and
    // is a gap the next image covers.
    let (mut replica, output) = rejoined(40, |_| {});
    assert!(output.executed.is_empty());
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
    let output = replica.handle(0, image, 10);
    assert_eq!(executed(&output), vec![5]);
    let image = state((10, Dot::new(1, 3)), 3, vec![(2, 5), (3, 10)], vec![]);
    let output = replica.handle(1, image, 15);
    assert!(output.executed.is_empty(), "nothing runs twice");
    assert_eq!(replica.protocol().executor().store().get(3), Some(10));
    assert!(!replica.protocol().is_awaiting_state());
    assert!(!replica.protocol().executor().is_gated());

    // The same `x` a fresh replica answers at once: the rejoined one answers it with its
    // execution too, in its bucket's order.
    let output = stable_in_its_bucket_only(&mut replica, 20);
    assert_eq!(executed(&output), vec![50]);
    let output = replica.handle(0, frontier(60), 30);
    assert!(output.executed.is_empty(), "answered once");
}

#[test]
fn a_snapshot_and_a_state_transfer_install_the_same_image() {
    // Cut an image from a live replica: process 1 commits four commands and executes the
    // two that a frontier at 10 makes stable; the other two stay queued.
    let mut donor = Driver::<Tempo>::new(1, 0, config());
    donor.start(View::trivial(config(), 1), 0);
    for (seq, key, ts) in [(1, 1, 3), (2, 2, 5), (3, 3, 20), (4, 1, 30)] {
        commit(&mut donor, Dot::new(0, seq), put(seq, key), ts, 0);
    }
    donor.handle(0, frontier(10), 0);
    donor.handle(2, frontier(10), 0);
    assert_eq!(donor.protocol().executor().queued(), 2);
    let output = donor.handle(REPLICA, Message::MStateRequest, 0);
    let image = output.sends.into_iter().find_map(|s| match s.msg {
        Message::MState(image) => Some(image),
        _ => None,
    });
    let image = image.expect("the donor answers with its image");

    // The applied state a replica ends up with: floors, key-value image, executed
    // watermarks and queued dots.
    let applied = |tempo: &Tempo| {
        let executor = tempo.executor();
        let queued: Vec<Dot> = executor.queued_entries().iter().map(|q| q.dot).collect();
        let watermarks = tempo.gc_tracker().executed_frontier();
        (
            executor.floors(),
            executor.store().entries(),
            watermarks,
            queued,
        )
    };

    // Once through a snapshot that holds the image, restored by `with_store`...
    let mut store = MemStore::new();
    store.install_snapshot(&Snapshot {
        image: image.clone(),
        ..Snapshot::default()
    });
    let options = TempoOptions::default();
    let restored = Tempo::with_store(REPLICA, 0, config(), options, Box::new(store));
    // ...and once through `MState`, installed by a fresh rejoiner.
    let (mut rejoiner, _) = rejoined(0, |_| {});
    rejoiner.handle(1, Message::MState(image), 10);

    let from_snapshot = applied(&restored);
    assert_eq!(from_snapshot, applied(rejoiner.protocol()));
    let (floors, kv, watermarks, queued) = from_snapshot;
    assert_eq!(floors.len(), 2);
    assert_eq!((kv, watermarks), (vec![(1, 1), (2, 2)], vec![(0, 2)]));
    assert_eq!(queued, [Dot::new(0, 3), Dot::new(0, 4)]);
}

/// An `MPromises` that only claims the safe frontier `at` in every bucket.
fn frontier(at: u64) -> Message {
    Message::MPromises {
        detached: vec![],
        attached: vec![],
        executed: vec![],
        frontiers: buckets().map(|b| (b, at)).collect(),
    }
}

/// A restarted incarnation in a command's fast quorum makes no recovery proposal in `MRec`
/// (`RecoverR`): its previous life may have proposed for the command, or committed it on
/// the fast path as its coordinator, and a fresh proposal would tell the recovery it
/// cannot have (DESIGN.md §6). Outside the fast quorum it answers, as does a replica that
/// never restarted: a recovery needs `n - f` acks, and with one process down there may be
/// no others.
#[test]
fn a_restarted_incarnation_makes_no_recovery_proposal_in_the_fast_quorum() {
    let dot = Dot::new(0, 5);
    let recover = |replica: &mut Driver<Tempo>, fast_quorum: Vec<ProcessId>| {
        let quorums: Quorums = [(0, fast_quorum)].into();
        let payload = Message::MPayload {
            dot,
            cmd: put(5, 3),
            quorums,
        };
        replica.handle(0, payload, 10);
        let output = replica.handle(1, Message::MRec { dot, ballot: 2 }, 20);
        let acks = output.sends.into_iter().filter_map(|s| match s.msg {
            Message::MRecAck { phase, .. } => Some(phase),
            _ => None,
        });
        acks.collect::<Vec<_>>()
    };
    for fast_quorum in [vec![0, 1], vec![0, REPLICA]] {
        let mut fresh = Driver::<Tempo>::new(REPLICA, 0, config());
        fresh.start(View::trivial(config(), REPLICA), 0);
        assert_eq!(recover(&mut fresh, fast_quorum), [RecPhase::RecoverR]);
    }
    let (mut restarted, _) = rejoined(40, |_| {});
    assert_eq!(recover(&mut restarted, vec![0, REPLICA]), []);
    let (mut restarted, _) = rejoined(40, |_| {});
    assert_eq!(recover(&mut restarted, vec![0, 1]), [RecPhase::RecoverR]);
}

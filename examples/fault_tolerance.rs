//! Fault tolerance: a coordinator crashes mid-protocol and a new coordinator recovers the
//! command with the exact timestamp the crashed coordinator could have committed.
//!
//! Run with: `cargo run --example fault_tolerance`

use tempo_core::{Phase, Tempo};
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, Rifl};
use tempo_kernel::{Command, Config, KVOp};

fn main() {
    let config = Config::full(3, 1);
    let mut cluster = LocalCluster::<Tempo>::new(config);

    println!("replica 1 has a head start: the clock of key 0's bucket is at 7");
    let bump = tempo_core::Message::MBump {
        dot: Dot::new(9, 9),
        ts: 7,
        buckets: vec![tempo_core::stability::bucket_of(0)],
    };
    cluster.deliver(1, 1, bump);

    println!(
        "replica 0 submits a command, reaches its fast quorum, then crashes before committing"
    );
    cluster.submit_no_deliver(0, Command::single(Rifl::new(1, 1), 0, 0, KVOp::Put(42), 0));
    cluster.step(); // MPropose reaches replica 1
    cluster.step(); // MPayload reaches replica 2
    cluster.crash(0);
    cluster.run_to_quiescence();

    let dot = Dot::new(0, 1);
    println!(
        "after the crash: replica 1 is in phase {:?}, replica 2 in phase {:?}",
        cluster.process(1).phase_of(dot).unwrap(),
        cluster.process(2).phase_of(dot).unwrap()
    );

    println!("replicas 1 and 2 suspect the coordinator; replica 1 becomes the recovery leader");
    cluster.process_mut(1).suspect(0);
    cluster.process_mut(2).suspect(0);

    println!("the periodic handler triggers recovery after the timeout...");
    cluster.tick_all(3_000_000);
    cluster.tick_all(5_000);
    cluster.tick_all(5_000);

    for replica in [1u64, 2] {
        let ts = cluster
            .process(replica)
            .committed_timestamp(dot)
            .expect("command recovered");
        let phase = cluster.process(replica).phase_of(dot).unwrap();
        println!("replica {replica}: committed timestamp {ts}, phase {phase:?}");
        assert_eq!(ts, 8, "recovered timestamp equals replica 1's proposal");
        assert_eq!(phase, Phase::Execute);
    }
    println!("\nthe command survived the coordinator crash with a single, agreed timestamp");
    println!("(Property 1 and the recovery protocol of §5).");
}

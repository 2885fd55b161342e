//! Table 1 — fast-path examples with r = 5 processes and f ∈ {1, 2}.
//!
//! Reproduces the four scenarios of Table 1 by pre-setting replica clocks, submitting a
//! command at process A and reporting whether the fast path was taken and which timestamp
//! was committed.

use tempo_bench::header;
use tempo_core::stability::bucket_of;
use tempo_core::{Message, Tempo};
use tempo_kernel::harness::LocalCluster;
use tempo_kernel::id::{Dot, ProcessId, Rifl};
use tempo_kernel::protocol::Protocol;
use tempo_kernel::{Command, Config, KVOp};

/// The key every scenario's command writes.
const KEY: u64 = 0;

/// Sets the clock of `KEY`'s bucket at `process` to `value` (bumping is always safe).
fn set_clock(cluster: &mut LocalCluster<Tempo>, process: ProcessId, value: u64) {
    let msg = Message::MBump {
        dot: Dot::new(process, u64::MAX),
        ts: value,
        buckets: vec![bucket_of(KEY)],
    };
    cluster.deliver(process, process, msg);
}

struct Scenario {
    name: &'static str,
    f: usize,
    clocks: [u64; 5],
    paper_fast_path: bool,
    paper_timestamp: u64,
}

fn main() {
    header(
        "Table 1: Tempo fast-path examples (r = 5)",
        "Table 1, §3.1 'Fast path examples'",
    );
    let scenarios = [
        Scenario {
            name: "a) f=2, clocks A=5 B=6 C=10 D=10",
            f: 2,
            clocks: [5, 6, 10, 10, 0],
            paper_fast_path: true,
            paper_timestamp: 11,
        },
        Scenario {
            name: "b) f=2, clocks A=5 B=6 C=10 D=5 ",
            f: 2,
            clocks: [5, 6, 10, 5, 0],
            paper_fast_path: false,
            paper_timestamp: 11,
        },
        Scenario {
            name: "c) f=1, clocks A=5 B=6 C=10     ",
            f: 1,
            clocks: [5, 6, 10, 0, 0],
            paper_fast_path: true,
            paper_timestamp: 11,
        },
        Scenario {
            name: "d) f=1, clocks A=5 B=5 C=1      ",
            f: 1,
            clocks: [5, 5, 1, 0, 0],
            paper_fast_path: true,
            paper_timestamp: 6,
        },
    ];
    println!(
        "{:<36} {:>10} {:>10} {:>12} {:>12}",
        "scenario", "fast path", "(paper)", "timestamp", "(paper)"
    );
    for s in scenarios {
        let config = Config::full(5, s.f);
        let mut cluster = LocalCluster::<Tempo>::new(config);
        for (i, clock) in s.clocks.iter().enumerate() {
            if *clock > 0 {
                set_clock(&mut cluster, i as ProcessId, *clock);
            }
        }
        let cmd = Command::single(Rifl::new(1, 1), 0, KEY, KVOp::Put(1), 0);
        cluster.submit(0, cmd);
        let metrics = cluster.process(0).metrics();
        let fast = metrics.fast_paths == 1;
        let ts = cluster
            .process(4)
            .committed_timestamp(Dot::new(0, 1))
            .expect("command committed");
        println!(
            "{:<36} {:>10} {:>10} {:>12} {:>12}",
            s.name,
            if fast { "yes" } else { "no" },
            if s.paper_fast_path { "yes" } else { "no" },
            ts,
            s.paper_timestamp
        );
        assert_eq!(fast, s.paper_fast_path, "fast-path decision mismatch");
        assert_eq!(ts, s.paper_timestamp, "committed timestamp mismatch");
    }
    println!("\nall scenarios match Table 1");
}

//! Runtime throughput — the TCP-backed cluster runtime under a closed-loop workload,
//! batched vs unbatched transport. Emits `BENCH_runtime.json`.
//!
//! Unlike the figure harnesses (which run the discrete-event simulator), this drives
//! the real thing: protocol replicas on OS threads, messages Wire-encoded into
//! length+CRC frames over loopback TCP, one flush per drained burst in batched mode
//! versus one flush per send in the unbatched baseline. Recorded per configuration:
//! completed commands/s, transport messages/s and bytes/s per replica, and the
//! flush count (the syscall-pressure proxy the batching exists to shrink).

use std::time::Instant;
use tempo_bench::json::{self, Record};
use tempo_bench::{header, short_mode};
use tempo_core::Tempo;
use tempo_kernel::{Config, Protocol};
use tempo_runtime::{run_workload, NetCluster, NetOpts, RuntimeFactory};
use tempo_workload::ConflictWorkload;

fn factory() -> RuntimeFactory<Tempo> {
    Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config))
}

fn run_once(batch: bool, clients_per_site: usize, commands_per_client: usize) -> Record {
    let config = Config::full(3, 1);
    let replicas = config.total_processes() as f64;
    let cluster = NetCluster::start(
        config,
        NetOpts {
            batch,
            ..NetOpts::default()
        },
        factory(),
    )
    .expect("cluster starts");
    let start = Instant::now();
    let tally = run_workload(
        &cluster,
        clients_per_site,
        commands_per_client,
        ConflictWorkload::new(0.05, 100, 42),
    );
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let report = cluster.shutdown();
    assert_eq!(
        tally.aborted, 0,
        "failure-free runtime bench must not abort commands"
    );
    let mode = if batch { "batched" } else { "unbatched" };
    let msgs_per_s = report.transport.frames_sent as f64 / elapsed;
    let bytes_per_s = report.transport.bytes_sent as f64 / elapsed;
    let latency = tally.latency.summary();
    println!(
        "  {mode:9} | {:7.0} cmds/s | {:8.0} msgs/s/replica | {:9.0} B/s/replica | {} flushes | p99 {:.2} ms",
        tally.completed as f64 / elapsed,
        msgs_per_s / replicas,
        bytes_per_s / replicas,
        report.transport.flushes,
        latency.p99_ms,
    );
    Record::new(
        format!("runtime/{mode}_c{clients_per_site}"),
        &[
            ("completed", tally.completed as f64),
            ("cmds_per_s", tally.completed as f64 / elapsed),
            ("msgs_per_s_per_replica", msgs_per_s / replicas),
            ("bytes_per_s_per_replica", bytes_per_s / replicas),
            ("flushes", report.transport.flushes as f64),
            ("frames_sent", report.transport.frames_sent as f64),
            ("elapsed_s", elapsed),
        ],
    )
    .with_latency(&latency)
}

fn main() {
    header(
        "Runtime throughput: TCP transport, batched vs unbatched",
        "cluster mode of §6.1 (framework), batching discipline of §6.2 (5 ms socket flushes)",
    );
    let (clients, commands) = if short_mode() { (2, 20) } else { (4, 100) };
    let mut records = Vec::new();
    for batch in [true, false] {
        records.push(run_once(batch, clients, commands));
    }
    json::write("runtime", &records);
}

//! Runtime throughput — the TCP-backed cluster runtime under a closed-loop workload.
//! Emits `BENCH_runtime.json`.
//!
//! Unlike the figure harnesses (which run the discrete-event simulator), this drives
//! the real thing: protocol replicas on OS threads, messages Wire-encoded into
//! length+CRC frames over loopback TCP, one flush per drained burst. Recorded:
//! completed commands/s, transport messages/s and bytes/s per replica, and the
//! flush count (the syscall-pressure proxy; the per-send-flush reference it is read
//! against is `tempo-perf`'s `net.loopback_frames_per_s_unbatched` layer row).

use std::time::Instant;
use tempo_bench::json::{self, Record};
use tempo_bench::{header, short_mode};
use tempo_core::Tempo;
use tempo_kernel::{Config, Protocol};
use tempo_load::ConflictMix;
use tempo_runtime::{run_workload, NetCluster, NetOpts, RuntimeFactory};

fn factory() -> RuntimeFactory<Tempo> {
    Box::new(|id, shard, config, _incarnation| Tempo::new(id, shard, config))
}

fn run_once(clients_per_site: usize, commands_per_client: usize) -> Record {
    let config = Config::full(3, 1);
    let replicas = config.total_processes() as f64;
    let cluster = NetCluster::start(config, NetOpts::default(), factory()).expect("cluster starts");
    let start = Instant::now();
    let tally = run_workload(&cluster, clients_per_site, commands_per_client, |client| {
        ConflictMix::new(0.05, 100, 42 + client)
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let report = cluster.shutdown();
    assert_eq!(
        tally.aborted, 0,
        "failure-free runtime bench must not abort commands"
    );
    let msgs_per_s = report.transport.frames_sent as f64 / elapsed;
    let bytes_per_s = report.transport.bytes_sent as f64 / elapsed;
    let latency = tally.latency.summary();
    println!(
        "  {:7.0} cmds/s | {:8.0} msgs/s/replica | {:9.0} B/s/replica | {} flushes | p99 {:.2} ms",
        tally.completed as f64 / elapsed,
        msgs_per_s / replicas,
        bytes_per_s / replicas,
        report.transport.flushes,
        latency.p99_ms,
    );
    Record::new(
        format!("runtime/c{clients_per_site}"),
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
        "Runtime throughput: NetCluster over loopback TCP, closed loop",
        "cluster mode of §6.1 (framework), batching discipline of §6.2 (5 ms socket flushes)",
    );
    let (clients, commands) = if short_mode() { (2, 20) } else { (4, 100) };
    json::write("runtime", &[run_once(clients, commands)]);
}

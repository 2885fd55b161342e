//! The two layers the replays leave out, measured alone once per invocation: the TCP
//! transport between two loopback endpoints, and a `FileStore` in a scratch directory.

use crate::stats::median;
use std::path::Path;
use std::time::{Duration, Instant};
use tempo_kernel::command::{Command, KVOp};
use tempo_kernel::id::{Dot, Rifl};
use tempo_net::{TcpMesh, Transport};
use tempo_store::{FileStore, Store, WalRecord};

/// Payload of every frame, the size of a `lan_rw` command.
const FRAME: [u8; 100] = [7; 100];
/// Sends between flushes in the batched run, a busy replica step's worth.
const BATCH: usize = 32;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// What the transport does alone.
#[derive(Debug, Clone, Copy)]
pub struct NetMicro {
    /// One-way frames per second, 32 sends per flush.
    pub frames_per_s_batched: f64,
    /// One-way frames per second, one flush per send.
    pub frames_per_s_unbatched: f64,
    /// Median round trip of one frame each way, microseconds.
    pub pingpong_rtt_us_p50: f64,
}

/// One-way frames per second from one endpoint to another.
fn one_way_frames_per_s(batch: bool, frames: usize) -> Result<f64, String> {
    let mesh = TcpMesh::new();
    let bind = |id| {
        mesh.endpoint(id, batch)
            .map_err(|e| format!("bind endpoint: {e}"))
    };
    let (mut tx, mut rx) = (bind(1)?, bind(2)?);
    let begun = Instant::now();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            for received in 0..frames {
                if rx.recv_timeout(RECV_TIMEOUT).is_err() {
                    return Err(format!(
                        "loopback stalled after {received} of {frames} frames"
                    ));
                }
            }
            Ok(())
        });
        for sent in 1..=frames {
            tx.send(2, &FRAME);
            if sent % BATCH == 0 {
                tx.flush();
            }
        }
        tx.flush();
        receiver.join().expect("receiver thread")
    })?;
    Ok(frames as f64 / begun.elapsed().as_secs_f64())
}

/// Median round-trip time of `rounds` single-frame exchanges, microseconds.
fn pingpong_rtt_us(rounds: usize) -> Result<f64, String> {
    let mesh = TcpMesh::new();
    let bind = |id| {
        mesh.endpoint(id, true)
            .map_err(|e| format!("bind endpoint: {e}"))
    };
    let (mut a, mut b) = (bind(1)?, bind(2)?);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            for _ in 0..rounds {
                if b.recv_timeout(RECV_TIMEOUT).is_err() {
                    return;
                }
                b.send(1, &FRAME);
                b.flush();
            }
        });
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let begun = Instant::now();
            a.send(2, &FRAME);
            a.flush();
            if a.recv_timeout(RECV_TIMEOUT).is_err() {
                break;
            }
            rtts.push(begun.elapsed().as_secs_f64() * 1e6);
        }
        // If a frame went missing the echo thread gives up at its own timeout.
        echo.join().expect("echo thread");
        if rtts.len() < rounds {
            return Err(format!("ping-pong stalled after {} rounds", rtts.len()));
        }
        // The first exchanges dial the connections.
        Ok(median(&rtts[rounds / 10..]).expect("rounds were run"))
    })
}

/// Runs the three transport measurements; `scale` shrinks them for smoke runs.
pub fn net(scale: f64) -> Result<NetMicro, String> {
    let frames = |full: f64| ((full * scale) as usize).max(2_000);
    Ok(NetMicro {
        frames_per_s_batched: one_way_frames_per_s(true, frames(300_000.0))?,
        frames_per_s_unbatched: one_way_frames_per_s(false, frames(60_000.0))?,
        pingpong_rtt_us_p50: pingpong_rtt_us(frames(4_000.0) / 2)?,
    })
}

/// What the write-ahead log costs alone. Sync times depend on the host's disk.
#[derive(Debug, Clone, Copy)]
pub struct StoreMicro {
    /// Nanoseconds to frame and buffer one commit record.
    pub append_ns: f64,
    /// Median microseconds to write and fsync one buffered record.
    pub sync_us_p50: f64,
    /// 95th percentile of the same.
    pub sync_us_p95: f64,
}

/// Appends and syncs commit records to a `FileStore` under `scratch`, then removes it.
pub fn store(scratch: &Path, scale: f64) -> Result<StoreMicro, String> {
    let dir = scratch.join(format!("filestore-{}", std::process::id()));
    let mut store = FileStore::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let record = |i: u64| WalRecord::Commit {
        dot: Dot::new(1, i),
        ts: i,
        cmd: Command::single(Rifl::new(1, i), 0, i % 4_096, KVOp::Put(i), 100),
        waits: Vec::new(),
    };
    let appends = ((20_000.0 * scale) as u64).max(500);
    let records: Vec<WalRecord> = (0..appends).map(record).collect();
    let begun = Instant::now();
    for r in &records {
        store.append(r);
    }
    let append_ns = begun.elapsed().as_nanos() as f64 / appends as f64;
    store.sync();
    let syncs = ((100.0 * scale) as u64).max(10);
    let mut sync_us: Vec<f64> = (0..syncs)
        .map(|i| {
            store.append(&record(appends + i));
            let begun = Instant::now();
            store.sync();
            begun.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    sync_us.sort_by(f64::total_cmp);
    Ok(StoreMicro {
        append_ns,
        sync_us_p50: sync_us[sync_us.len() / 2],
        sync_us_p95: sync_us[(sync_us.len() * 95 / 100).min(sync_us.len() - 1)],
    })
}

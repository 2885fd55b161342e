//! Layer replay: the workload's first commands through one `Driver<Tempo>` per replica
//! on one thread, with a virtual clock and FIFO zero-latency delivery.
//!
//! Nothing here depends on thread scheduling or on the wall clock, so message, byte,
//! allocation and WAL counts repeat exactly for a seed. Times are taken around the same
//! loop and do vary. The loop is written out over `Driver::{start, submit, handle,
//! fire_due, next_timer_due}` rather than borrowed from a cluster harness, so that it
//! outlives them.

use crate::alloc;
use crate::spec::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_core::{ExecutionInfo, Message, Tempo, TempoExecutor, TempoOptions};
use tempo_kernel::command::Command;
use tempo_kernel::driver::{Driver, Output};
use tempo_kernel::id::{Dot, ProcessId, Rifl, SiteId};
use tempo_kernel::membership::Membership;
use tempo_kernel::protocol::{Executor, Protocol, View};
use tempo_load::Mix;
use tempo_net::Wire;
use tempo_store::{MemStore, Snapshot, Store, StoreMetrics, WalRecord};

/// Commands per replay.
pub const REPLAY_COMMANDS: usize = 20_000;

/// Virtual microseconds between submission rounds, per pump: 10,000 commands per
/// virtual second, so the 5 ms promise timers fire some 400 times in a replay.
const ROUND_US_PER_PUMP: u64 = 100;

/// How long past the last submission the replay may keep firing timers before it
/// gives up on stragglers.
const TAIL_US: u64 = 10_000_000;

/// Encoded outbound messages kept for the codec timing.
const CODEC_SAMPLE: usize = 100_000;

/// What a replay does besides driving the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Messages travel as values and the loop is timed.
    Timed,
    /// Every outbound message is `Wire`-encoded once and decoded once per recipient;
    /// messages, bytes and allocations are counted.
    Counted,
    /// As `Timed`, with `Tempo::with_store` over a counting in-memory `Store`.
    Stored,
}

/// WAL traffic of a `Stored` replay, summed over replicas.
#[derive(Debug, Default)]
pub struct StoreCounts {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
}

/// A `Store` that counts what the protocol asks of it. A sync with nothing appended
/// since the last one would not reach the disk and is not counted.
#[derive(Debug)]
struct CountingStore {
    inner: MemStore,
    dirty: bool,
    counts: Arc<StoreCounts>,
}

impl Store for CountingStore {
    fn append(&mut self, record: &WalRecord) {
        let before = self.inner.metrics().wal_bytes;
        self.inner.append(record);
        let written = self.inner.metrics().wal_bytes - before;
        self.counts.appends.fetch_add(1, Ordering::Relaxed);
        self.counts.bytes.fetch_add(written, Ordering::Relaxed);
        self.dirty = true;
    }

    fn sync(&mut self) {
        if std::mem::take(&mut self.dirty) {
            self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.sync();
    }

    fn install_snapshot(&mut self, snapshot: &Snapshot) {
        self.inner.install_snapshot(snapshot);
    }

    fn load(&mut self) -> (Option<Snapshot>, Vec<WalRecord>) {
        self.inner.load()
    }

    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
}

/// What one replay counted. Everything but `elapsed` repeats exactly for a seed.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Commands submitted.
    pub commands: u64,
    /// Messages delivered (one per recipient).
    pub msgs: u64,
    /// Encoded bytes delivered (`Counted` only).
    pub bytes: u64,
    /// Allocations inside `Driver` calls (`Counted` only).
    pub protocol_allocs: u64,
    /// Allocations inside `Wire` encode and decode calls (`Counted` only).
    pub codec_allocs: u64,
    /// Commits on the fast path, over all coordinators.
    pub fast_paths: u64,
    /// Commits on the slow path.
    pub slow_paths: u64,
    /// Wall time of the loop.
    pub elapsed: Duration,
    /// `(appends, fsyncs, bytes)` of the WAL (`Stored` only).
    pub wal: (u64, u64, u64),
    /// Encoded outbound messages with their fan-out (`Counted` only, capped).
    pub sample: Vec<(Vec<u8>, usize)>,
}

enum Payload {
    Value(Message),
    Bytes(Rc<Vec<u8>>),
}

struct Replay {
    mode: Mode,
    drivers: BTreeMap<ProcessId, Driver<Tempo>>,
    queue: VecDeque<(ProcessId, ProcessId, Payload)>,
    executed: BTreeMap<ProcessId, u64>,
    now_us: u64,
    report: ReplayReport,
}

impl Replay {
    /// Runs one driver step, charging its allocations to the protocol.
    fn step(&mut self, at: ProcessId, f: impl FnOnce(&mut Driver<Tempo>, u64) -> Output<Message>) {
        let driver = self.drivers.get_mut(&at).expect("known process");
        let before = alloc::allocs();
        let output = f(driver, self.now_us);
        self.report.protocol_allocs += alloc::allocs() - before;
        *self.executed.entry(at).or_default() += output.executed.len() as u64;
        for send in output.sends {
            self.report.msgs += send.to.len() as u64;
            if self.mode == Mode::Counted {
                let before = alloc::allocs();
                let bytes = send.msg.encode();
                self.report.codec_allocs += alloc::allocs() - before;
                self.report.bytes += (bytes.len() * send.to.len()) as u64;
                if self.report.sample.len() < CODEC_SAMPLE {
                    self.report.sample.push((bytes.clone(), send.to.len()));
                }
                let bytes = Rc::new(bytes);
                for to in send.to {
                    self.queue
                        .push_back((at, to, Payload::Bytes(Rc::clone(&bytes))));
                }
            } else {
                let (last, rest) = send.to.split_last().expect("sends have recipients");
                for to in rest {
                    self.queue
                        .push_back((at, *to, Payload::Value(send.msg.clone())));
                }
                self.queue.push_back((at, *last, Payload::Value(send.msg)));
            }
        }
    }

    /// Delivers queued messages in FIFO order until none is in flight.
    fn drain(&mut self) {
        while let Some((from, to, payload)) = self.queue.pop_front() {
            let msg = match payload {
                Payload::Value(msg) => msg,
                Payload::Bytes(bytes) => {
                    let before = alloc::allocs();
                    let msg = Message::decode(&bytes).expect("own encoding decodes");
                    self.report.codec_allocs += alloc::allocs() - before;
                    msg
                }
            };
            self.step(to, |driver, now| driver.handle(from, msg, now));
        }
    }

    /// Fires every timer due up to `until_us`, earliest first, delivering as it goes.
    fn advance(&mut self, until_us: u64) {
        loop {
            let next = self
                .drivers
                .iter()
                .filter_map(|(id, d)| d.next_timer_due().map(|due| (due, *id)))
                .min();
            let Some((due, id)) = next.filter(|(due, _)| *due <= until_us) else {
                break;
            };
            self.now_us = self.now_us.max(due);
            self.step(id, |driver, now| driver.fire_due(now));
            self.drain();
        }
        self.now_us = self.now_us.max(until_us);
    }
}

/// The replay's commands: one per pump per round, from the mixes the real runs seed
/// the same way, each addressed to the replica its pump's site would pick.
pub fn commands(w: &Workload, seed: u64, count: usize) -> Vec<Vec<(ProcessId, Command)>> {
    let membership = Membership::from_config(&w.config());
    let pumps = membership.sites();
    let mut mixes: Vec<_> = (0..pumps).map(|p| w.mix(seed + p as u64)).collect();
    (0..count.div_ceil(pumps))
        .map(|round| {
            mixes
                .iter_mut()
                .enumerate()
                .map(|(pump, mix)| {
                    let cmd = mix.next(Rifl::new(1 + pump as u64, 1 + round as u64));
                    let at = membership.process(cmd.target_shard(), pump as SiteId);
                    (at, cmd)
                })
                .collect()
        })
        .collect()
}

/// Replays `rounds` through the workload's deployment.
pub fn replay(
    w: &Workload,
    rounds: &[Vec<(ProcessId, Command)>],
    mode: Mode,
) -> Result<ReplayReport, String> {
    let config = w.config();
    let membership = Membership::from_config(&config);
    let wal = Arc::new(StoreCounts::default());
    let mut replay = Replay {
        mode,
        drivers: BTreeMap::new(),
        queue: VecDeque::new(),
        executed: BTreeMap::new(),
        now_us: 0,
        report: ReplayReport::default(),
    };
    // Commands each shard's replicas must execute before the replay is over.
    let mut due = vec![0u64; config.shards()];
    for (_, cmd) in rounds.iter().flatten() {
        for shard in cmd.shards() {
            due[shard as usize] += 1;
        }
        replay.report.commands += 1;
    }
    // Commands are cloned up front so that the loop below pays for nothing else.
    let rounds: Vec<Vec<(ProcessId, Command)>> = rounds.to_vec();

    alloc::counting(mode == Mode::Counted);
    let begun = Instant::now();
    for id in membership.all_processes() {
        let shard = membership.shard_of(id);
        let tempo = if mode == Mode::Stored {
            let store = CountingStore {
                inner: MemStore::new(),
                dirty: false,
                counts: Arc::clone(&wal),
            };
            Tempo::with_store(id, shard, config, TempoOptions::default(), Box::new(store))
        } else {
            Tempo::new(id, shard, config)
        };
        replay.drivers.insert(id, Driver::from_protocol(tempo));
        replay.step(id, |driver, now| {
            driver.start(View::trivial(config, id), now)
        });
    }
    replay.drain();
    let round_us = ROUND_US_PER_PUMP * membership.sites() as u64;
    for (round, submissions) in rounds.into_iter().enumerate() {
        replay.advance((round as u64 + 1) * round_us);
        for (at, cmd) in submissions {
            replay.step(at, |driver, now| driver.submit(cmd, now));
        }
        replay.drain();
    }
    let give_up_us = replay.now_us + TAIL_US;
    let done = |replay: &Replay| {
        membership.all_processes().into_iter().all(|id| {
            let shard = membership.shard_of(id) as usize;
            replay.executed.get(&id).copied().unwrap_or(0) >= due[shard]
        })
    };
    while !done(&replay) {
        if replay.now_us >= give_up_us {
            alloc::counting(false);
            return Err(format!(
                "{}: replay stalled: executed {:?}, due per shard {due:?}",
                w.name, replay.executed
            ));
        }
        replay.advance(replay.now_us + 1_000);
    }
    replay.report.elapsed = begun.elapsed();
    alloc::counting(false);

    for driver in replay.drivers.values() {
        let metrics = driver.metrics();
        replay.report.fast_paths += metrics.fast_paths;
        replay.report.slow_paths += metrics.slow_paths;
    }
    replay.report.wal = (
        wal.appends.load(Ordering::Relaxed),
        wal.fsyncs.load(Ordering::Relaxed),
        wal.bytes.load(Ordering::Relaxed),
    );
    Ok(replay.report)
}

/// Median of three timings of `f`, in nanoseconds.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<u128> = (0..3)
        .map(|_| {
            let begun = Instant::now();
            f();
            begun.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[1] as f64
}

/// `(encode, decode)` nanoseconds per delivered message over a replay's sample: each
/// message is encoded once however many recipients it has, and decoded once per
/// recipient, as on the real path.
pub fn codec_ns_per_msg(sample: &[(Vec<u8>, usize)]) -> (f64, f64) {
    let deliveries: usize = sample.iter().map(|(_, fanout)| fanout).sum();
    if deliveries == 0 {
        return (0.0, 0.0);
    }
    let decode_ns = median_ns(|| {
        for (bytes, fanout) in sample {
            for _ in 0..*fanout {
                black_box(Message::decode(black_box(bytes)).expect("own encoding decodes"));
            }
        }
    });
    let messages: Vec<Message> = sample
        .iter()
        .map(|(bytes, _)| Message::decode(bytes).expect("own encoding decodes"))
        .collect();
    let encode_ns = median_ns(|| {
        for msg in &messages {
            black_box(black_box(msg).encode());
        }
    });
    (encode_ns / deliveries as f64, decode_ns / deliveries as f64)
}

/// Microseconds per command of a bare `TempoExecutor` fed the commands that access
/// shard 0, committed at increasing timestamps with stability following 16 behind.
pub fn executor_us_per_cmd(w: &Workload, rounds: &[Vec<(ProcessId, Command)>]) -> f64 {
    let infos: Vec<ExecutionInfo> = rounds
        .iter()
        .flatten()
        .filter(|(_, cmd)| cmd.accesses(0))
        .enumerate()
        .map(|(i, (_, cmd))| ExecutionInfo::Committed {
            dot: Dot::new(0, 1 + i as u64),
            ts: 1 + i as u64,
            cmd: cmd.clone(),
            waits: Vec::new(),
        })
        .collect();
    let commands = infos.len() as u64;
    let mut executor = TempoExecutor::new(0, 0, w.config());
    let mut executed = 0;
    let begun = Instant::now();
    for (i, info) in infos.into_iter().enumerate() {
        executed += executor.handle(info).len();
        if i % 16 == 15 {
            executed += executor
                .handle(ExecutionInfo::Stable { ts: 1 + i as u64 })
                .len();
            executor.take_newly_stable();
            executor.take_executed_dots();
        }
    }
    executed += executor
        .handle(ExecutionInfo::Stable { ts: commands })
        .len();
    let elapsed = begun.elapsed();
    assert_eq!(
        executed as u64, commands,
        "the executor must apply every command"
    );
    elapsed.as_secs_f64() * 1e6 / commands.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        for w in &WORKLOADS[..3] {
            let rounds = commands(w, 42, 600);
            let a = replay(w, &rounds, Mode::Counted).expect("replay");
            let b = replay(w, &rounds, Mode::Counted).expect("replay");
            assert_eq!(a.commands, 600);
            assert!(a.msgs > a.commands && a.bytes > a.msgs, "{}: {a:?}", w.name);
            assert_eq!(
                (a.msgs, a.bytes, a.fast_paths, a.slow_paths),
                (b.msgs, b.bytes, b.fast_paths, b.slow_paths),
                "{}",
                w.name
            );
            // One commit per coordinating shard: more than one for a cross-shard command.
            assert!(a.fast_paths + a.slow_paths >= a.commands, "{}", w.name);
            // The timed replay carries values instead of bytes: same protocol, same
            // message count.
            let timed = replay(w, &rounds, Mode::Timed).expect("replay");
            assert_eq!(timed.msgs, a.msgs, "{}", w.name);
        }
    }

    #[test]
    fn stored_replay_logs_every_commit() {
        let w = &WORKLOADS[0];
        let rounds = commands(w, 7, 300);
        let report = replay(w, &rounds, Mode::Stored).expect("replay");
        let (appends, fsyncs, bytes) = report.wal;
        assert!(
            appends >= 3 * 300,
            "each replica logs each commit: {appends}"
        );
        assert!(
            fsyncs > 0 && fsyncs <= appends,
            "{fsyncs} fsyncs for {appends} appends"
        );
        assert!(bytes > appends, "{bytes} bytes");
        let again = replay(w, &rounds, Mode::Stored).expect("replay");
        assert_eq!(report.wal, again.wal);
    }

    #[test]
    fn codec_and_executor_times_are_positive() {
        let w = &WORKLOADS[2];
        let rounds = commands(w, 3, 300);
        let report = replay(w, &rounds, Mode::Counted).expect("replay");
        assert!(!report.sample.is_empty());
        let (encode_ns, decode_ns) = codec_ns_per_msg(&report.sample);
        assert!(encode_ns > 0.0 && decode_ns > 0.0);
        assert!(executor_us_per_cmd(w, &rounds) > 0.0);
    }
}

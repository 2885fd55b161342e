//! Command mixes: what each client command does.
//!
//! A [`Mix`] is the one command-generator trait of the workspace, used by the
//! simulator's closed-loop clients, `tempo-runtime`'s `run_workload` and its
//! open-loop `run_load` alike. The caller owns request identity — it passes the
//! [`Rifl`] in — and the mix only decides *what* the command does: which keys, read
//! or write, what payload. That split is what lets a load driver multiplexing
//! thousands of sessions over a few sockets encode the session slot into the
//! identifier, and it keeps every generator free of per-client bookkeeping.
//! All mixes are deterministic given their seed.

use tempo_kernel::command::{Command, KVOp, Key};
use tempo_kernel::id::{Rifl, ShardId};
use tempo_kernel::rand::{Rng, Zipf};

/// A stream of command bodies: the caller owns request identity, the mix owns key
/// choice and the read/write decision.
pub trait Mix: Send {
    /// Produces the next command, stamped with the caller-chosen `rifl`.
    fn next(&mut self, rifl: Rifl) -> Command;

    /// A short label for reports ("zipf-0.70/r0.50", ...).
    fn name(&self) -> String;

    /// How many application-level operations one command represents (1 unless the
    /// mix batches).
    fn ops_per_command(&self) -> u64 {
        1
    }
}

/// The conflict-rate microbenchmark of §6.2/§6.3 (single shard).
///
/// Each command carries one 8-byte key and `payload_size` bytes. With probability
/// `conflict_rate` (the paper's ρ) the key is the hot key 0, so the command conflicts
/// with every other such command; otherwise it is a key no other command ever uses —
/// derived from the caller's `(rifl.client, rifl.seq)`, which the closed-loop
/// harnesses number `1, 2, …` per client (keys of different clients stay apart for
/// the first 10⁹ commands of each). `conflict_rate = 1` makes every command conflict.
///
/// By default every command is a blind `Put`. [`with_hot_reads`](Self::with_hot_reads)
/// turns the hot-key commands into `Get`/`Add(1)` so that a history checker has
/// observations to falsify, and [`with_batch`](Self::with_batch) aggregates several
/// draws into one multi-key command (Figure 8).
#[derive(Debug, Clone)]
pub struct ConflictMix {
    conflict_rate: f64,
    hot_read_ratio: Option<f64>,
    batch: u64,
    payload_size: usize,
    rng: Rng,
}

impl ConflictMix {
    /// The microbenchmark with the given conflict rate (e.g. `0.02` for 2 %) and
    /// per-command payload.
    ///
    /// # Panics
    ///
    /// Panics if `conflict_rate ∉ [0, 1]`.
    pub fn new(conflict_rate: f64, payload_size: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&conflict_rate),
            "conflict rate must be in [0, 1], got {conflict_rate}"
        );
        Self {
            conflict_rate,
            hot_read_ratio: None,
            batch: 1,
            payload_size,
            rng: Rng::new(seed),
        }
    }

    /// Makes hot-key commands observable: a `Get` with probability `read_ratio`,
    /// otherwise an `Add(1)` (a read-modify-write whose output reveals its position
    /// in the linearization). A writes-only history is almost vacuously linearizable;
    /// this is the form the `tempo-fault` checkers run. Cold commands stay `Put`s.
    ///
    /// # Panics
    ///
    /// Panics if `read_ratio ∉ [0, 1]`.
    pub fn with_hot_reads(mut self, read_ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_ratio),
            "read ratio must be in [0, 1], got {read_ratio}"
        );
        self.hot_read_ratio = Some(read_ratio);
        self
    }

    /// Aggregates `batch` single-key draws into one multi-key command carrying
    /// `batch` payloads (the paper batches single-partition commands into one at each
    /// site every 5 ms or 105 commands).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "a batch holds at least one command");
        self.batch = batch as u64;
        self
    }
}

impl Mix for ConflictMix {
    fn next(&mut self, rifl: Rifl) -> Command {
        // The batch's draws are numbered as if the client had issued them one by
        // one: command `seq` holds draws `(seq - 1) * batch + 1 ..= seq * batch`.
        let first = rifl.seq.wrapping_sub(1).wrapping_mul(self.batch);
        let ops: Vec<(ShardId, Key, KVOp)> = (1..=self.batch)
            .map(|i| {
                let n = first.wrapping_add(i);
                if !self.rng.gen_bool(self.conflict_rate) {
                    let key = rifl.client.wrapping_mul(1_000_000_000).wrapping_add(1 + n);
                    return (0, key, KVOp::Put(n));
                }
                let op = match self.hot_read_ratio {
                    None => KVOp::Put(n),
                    Some(reads) if self.rng.gen_bool(reads) => KVOp::Get,
                    Some(_) => KVOp::Add(1),
                };
                (0, 0, op)
            })
            .collect();
        Command::new(rifl, ops, self.payload_size * self.batch as usize)
    }

    fn name(&self) -> String {
        let (rate, batch) = (self.conflict_rate, self.batch);
        match self.hot_read_ratio {
            Some(reads) => format!("conflict-{rate:.2}/r{reads:.2}/b{batch}"),
            None => format!("conflict-{rate:.2}/b{batch}"),
        }
    }

    fn ops_per_command(&self) -> u64 {
        self.batch
    }
}

/// The standard mix: single-key commands with Zipf-distributed keys, an optional
/// hot-key override, and a YCSB-style read ratio.
///
/// * `theta = 0` is uniform; YCSB's skewed workloads use `theta ∈ {0.5, 0.7, 0.99}`
///   (this sampler requires `theta < 1`). Key 0 is the most popular.
/// * `hot_ratio` is the microbenchmark's conflict knob: with that probability the
///   command targets key 0 outright, regardless of the Zipf draw, so every such pair
///   of commands conflicts (§6.2 of the paper defines conflict through a shared key).
/// * Reads are `Get`, writes are `Put` of a random value.
///
/// Keys are spread over `shards` partitions by residue (`key % shards`), matching
/// how the runtime's stores partition the key space. Deterministic given the seed.
#[derive(Debug, Clone)]
pub struct ZipfMix {
    zipf: Zipf,
    rng: Rng,
    read_ratio: f64,
    hot_ratio: f64,
    payload_size: usize,
    shards: u64,
}

impl ZipfMix {
    /// A mix over `keys` keys with skew `theta` and the given read ratio, on one
    /// shard with empty payloads. Use the builder methods to change the rest.
    ///
    /// # Panics
    ///
    /// Panics if `keys == 0`, `theta ∉ [0, 1)`, or a ratio is outside `[0, 1]`.
    pub fn new(keys: u64, theta: f64, read_ratio: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_ratio),
            "read ratio must be in [0, 1], got {read_ratio}"
        );
        Self {
            zipf: Zipf::new(keys, theta),
            rng: Rng::new(seed),
            read_ratio,
            hot_ratio: 0.0,
            payload_size: 0,
            shards: 1,
        }
    }

    /// YCSB workload A: 50% reads, 50% writes.
    pub fn ycsb_a(keys: u64, theta: f64, seed: u64) -> Self {
        Self::new(keys, theta, 0.5, seed)
    }

    /// YCSB workload B: 95% reads.
    pub fn ycsb_b(keys: u64, theta: f64, seed: u64) -> Self {
        Self::new(keys, theta, 0.95, seed)
    }

    /// YCSB workload C: read-only.
    pub fn ycsb_c(keys: u64, theta: f64, seed: u64) -> Self {
        Self::new(keys, theta, 1.0, seed)
    }

    /// Sets the probability of forcing the hot key (key 0).
    ///
    /// # Panics
    ///
    /// Panics if `hot_ratio ∉ [0, 1]`.
    pub fn with_hot_ratio(mut self, hot_ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&hot_ratio),
            "hot ratio must be in [0, 1], got {hot_ratio}"
        );
        self.hot_ratio = hot_ratio;
        self
    }

    /// Sets the opaque payload size carried by each command.
    pub fn with_payload(mut self, payload_size: usize) -> Self {
        self.payload_size = payload_size;
        self
    }

    /// Spreads keys over `shards` partitions by residue.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(mut self, shards: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }
}

impl Mix for ZipfMix {
    fn next(&mut self, rifl: Rifl) -> Command {
        let key: Key = if self.hot_ratio > 0.0 && self.rng.gen_bool(self.hot_ratio) {
            0
        } else {
            self.zipf.sample(&mut self.rng)
        };
        let op = if self.rng.gen_bool(self.read_ratio) {
            KVOp::Get
        } else {
            KVOp::Put(self.rng.next_u64())
        };
        let shard = key % self.shards;
        Command::single(rifl, shard, key, op, self.payload_size)
    }

    fn name(&self) -> String {
        let mut name = format!("zipf-{:.2}/r{:.2}", self.zipf.theta(), self.read_ratio);
        if self.hot_ratio > 0.0 {
            name.push_str(&format!("/hot{:.2}", self.hot_ratio));
        }
        name
    }
}

/// The YCSB+T multi-shard mix (§6.4 / Figure 9): each command is a one-shot
/// transaction over `keys_per_command` *distinct* (shard, key) pairs, with the key
/// within each shard drawn from a Zipfian distribution over a per-shard key space.
///
/// A fraction `write_ratio` of commands write every key they touch (`Add(1)`, so the
/// serializability checker can trace values through counters); the rest read every
/// key (`Get`).
#[derive(Debug, Clone)]
pub struct YcsbTMix {
    shards: u64,
    keys_per_shard: u64,
    zipf: Zipf,
    rng: Rng,
    write_ratio: f64,
    keys_per_command: usize,
    payload_size: usize,
}

impl YcsbTMix {
    /// A mix over `shards` shards of `keys_per_shard` keys each, with skew `theta`
    /// and the given write ratio. Each command touches 2 distinct (shard, key) pairs
    /// and carries a 64-byte payload, as in the paper; use the builder methods to
    /// change either.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `keys_per_shard == 0`, `theta ∉ [0, 1)`, or
    /// `write_ratio ∉ [0, 1]`.
    pub fn new(shards: u64, keys_per_shard: u64, theta: f64, write_ratio: f64, seed: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            (0.0..=1.0).contains(&write_ratio),
            "write ratio must be in [0, 1], got {write_ratio}"
        );
        assert!(keys_per_shard > 0, "need at least one key per shard");
        Self {
            shards,
            keys_per_shard,
            zipf: Zipf::new(keys_per_shard, theta),
            rng: Rng::new(seed),
            write_ratio,
            keys_per_command: 2,
            payload_size: 64,
        }
    }

    /// Sets how many distinct (shard, key) pairs each command accesses.
    ///
    /// # Panics
    ///
    /// Panics if `keys_per_command == 0` or if it exceeds the number of distinct
    /// (shard, key) pairs available (the rejection loop would never terminate).
    pub fn with_keys_per_command(mut self, keys_per_command: usize) -> Self {
        assert!(keys_per_command > 0, "need at least one key per command");
        let available = self.shards.saturating_mul(self.keys_per_shard);
        assert!(
            keys_per_command as u64 <= available,
            "{keys_per_command} keys per command but only {available} (shard, key) pairs"
        );
        self.keys_per_command = keys_per_command;
        self
    }

    /// Sets the opaque payload size carried by each command.
    pub fn with_payload(mut self, payload_size: usize) -> Self {
        self.payload_size = payload_size;
        self
    }
}

impl Mix for YcsbTMix {
    fn next(&mut self, rifl: Rifl) -> Command {
        let is_write = self.rng.gen_bool(self.write_ratio);
        let mut accesses: Vec<(ShardId, Key, KVOp)> = Vec::with_capacity(self.keys_per_command);
        while accesses.len() < self.keys_per_command {
            let shard = self.rng.gen_range(self.shards);
            let key = self.zipf.sample(&mut self.rng);
            if accesses.iter().any(|(s, k, _)| *s == shard && *k == key) {
                continue;
            }
            let op = if is_write { KVOp::Add(1) } else { KVOp::Get };
            accesses.push((shard, key, op));
        }
        Command::new(rifl, accesses, self.payload_size)
    }

    fn name(&self) -> String {
        format!(
            "ycsb+t-{}x{}/zipf-{:.2}/w{:.2}",
            self.shards,
            self.keys_per_command,
            self.zipf.theta(),
            self.write_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rifl(seq: u64) -> Rifl {
        Rifl::new(1, seq)
    }

    fn keys_of(mix: &mut ZipfMix, n: usize) -> Vec<Key> {
        (0..n)
            .map(|i| {
                let cmd = mix.next(rifl(i as u64));
                let (_, key) = cmd.keys().next().unwrap();
                key
            })
            .collect()
    }

    #[test]
    fn same_seed_same_command_sequence() {
        let mut a = ZipfMix::new(1_000_000, 0.7, 0.5, 99).with_payload(16);
        let mut b = ZipfMix::new(1_000_000, 0.7, 0.5, 99).with_payload(16);
        for i in 0..5_000 {
            assert_eq!(a.next(rifl(i)), b.next(rifl(i)));
        }
        let mut c = ZipfMix::new(1_000_000, 0.7, 0.5, 100);
        let same = (0..5_000)
            .filter(|&i| a.next(rifl(i)) == c.next(rifl(i)))
            .count();
        assert!(same < 5_000, "different seeds must diverge");
    }

    #[test]
    fn zipf_skew_favors_low_keys() {
        let mut skewed = ZipfMix::new(10_000, 0.9, 1.0, 3);
        let keys = keys_of(&mut skewed, 20_000);
        let low = keys.iter().filter(|&&k| k < 100).count();
        // Under theta=0.9 the first 100 of 10k keys draw a large constant share;
        // under uniform they would get ~1%.
        assert!(low > 5_000, "only {low}/20000 hits in the top 100 keys");
    }

    #[test]
    fn hot_ratio_forces_the_shared_key() {
        let mut mix = ZipfMix::new(1_000_000, 0.0, 1.0, 5).with_hot_ratio(0.5);
        let keys = keys_of(&mut mix, 10_000);
        let hot = keys.iter().filter(|&&k| k == 0).count();
        assert!(
            (4_500..=5_500).contains(&hot),
            "hot key share {hot}/10000, expected ~5000"
        );
    }

    #[test]
    fn read_ratio_controls_op_mix() {
        let mut mix = ZipfMix::ycsb_b(1000, 0.5, 8);
        let mut reads = 0;
        for i in 0..10_000 {
            if mix.next(rifl(i)).is_read_only() {
                reads += 1;
            }
        }
        assert!(
            (9_300..=9_700).contains(&reads),
            "YCSB-B read share {reads}/10000, expected ~9500"
        );
        let mut ro = ZipfMix::ycsb_c(1000, 0.5, 8);
        assert!((0..1000).all(|i| ro.next(rifl(i)).is_read_only()));
    }

    #[test]
    fn shard_residue_routing() {
        let mut mix = ZipfMix::new(1000, 0.0, 0.5, 2).with_shards(4);
        for i in 0..1000 {
            let cmd = mix.next(rifl(i));
            let (shard, key) = cmd.keys().next().unwrap();
            assert_eq!(shard, key % 4);
        }
    }

    #[test]
    fn names_describe_the_mix() {
        let mix = ZipfMix::new(1000, 0.7, 0.95, 1).with_hot_ratio(0.1);
        assert_eq!(mix.name(), "zipf-0.70/r0.95/hot0.10");
        let mix = YcsbTMix::new(2, 1000, 0.7, 0.5, 1);
        assert_eq!(mix.name(), "ycsb+t-2x2/zipf-0.70/w0.50");
    }

    #[test]
    fn ycsb_t_commands_touch_distinct_pairs_within_bounds() {
        let mut mix = YcsbTMix::new(3, 100, 0.7, 0.5, 7).with_keys_per_command(3);
        for i in 0..2_000 {
            let cmd = mix.next(rifl(i));
            let pairs: Vec<_> = cmd.keys().collect();
            assert_eq!(pairs.len(), 3);
            let distinct: std::collections::BTreeSet<_> = pairs.iter().collect();
            assert_eq!(
                distinct.len(),
                3,
                "duplicate (shard, key) pair in {pairs:?}"
            );
            for &(shard, key) in &pairs {
                assert!(shard < 3);
                assert!(key < 100);
            }
        }
    }

    #[test]
    fn ycsb_t_commands_are_all_read_or_all_write() {
        let mut mix = YcsbTMix::new(2, 1000, 0.5, 0.5, 11);
        let mut writes = 0;
        for i in 0..10_000 {
            let cmd = mix.next(rifl(i));
            let ops: Vec<KVOp> = (0..2)
                .flat_map(|shard| cmd.ops_of(shard).iter().map(|(_, op)| *op))
                .collect();
            assert_eq!(ops.len(), 2);
            if cmd.is_read_only() {
                assert!(ops.iter().all(|op| matches!(op, KVOp::Get)));
            } else {
                assert!(ops.iter().all(|op| matches!(op, KVOp::Add(1))));
                writes += 1;
            }
        }
        assert!(
            (4_500..=5_500).contains(&writes),
            "write share {writes}/10000, expected ~5000"
        );
    }

    /// The `key:op` pairs of `calls` commands drawn alternately for clients 3 and 7
    /// from one shared mix, each client numbering its own commands from 1 — the way
    /// the simulator drives a mix.
    fn pairs_for_two_clients(mix: &mut ConflictMix, calls: u64) -> String {
        let pairs = (0..calls).flat_map(|i| {
            let client = if i % 2 == 0 { 3 } else { 7 };
            let cmd = mix.next(Rifl::new(client, i / 2 + 1));
            cmd.ops_of(0).to_vec()
        });
        let rendered: Vec<String> = pairs.map(|(key, op)| format!("{key}:{op:?}")).collect();
        rendered.join(" ")
    }

    /// The literals below were captured at PR 12 from the three generators this mix
    /// replaced — `ConflictWorkload::new(0.3, 16, 42)`, `RwConflict::new(0.6, 0.5, 16,
    /// 42)` and `BatchedConflict::new(0.3, 16, 4, 42)` — under the same call pattern:
    /// same seed, same hot/cold draws, same keys and values. The simulator's recorded
    /// figures depend on them.
    #[test]
    fn conflict_mix_draws_what_the_retired_generators_drew() {
        let plain = "3000000002:Put(1) 7000000002:Put(1) 3000000003:Put(2) 7000000003:Put(2) \
             3000000004:Put(3) 7000000004:Put(3) 0:Put(4) 7000000005:Put(4) \
             0:Put(5) 7000000006:Put(5) 3000000007:Put(6) 7000000007:Put(6) \
             3000000008:Put(7) 0:Put(7) 3000000009:Put(8) 7000000009:Put(8) \
             0:Put(9) 0:Put(9) 3000000011:Put(10) 7000000011:Put(10) \
             0:Put(11) 7000000012:Put(11) 3000000013:Put(12) 7000000013:Put(12) \
             3000000014:Put(13) 0:Put(13) 3000000015:Put(14) 7000000015:Put(14) \
             3000000016:Put(15) 7000000016:Put(15) 0:Put(16) 7000000017:Put(16)";
        let mut mix = ConflictMix::new(0.3, 16, 42);
        assert_eq!(pairs_for_two_clients(&mut mix, 32), plain);

        let read_write = "3000000002:Put(1) 0:Add(1) 3000000003:Put(2) 7000000003:Put(2) \
             0:Get 7000000004:Put(3) 0:Add(1) 0:Add(1) \
             3000000006:Put(5) 0:Get 0:Get 0:Add(1) \
             0:Get 7000000008:Put(7) 3000000009:Put(8) 0:Add(1) \
             0:Get 7000000010:Put(9) 0:Add(1) 0:Add(1) \
             3000000012:Put(11) 0:Add(1) 3000000013:Put(12) 7000000013:Put(12) \
             0:Add(1) 7000000014:Put(13) 3000000015:Put(14) 0:Get \
             0:Get 0:Add(1) 0:Add(1) 0:Add(1)";
        let mut mix = ConflictMix::new(0.6, 16, 42).with_hot_reads(0.5);
        assert_eq!(pairs_for_two_clients(&mut mix, 32), read_write);

        let batched = "3000000002:Put(1) 3000000003:Put(2) 3000000004:Put(3) 3000000005:Put(4) \
             7000000002:Put(1) 7000000003:Put(2) 0:Put(3) 7000000005:Put(4) \
             0:Put(5) 3000000007:Put(6) 3000000008:Put(7) 3000000009:Put(8) \
             7000000006:Put(5) 0:Put(6) 7000000008:Put(7) 7000000009:Put(8) \
             0:Put(9) 0:Put(10) 3000000012:Put(11) 3000000013:Put(12) \
             0:Put(9) 7000000011:Put(10) 7000000012:Put(11) 7000000013:Put(12) \
             3000000014:Put(13) 0:Put(14) 3000000016:Put(15) 3000000017:Put(16) \
             7000000014:Put(13) 7000000015:Put(14) 0:Put(15) 7000000017:Put(16)";
        let mut mix = ConflictMix::new(0.3, 16, 42).with_batch(4);
        assert_eq!(pairs_for_two_clients(&mut mix, 8), batched);
        // A batch is one single-shard command of `batch` keys and `batch` payloads.
        assert_eq!(mix.ops_per_command(), 4);
        assert_eq!(mix.name(), "conflict-0.30/b4");
        let cmd = mix.next(Rifl::new(3, 5));
        assert_eq!((cmd.op_count(), cmd.payload_size), (4, 64));
        assert_eq!(cmd.shard_count(), 1);
    }

    #[test]
    fn conflict_mix_hits_the_requested_conflict_rate() {
        let mut mix = ConflictMix::new(0.1, 100, 42);
        let total = 20_000u64;
        let mut hot = 0;
        for i in 0..total {
            let rifl = Rifl::new(i % 8, i / 8 + 1);
            let cmd = mix.next(rifl);
            assert_eq!(cmd.rifl, rifl, "the caller's identity is stamped unchanged");
            assert_eq!(cmd.payload_size, 100);
            assert_eq!(cmd.shard_count(), 1);
            if cmd.keys_of(0).next() == Some(0) {
                hot += 1;
            }
        }
        let rate = hot as f64 / total as f64;
        assert!((0.08..0.12).contains(&rate), "conflict rate off: {rate}");
        assert_eq!(mix.ops_per_command(), 1);
    }

    #[test]
    fn conflict_mix_cold_keys_never_collide_across_clients() {
        for batch in [1, 3] {
            let mut mix = ConflictMix::new(0.0, 0, 7).with_batch(batch);
            let mut keys = std::collections::BTreeSet::new();
            for client in 0..50u64 {
                for seq in 1..=50u64 {
                    for key in mix.next(Rifl::new(client, seq)).keys_of(0) {
                        assert_ne!(key, 0, "a cold draw must not land on the hot key");
                        assert!(keys.insert(key), "duplicate key {key}");
                    }
                }
            }
        }
    }

    #[test]
    fn conflict_rate_one_puts_every_command_on_the_hot_key() {
        // The all-conflicts workload, with observable ops: about half reads, half
        // read-modify-writes (the cold side of this form is pinned by the literals).
        let mut mix = ConflictMix::new(1.0, 0, 3).with_hot_reads(0.5);
        let mut reads = 0;
        for i in 0..1000u64 {
            let cmd = mix.next(Rifl::new(i % 4, i / 4 + 1));
            assert!(matches!(cmd.ops_of(0), [(0, KVOp::Get | KVOp::Add(1))]));
            reads += u64::from(cmd.is_read_only());
        }
        assert!((300..700).contains(&reads), "mix off: {reads}/1000 reads");
    }

    #[test]
    #[should_panic(expected = "conflict rate must be in [0, 1]")]
    fn conflict_mix_refuses_a_rate_above_one() {
        let _ = ConflictMix::new(1.5, 0, 1);
    }

    #[test]
    #[should_panic(expected = "read ratio must be in [0, 1]")]
    fn conflict_mix_refuses_a_negative_read_ratio() {
        let _ = ConflictMix::new(0.5, 0, 1).with_hot_reads(-0.1);
    }

    #[test]
    #[should_panic(expected = "a batch holds at least one command")]
    fn conflict_mix_refuses_an_empty_batch() {
        let _ = ConflictMix::new(0.5, 0, 1).with_batch(0);
    }

    /// More keys per command than (shard, key) pairs exist would spin the rejection
    /// loop forever.
    #[test]
    #[should_panic(expected = "5 keys per command but only 4 (shard, key) pairs")]
    fn ycsb_t_refuses_more_keys_per_command_than_pairs_exist() {
        let _ = YcsbTMix::new(2, 2, 0.5, 0.5, 1).with_keys_per_command(5);
    }

    #[test]
    fn ycsb_t_write_ratio_zero_is_read_only_and_zipf_concentrates_accesses() {
        let mut mix = YcsbTMix::new(2, 1_000_000, 0.7, 0.0, 5);
        let draws = 4000;
        let mut hot = 0;
        for i in 0..draws {
            let cmd = mix.next(rifl(i));
            assert!(cmd.is_read_only());
            hot += cmd.keys().filter(|&(_, key)| key < 10_000).count();
        }
        // With zipf 0.7, the hottest 1% of keys receive well over 1% of accesses.
        assert!(hot as f64 / (2 * draws) as f64 > 0.1, "hot share {hot}");
    }

    #[test]
    fn ycsb_t_same_seed_same_sequence() {
        let mut a = YcsbTMix::new(2, 10_000, 0.7, 0.5, 42);
        let mut b = YcsbTMix::new(2, 10_000, 0.7, 0.5, 42);
        for i in 0..2_000 {
            assert_eq!(a.next(rifl(i)), b.next(rifl(i)));
        }
    }
}

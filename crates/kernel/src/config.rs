//! Replication configuration and quorum sizes.
//!
//! Following Flexible Paxos (and the paper, §2), the number of tolerated failures `f` is
//! decoupled from the replication factor `n`: any `1 ≤ f ≤ ⌊(n-1)/2⌋` is allowed. The
//! quorum sizes of the paper are:
//!
//! * fast quorum: `⌊n/2⌋ + f` (Tempo, Atlas — and Janus*, which is Atlas over shards),
//! * slow / write quorum: `f + 1`,
//! * recovery quorum: `n - f`,
//! * majority (stability detection, Theorem 1): `⌊n/2⌋ + 1`,
//! * EPaxos fast quorum: `⌊3n/4⌋`, Caesar fast quorum: `⌈3n/4⌉` (§6).

/// Static configuration of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of processes replicating each shard (the replication factor `r`/`n`; equals
    /// the number of sites in the deployments of §6).
    n: usize,
    /// Number of tolerated process failures per shard.
    f: usize,
    /// Number of shards (1 = full replication).
    shards: usize,
}

impl Config {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`, `f < 1`, `f > ⌊(n-1)/2⌋` or `shards == 0`.
    pub fn new(n: usize, f: usize, shards: usize) -> Self {
        assert!(n >= 3, "need at least 3 processes per shard, got {n}");
        assert!(f >= 1, "f must be at least 1");
        assert!(
            f <= (n - 1) / 2,
            "f = {f} must be at most ⌊(n-1)/2⌋ = {}",
            (n - 1) / 2
        );
        assert!(shards >= 1, "need at least one shard");
        Self { n, f, shards }
    }

    /// Full-replication configuration (a single shard).
    pub fn full(n: usize, f: usize) -> Self {
        Self::new(n, f, 1)
    }

    /// The replication factor of each shard.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of tolerated failures per shard.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total number of processes in the deployment.
    pub fn total_processes(&self) -> usize {
        self.n * self.shards
    }

    /// Size of the fast quorum used by Tempo and Atlas (Janus* included): `⌊n/2⌋ + f`.
    pub fn fast_quorum_size(&self) -> usize {
        self.n / 2 + self.f
    }

    /// Size of the slow (consensus write) quorum: `f + 1`.
    pub fn slow_quorum_size(&self) -> usize {
        self.f + 1
    }

    /// Size of the recovery quorum: `n - f`.
    pub fn recovery_quorum_size(&self) -> usize {
        self.n - self.f
    }

    /// A simple majority: `⌊n/2⌋ + 1`. Timestamp stability (Theorem 1) requires promises
    /// from this many processes.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Size of the EPaxos fast quorum: `⌊3n/4⌋` (§6, paragraph on compared protocols).
    pub fn epaxos_fast_quorum_size(&self) -> usize {
        (3 * self.n) / 4
    }

    /// Size of the Caesar fast quorum: `⌈3n/4⌉`.
    pub fn caesar_fast_quorum_size(&self) -> usize {
        (3 * self.n).div_ceil(4)
    }

    /// The index into a sorted array of per-process watermarks that yields the value
    /// guaranteed by a majority: `⌊n/2⌋` (Algorithm 2, line 51).
    pub fn stability_index(&self) -> usize {
        self.n / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes_match_paper_r5() {
        // r = 5, f = 1 (Table 1 c/d and §6).
        let c = Config::full(5, 1);
        assert_eq!(c.fast_quorum_size(), 3);
        assert_eq!(c.slow_quorum_size(), 2);
        assert_eq!(c.recovery_quorum_size(), 4);
        assert_eq!(c.majority(), 3);
        // r = 5, f = 2 (Table 1 a/b).
        let c = Config::full(5, 2);
        assert_eq!(c.fast_quorum_size(), 4);
        assert_eq!(c.slow_quorum_size(), 3);
        assert_eq!(c.recovery_quorum_size(), 3);
        assert_eq!(c.majority(), 3);
    }

    #[test]
    fn epaxos_caesar_quorums_r5() {
        let c = Config::full(5, 2);
        assert_eq!(c.epaxos_fast_quorum_size(), 3);
        assert_eq!(c.caesar_fast_quorum_size(), 4);
    }

    #[test]
    fn quorum_sizes_r3() {
        let c = Config::full(3, 1);
        assert_eq!(c.fast_quorum_size(), 2);
        assert_eq!(c.slow_quorum_size(), 2);
        assert_eq!(c.recovery_quorum_size(), 2);
        assert_eq!(c.majority(), 2);
        assert_eq!(c.stability_index(), 1);
    }

    #[test]
    fn quorum_sizes_r7() {
        let c = Config::full(7, 3);
        assert_eq!(c.fast_quorum_size(), 6);
        assert_eq!(c.slow_quorum_size(), 4);
        assert_eq!(c.recovery_quorum_size(), 4);
        assert_eq!(c.majority(), 4);
    }

    #[test]
    fn total_processes_scales_with_shards() {
        let c = Config::new(3, 1, 6);
        assert_eq!(c.total_processes(), 18);
        assert_eq!(c.shards(), 6);
    }

    #[test]
    #[should_panic(expected = "must be at most")]
    fn f_too_large_is_rejected() {
        let _ = Config::full(3, 2);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_n_is_rejected() {
        let _ = Config::full(2, 1);
    }

    #[test]
    fn fast_quorum_never_exceeds_n_and_intersects_majority() {
        for n in 3..=11usize {
            for f in 1..=(n - 1) / 2 {
                let c = Config::full(n, f);
                assert!(c.fast_quorum_size() <= n);
                // Property 3 relies on |fast quorum| >= majority when excluding up to f-1
                // failures plus the coordinator; sanity-check the basic overlap.
                assert!(c.fast_quorum_size() >= c.majority());
                assert!(c.recovery_quorum_size() >= c.majority());
                // Recovery and fast quorums intersect in at least ⌊n/2⌋ processes.
                let intersection = c.fast_quorum_size() + c.recovery_quorum_size() - n;
                assert!(intersection >= n / 2);
            }
        }
    }
}

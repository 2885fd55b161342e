//! The per-process timestamping clock (Algorithm 1, functions `proposal` and `bump`).
//!
//! Every Tempo process keeps a scalar `Clock` from which timestamp proposals are
//! generated. Advancing the clock *uses up* timestamps and therefore produces *promises*:
//!
//! * an **attached** promise `⟨i, t⟩` says that process `i` proposed timestamp `t` for a
//!   specific command and will never use `t` again,
//! * a **detached** promise `⟨i, u⟩` says that process `i` skipped timestamp `u` and will
//!   never propose it for any command.
//!
//! Promises generated locally are buffered here until the protocol broadcasts them
//! (piggybacked on `MProposeAck`/`MCommit`, or in an `MPromises` message — sent at the
//! end of the burst that generated a detached promise, and periodically; footnote 2 of
//! the paper: a promise is sent only once in the absence of failures).

use crate::promises::PromiseRange;
use tempo_kernel::id::Dot;

/// The timestamping clock of one Tempo process, together with the buffer of promises it
/// has generated but not yet broadcast.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    /// Current clock value; the next proposal is at least `clock + 1`.
    clock: u64,
    /// Detached promises generated and not yet broadcast, as inclusive ranges.
    detached_buffer: Vec<PromiseRange>,
    /// Attached promises generated and not yet broadcast.
    attached_buffer: Vec<(Dot, u64)>,
}

impl Clock {
    /// Creates a clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current clock value.
    pub fn value(&self) -> u64 {
        self.clock
    }

    /// Computes a timestamp proposal for command `dot`, given the coordinator's own
    /// proposal `min` (Algorithm 1, lines 34-39).
    ///
    /// The proposal is `max(min, Clock + 1)`; the clock is bumped to the proposal. The
    /// skipped range `[Clock + 1, t - 1]` becomes detached promises and `⟨i, t⟩` becomes
    /// an attached promise for `dot`.
    pub fn proposal(&mut self, dot: Dot, min: u64) -> u64 {
        let t = std::cmp::max(min, self.clock + 1);
        if t > self.clock + 1 {
            self.detached_buffer
                .push(PromiseRange::new(self.clock + 1, t - 1));
        }
        self.attached_buffer.push((dot, t));
        self.clock = t;
        t
    }

    /// Bumps the clock to at least `t`, generating detached promises for the skipped range
    /// `[Clock + 1, t]` (Algorithm 1, lines 40-43). Called when learning committed
    /// timestamps (`MCommit`), accepted consensus proposals (`MConsensus`) and `MBump`
    /// messages.
    pub fn bump(&mut self, t: u64) {
        if t > self.clock {
            self.detached_buffer
                .push(PromiseRange::new(self.clock + 1, t));
            self.clock = t;
        }
    }

    /// Drains the buffered detached promises (to broadcast them).
    pub fn take_detached(&mut self) -> Vec<PromiseRange> {
        std::mem::take(&mut self.detached_buffer)
    }

    /// Drains the buffered attached promises (to broadcast them).
    pub fn take_attached(&mut self) -> Vec<(Dot, u64)> {
        std::mem::take(&mut self.attached_buffer)
    }

    /// Whether there are detached promises waiting to be broadcast.
    pub fn has_detached(&self) -> bool {
        !self.detached_buffer.is_empty()
    }

    /// Whether there are promises waiting to be broadcast.
    pub fn has_pending_promises(&self) -> bool {
        self.has_detached() || !self.attached_buffer.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(seq: u64) -> Dot {
        Dot::new(1, seq)
    }

    #[test]
    fn proposal_takes_max_of_min_and_clock() {
        let mut clock = Clock::new();
        // Coordinator proposal: clock 0 -> proposes 1.
        assert_eq!(clock.proposal(dot(1), 0), 1);
        assert_eq!(clock.value(), 1);
        // A proposal with a higher coordinator value jumps the clock.
        assert_eq!(clock.proposal(dot(2), 10), 10);
        assert_eq!(clock.value(), 10);
        // A proposal with a lower coordinator value still advances by one.
        assert_eq!(clock.proposal(dot(3), 2), 11);
    }

    #[test]
    fn table1_example_b_clock_6_to_7() {
        // Table 1: process B has Clock = 6 and receives the coordinator proposal 6;
        // it bumps from 6 to 7 and proposes 7.
        let mut clock = Clock::new();
        clock.bump(6);
        clock.take_detached();
        assert_eq!(clock.proposal(dot(1), 6), 7);
        // No detached promises: the clock moved by exactly one.
        assert!(clock.take_detached().is_empty());
        assert_eq!(clock.take_attached(), vec![(dot(1), 7)]);
    }

    #[test]
    fn table1_example_d_process_c_generates_detached_promises() {
        // Table 1 d): process C has Clock = 1 and receives proposal 6: it proposes 6 and
        // generates detached promises 2, 3, 4, 5 (§3.2 "Promise collection").
        let mut clock = Clock::new();
        clock.bump(1);
        clock.take_detached();
        assert_eq!(clock.proposal(dot(9), 6), 6);
        let detached = clock.take_detached();
        assert_eq!(detached, vec![PromiseRange::new(2, 5)]);
        assert_eq!(clock.take_attached(), vec![(dot(9), 6)]);
    }

    #[test]
    fn bump_generates_detached_up_to_target() {
        let mut clock = Clock::new();
        clock.proposal(dot(1), 0);
        clock.take_detached();
        clock.take_attached();
        // Committing a command with timestamp 5 bumps the clock and promises 2..=5.
        clock.bump(5);
        assert_eq!(clock.take_detached(), vec![PromiseRange::new(2, 5)]);
        // Bumping to a lower or equal value is a no-op.
        clock.bump(3);
        assert!(clock.take_detached().is_empty());
        assert_eq!(clock.value(), 5);
    }

    #[test]
    fn has_pending_promises_tracks_buffers() {
        let mut clock = Clock::new();
        assert!(!clock.has_pending_promises());
        clock.proposal(dot(1), 0);
        assert!(clock.has_pending_promises());
        clock.take_attached();
        assert!(!clock.has_pending_promises());
        assert!(
            !clock.has_detached(),
            "attached promises are not detached ones"
        );
        clock.bump(10);
        assert!(clock.has_pending_promises() && clock.has_detached());
    }
}

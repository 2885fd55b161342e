//! The delay heap of [`LinkTransport`]: every frame the emulated network holds back
//! (latency, delay spike, slow node, reorder hold, duplicate) parks in it once.
//!
//! [`LinkTransport`]: crate::link::LinkTransport

use crate::transport::{RecvError, Transport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};
use tempo_kernel::id::ProcessId;

/// A frame held back until `due`. Ordered by `(due, seq)`: `seq` is unique, so the
/// derived order never looks past it.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Parked {
    due: Instant,
    seq: u64,
    from: ProcessId,
    payload: Vec<u8>,
}

/// Frames held back until they come due, released in `(due, arrival)` order: equal
/// delays keep arrival order.
#[derive(Debug, Default)]
pub(crate) struct DelayHeap {
    heap: BinaryHeap<Reverse<Parked>>,
    seq: u64,
}

impl DelayHeap {
    /// Holds a frame back until `due`.
    pub(crate) fn park(&mut self, due: Instant, from: ProcessId, payload: Vec<u8>) {
        self.seq += 1;
        self.heap.push(Reverse(Parked {
            due,
            seq: self.seq,
            from,
            payload,
        }));
    }

    fn pop_due(&mut self) -> Option<(ProcessId, Vec<u8>)> {
        let Reverse(head) = self.heap.peek()?;
        if head.due > Instant::now() {
            return None;
        }
        let Reverse(head) = self.heap.pop().expect("peeked");
        Some((head.from, head.payload))
    }

    /// Receives from `inner` through the heap. A due frame is served first; otherwise
    /// the wait on `inner` lasts until `timeout` or the next frame comes due, whichever is
    /// first, and `admit` returns each arriving frame for delivery or takes it (parked or
    /// dropped). A parked frame is delayed, never lost.
    pub(crate) fn recv_timeout(
        &mut self,
        inner: &mut impl Transport,
        timeout: Duration,
        mut admit: impl FnMut(&mut Self, ProcessId, Vec<u8>) -> Option<(ProcessId, Vec<u8>)>,
    ) -> Result<(ProcessId, Vec<u8>), RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.pop_due() {
                return Ok(frame);
            }
            let now = Instant::now();
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(Reverse(head)) = self.heap.peek() {
                wait = wait.min(head.due.saturating_duration_since(now));
            }
            match inner.recv_timeout(wait) {
                Ok((from, payload)) => {
                    if let Some(frame) = admit(self, from, payload) {
                        return Ok(frame);
                    }
                }
                Err(RecvError::Timeout) => {
                    // A parked frame may have come due while we waited.
                    if let Some(frame) = self.pop_due() {
                        return Ok(frame);
                    }
                    if Instant::now() >= deadline {
                        return Err(RecvError::Timeout);
                    }
                }
                Err(RecvError::Closed) => return Err(RecvError::Closed),
            }
        }
    }
}

//! `tempo-net` — the wire codec and pluggable transports of the cluster runtime.
//!
//! The simulator (`tempo-sim`) delivers messages as in-memory values over a modelled
//! network; this crate is what turns the same protocol state machines into an actual
//! message-passing system: Rust values become length+CRC byte frames, frames travel
//! over per-peer ordered byte channels, and the fault plane of `tempo-fault` is
//! re-injected *under real thread interleaving* instead of simulated time. Three
//! layers, each usable on its own:
//!
//! * [`wire`] — the [`Wire`] codec trait plus the framing shared with
//!   `tempo-store::wal` (`[len: u32 LE][crc32: u32 LE][payload]`, fixed-width
//!   little-endian integers inside). Implemented here for commands and the client
//!   request/reply envelope; `tempo-core` implements it for Tempo's full message set.
//!   Decoding never panics and never trusts a length prefix further than the buffer
//!   it came from — the corrupt-frame battery under `tests/` truncates and bit-flips
//!   every frame at every byte offset.
//! * [`transport`] — the [`Transport`] trait: per-peer *ordered* byte channels with
//!   batched sends (frames queue locally until [`Transport::flush`], so a burst of
//!   handled frames costs one write per peer, not one per message), and the peers'
//!   socket buffers as the only send queue, so a full one blocks the flush
//!   (backpressure). [`tcp`] implements it over std loopback TCP sockets: one
//!   listener per endpoint, flushes that write from the calling thread, reader threads
//!   feeding a single inbox one batch of frames per `read`, and lazy reconnection
//!   through a shared address book so a restarted process (fresh listener, fresh
//!   port) is reachable again without any coordination.
//! * [`link`] — [`LinkTransport`], the one wrapper over any transport that emulates the
//!   network on the receive path: the `tempo-planet` one-way region latencies (Table
//!   2), so that load and latency measurements run on real sockets across *emulated*
//!   wide-area regions, and the fate the *same* `tempo-fault::Nemesis` the simulator
//!   runs draws for each replica frame, once (dropped, or delayed and perhaps
//!   duplicated). Each frame parks once, for both. The embedding runtime advances the
//!   nemesis shared in the [`LinkNet`] and kills and restarts whole replica threads.
//!   What the sim injects at simulated instants, this injects at wall-clock instants:
//!   same schedules, real concurrency. See DESIGN.md §7 and §8.
//!
//! What dies with what (the crash model): a process crash drops its endpoint, which
//! closes every socket — unread peer data, unflushed sends and inbox backlog are
//! all lost, like TCP connections dying with their process. Peers reconnect lazily via
//! the address book once (if ever) the process returns. DESIGN.md §7 documents the
//! full networking model, including where it is *weaker* than the sim's incarnation
//! tagging and why that is safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
pub mod link;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use link::{LinkNet, LinkTransport};
pub use tcp::{TcpMesh, TcpTransport};
pub use transport::{RecvError, Transport, TransportStats, CLIENT_ID_BASE};
pub use wire::{ClientReply, ClientRequest, Wire, MAX_FRAME_LEN};

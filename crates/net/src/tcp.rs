//! [`TcpTransport`] — the [`Transport`] over std loopback TCP sockets.
//!
//! # Topology
//!
//! A [`TcpMesh`] owns a shared *address book* (`ProcessId -> SocketAddr`). Each
//! endpoint binds its own listener on `127.0.0.1:0`, registers the assigned address,
//! and from then on:
//!
//! * an **accept thread** blocks in `accept` and spawns one **reader thread** per
//!   inbound connection; the reader validates a hello (`b"TNET"` + sender id +
//!   sender incarnation — a connection from an incarnation the book has replaced is
//!   closed before any frame surfaces), then reads through one reused 64 KiB buffer:
//!   every complete `[len][crc][payload]` frame a `read` brought in is validated and
//!   the lot handed to the endpoint's inbox as **one batch** — one channel send and at
//!   most one wake-up of the receiving thread per `read`, however many frames it
//!   carried ([`Transport::recv_timeout`] serves the batch frame by frame from a local
//!   queue). A malformed or checksum-failing frame closes the connection (it can only
//!   mean corruption; the peer will reconnect): the frames before it in the batch are
//!   delivered, none after it;
//! * the sending side has **no thread**: the endpoint owns one outbound connection per
//!   peer, dialled on the first flush toward it, and [`Transport::flush`] writes to it
//!   from the calling thread.
//!
//! # Batching and backpressure
//!
//! [`Transport::send`] appends the frame to a per-peer buffer without any I/O or
//! locking; [`Transport::flush`] writes each buffer to its peer's socket as one blob —
//! one `write` per peer per flush, however many frames the burst queued. Constructing
//! the endpoint with `batch = false` writes on every send instead — no cluster runs
//! that way; it is the reference of `tempo-perf`'s loopback frames/s layer rows.
//!
//! The socket buffers are the only queue. A write that finds a peer's full counts a
//! [`TransportStats::flush_stalls`] and blocks the flushing thread until the peer's
//! reader has drained some of it. Readers move everything they read into an unbounded
//! inbox and never wait for their endpoint's owner, so the wait ends without help from
//! the blocked thread, and no cycle of waits can pass through two endpoints.
//!
//! # Crash/restart behaviour
//!
//! Dropping an endpoint closes its listener and its outbound connections and shuts
//! down every accepted socket: peers' readers see EOF, their writes start failing and
//! drop frames — exactly "connections die with their process". A restarted process
//! obtains a *fresh* endpoint (new port, incremented *incarnation*) whose book entry
//! replaces the old one. The send and flush paths look the book up once per blob — a
//! whole burst — not per frame. Each peer's connection remembers which incarnation it
//! was dialled to: when the book has moved on, the flush drops that connection and
//! dials the new address at once (no back-off — the peer is known to be listening), so
//! the first batch after a restart is not written into the dead socket. No frame is
//! ever delivered twice, and no frame ever crosses incarnations: outbound blobs are
//! stamped with the destination incarnation they were addressed to and dropped by the
//! flush if the book has moved on ([`TransportStats::frames_dropped_stale`]), while
//! inbound connections carrying a stale *sender* incarnation are refused at the hello
//! — the same hygiene the simulator enforces with its incarnation tags.

use crate::transport::{RecvError, Transport, TransportStats};
use crate::wire::{DecodeError, MAX_FRAME_LEN};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempo_kernel::id::ProcessId;
use tempo_store::wal::{crc32, read_frame};

/// Connection hello: magic + sender id + sender incarnation, written once per
/// outbound connection.
const HELLO_MAGIC: &[u8; 4] = b"TNET";

/// Hello length on the wire: 4-byte magic, 8-byte sender id, 8-byte incarnation.
const HELLO_LEN: usize = 20;

/// Frame header length on the wire: 4-byte payload length, 4-byte CRC.
const FRAME_HEADER: usize = 8;

/// Size of a reader's reused buffer: one `read` takes in up to this much, and every
/// complete frame in it reaches the inbox as one batch.
const READ_BUF: usize = 64 << 10;

/// Minimum wait between failed dial attempts to one peer (a crashed peer must not
/// turn every flush toward it into a connect).
const DIAL_BACKOFF: Duration = Duration::from_millis(25);

#[derive(Debug, Default)]
struct AtomicStats {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    frames_dropped: AtomicU64,
    frames_dropped_stale: AtomicU64,
    frames_corrupt: AtomicU64,
    flushes: AtomicU64,
    flush_stalls: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_dropped_stale: self.frames_dropped_stale.load(Ordering::Relaxed),
            frames_corrupt: self.frames_corrupt.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            queue_depth_peak: 0,
            flush_stalls: self.flush_stalls.load(Ordering::Relaxed),
        }
    }

    fn count_dropped(&self, frames: u64) {
        self.frames_dropped.fetch_add(frames, Ordering::Relaxed);
    }
}

/// One address-book entry: where a process currently listens, and which incarnation
/// of it that is. The incarnation bumps every time the process re-registers (i.e. on
/// restart), so both ends of a connection can tell live traffic from a ghost of the
/// previous life.
#[derive(Debug, Clone, Copy)]
struct BookEntry {
    addr: SocketAddr,
    incarnation: u64,
}

/// The address book. Registrations are rare; a lookup costs one uncontended lock per
/// blob, and a blob carries a whole burst.
#[derive(Debug, Default)]
struct Book {
    entries: Mutex<BTreeMap<ProcessId, BookEntry>>,
}

impl Book {
    /// Registers `id` at `addr`, returning its new incarnation.
    fn register(&self, id: ProcessId, addr: SocketAddr) -> u64 {
        let mut entries = self.entries.lock().expect("address book lock");
        let incarnation = entries.get(&id).map_or(1, |e| e.incarnation + 1);
        entries.insert(id, BookEntry { addr, incarnation });
        incarnation
    }

    fn lookup(&self, id: ProcessId) -> Option<BookEntry> {
        let entries = self.entries.lock().expect("address book lock");
        entries.get(&id).copied()
    }
}

/// The deployment mesh: the shared address book endpoints register with and dial
/// through. Cloning is cheap (one `Arc`).
#[derive(Debug, Clone, Default)]
pub struct TcpMesh {
    book: Arc<Book>,
}

/// What a reader hands the inbox: the valid frames of one `read`, in arrival order.
type Batch = Vec<(ProcessId, Vec<u8>)>;

impl TcpMesh {
    /// Creates an empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a new endpoint for `id` on a loopback port and registers it in the
    /// address book, replacing any previous registration (that is how a restarted
    /// process becomes reachable again). `batch = false` flushes on every send.
    pub fn endpoint(&self, id: ProcessId, batch: bool) -> std::io::Result<TcpTransport> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let incarnation = self.book.register(id, addr);

        let stats = Arc::new(AtomicStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let (inbox_tx, inbox_rx) = mpsc::channel();

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let stats = Arc::clone(&stats);
            let book = Arc::clone(&self.book);
            std::thread::Builder::new()
                .name(format!("tnet-accept-{id}"))
                .spawn(move || accept_loop(listener, stop, accepted, inbox_tx, stats, book))
                .expect("spawn accept thread")
        };

        Ok(TcpTransport {
            local: id,
            incarnation,
            addr,
            book: Arc::clone(&self.book),
            inbox: inbox_rx,
            ready: VecDeque::new(),
            peers: BTreeMap::new(),
            batch,
            stop,
            accepted,
            accept_handle: Some(accept_handle),
            stats,
        })
    }
}

/// Accepts connections until the endpoint is dropped: `Drop` raises `stop` and then
/// connects once itself, which ends the blocking `accept`. Any accept error ends the
/// loop too.
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    inbox: Sender<Batch>,
    stats: Arc<AtomicStats>,
    book: Arc<Book>,
) {
    while let Ok((stream, _)) = listener.accept() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            accepted.lock().expect("accepted lock").push(clone);
        }
        let inbox = inbox.clone();
        let stats = Arc::clone(&stats);
        let book = Arc::clone(&book);
        let _ = std::thread::Builder::new()
            .name("tnet-reader".to_string())
            .spawn(move || reader_loop(stream, inbox, stats, book));
    }
}

/// Moves every complete, valid frame at the front of `buf` into `batch`. Returns how
/// many bytes they took, and whether what follows them failed its checksum rather
/// than merely being incomplete.
fn parse_frames(buf: &[u8], from: ProcessId, batch: &mut Batch) -> (usize, bool) {
    let mut at = 0;
    loop {
        match read_frame(buf, at) {
            Ok((payload, end)) => {
                batch.push((from, payload.to_vec()));
                at = end;
            }
            Err(DecodeError::Truncated) => return (at, false),
            Err(_) => return (at, true),
        }
    }
}

/// Reads frames off one inbound connection until EOF or the first malformed frame
/// (oversized length, checksum mismatch) — corruption closes the connection cleanly,
/// it never panics and never reaches the inbox. Every malformed frame is counted in
/// `frames_corrupt` before the connection dies: the reader does not die silently, it
/// leaves a visible mark that feeds detector suspicion (a peer whose traffic keeps
/// corrupting stops proving its liveness).
fn reader_loop(
    mut stream: TcpStream,
    inbox: Sender<Batch>,
    stats: Arc<AtomicStats>,
    book: Arc<Book>,
) {
    let mut hello = [0u8; HELLO_LEN];
    if stream.read_exact(&mut hello).is_err() || &hello[..4] != HELLO_MAGIC {
        return;
    }
    let from = u64::from_le_bytes(hello[4..12].try_into().expect("sender id"));
    let from_incarnation = u64::from_le_bytes(hello[12..20].try_into().expect("incarnation"));
    // Restart-reconnect hygiene: a connection from an incarnation the book has
    // already replaced is a ghost of the sender's previous life — close it before a
    // single frame crosses over. Incarnation 0 is the wildcard for raw peers that
    // never registered (the book then has no opinion either).
    if from_incarnation != 0
        && book
            .lookup(from)
            .is_some_and(|current| from_incarnation < current.incarnation)
    {
        return;
    }
    // Hands one batch to the inbox; `false` once the endpoint is gone.
    let deliver = |batch: Batch| {
        let bytes: usize = batch.iter().map(|(_, payload)| payload.len()).sum();
        stats
            .frames_received
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats
            .bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
        inbox.send(batch).is_ok()
    };
    let mut buf = vec![0u8; READ_BUF];
    let mut filled = 0;
    loop {
        let mut batch = Batch::new();
        let (consumed, corrupt) = parse_frames(&buf[..filled], from, &mut batch);
        if !batch.is_empty() && !deliver(batch) {
            return;
        }
        if corrupt {
            stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Whatever is left is the head of one frame: move it to the front, where
        // the buffer has room for the rest of it.
        buf.copy_within(consumed..filled, 0);
        filled -= consumed;
        if filled >= FRAME_HEADER {
            let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
            if len > MAX_FRAME_LEN {
                // A corrupt length: close rather than allocate it.
                stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if FRAME_HEADER + len > buf.len() {
                // A frame the buffer can never hold (a state-transfer image): read
                // the rest of it straight into its own allocation.
                let mut payload = vec![0u8; len];
                let have = filled - FRAME_HEADER;
                payload[..have].copy_from_slice(&buf[FRAME_HEADER..filled]);
                filled = 0;
                if stream.read_exact(&mut payload[have..]).is_err() {
                    return;
                }
                if crc32(&payload) != crc {
                    stats.frames_corrupt.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if !deliver(vec![(from, payload)]) {
                    return;
                }
            }
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) | Err(_) => return, // EOF: the peer closed or crashed.
            Ok(n) => filled += n,
        }
    }
}

/// The sending side's state for one peer: its connection and the frames sent since the
/// last flush.
#[derive(Debug, Default)]
struct Peer {
    stream: Option<TcpStream>,
    /// The incarnation of the peer that the last dial, successful or not, aimed at.
    dialed: u64,
    /// When the last dial toward the peer failed.
    last_fail: Option<Instant>,
    /// Frames sent and not yet flushed, framed; cleared, not reallocated, by a flush.
    pending: Vec<u8>,
    /// How many frames `pending` holds (for drop accounting).
    frames: u64,
    /// The incarnation of the destination the pending frames were addressed to (0 =
    /// unknown peer, deliver to whoever answers).
    incarnation: u64,
}

impl Peer {
    /// Writes the pending frames to `to` — dialling it first when needed — or counts
    /// them dropped, and leaves the buffer empty for the next burst.
    fn flush(
        &mut self,
        to: ProcessId,
        local: ProcessId,
        local_incarnation: u64,
        book: &Book,
        stats: &AtomicStats,
    ) {
        let frames = std::mem::take(&mut self.frames);
        let target = book.lookup(to);
        if let Some(target) = target {
            // Restart-reconnect hygiene: frames addressed to an incarnation the book
            // has since replaced must not deliver to its successor — drop them here,
            // exactly where the sim's nemesis counts crash drops.
            if self.incarnation != 0 && self.incarnation != target.incarnation {
                stats.count_dropped(frames);
                stats
                    .frames_dropped_stale
                    .fetch_add(frames, Ordering::Relaxed);
                self.pending.clear();
                return;
            }
            // The peer has re-registered since the last dial: an open connection
            // leads to its previous life, where a write would vanish without an
            // error, and a back-off concerns an address it has left. The new
            // incarnation is listening, so dial it now.
            if self.dialed != target.incarnation {
                self.stream = None;
                self.last_fail = None;
            }
        }
        if self.stream.is_none() && self.last_fail.is_none_or(|at| at.elapsed() >= DIAL_BACKOFF) {
            if let Some(target) = target {
                self.dialed = target.incarnation;
                self.stream = dial(local, local_incarnation, target.addr);
            }
            if self.stream.is_none() {
                self.last_fail = Some(Instant::now());
            }
        }
        match &mut self.stream {
            Some(stream) => {
                if write_blob(stream, &self.pending, stats).is_err() {
                    // The connection died with the peer: these frames are lost, the
                    // next flush re-dials (the peer may have restarted elsewhere).
                    self.stream = None;
                    stats.count_dropped(frames);
                }
            }
            None => stats.count_dropped(frames),
        }
        self.pending.clear();
    }
}

/// Writes all of `bytes` to a non-blocking `stream`. When the peer's socket buffer is
/// full, counts one stall and finishes the write blocking.
fn write_blob(
    stream: &mut TcpStream,
    mut bytes: &[u8],
    stats: &AtomicStats,
) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stats.flush_stalls.fetch_add(1, Ordering::Relaxed);
                stream.set_nonblocking(false)?;
                stream.write_all(bytes)?;
                return stream.set_nonblocking(true);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Connects to `addr` and says hello; the stream comes back non-blocking, as
/// [`write_blob`] expects.
fn dial(local: ProcessId, local_incarnation: u64, addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).ok()?;
    let _ = stream.set_nodelay(true);
    let mut hello = Vec::with_capacity(HELLO_LEN);
    hello.extend_from_slice(HELLO_MAGIC);
    hello.extend_from_slice(&local.to_le_bytes());
    hello.extend_from_slice(&local_incarnation.to_le_bytes());
    stream.write_all(&hello).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// A connected TCP endpoint of the mesh. See the module docs for the thread layout.
pub struct TcpTransport {
    local: ProcessId,
    /// Which life of `local` this endpoint is (1 on first registration, +1 per
    /// restart); carried in the hello of every outbound connection.
    incarnation: u64,
    /// Where this endpoint listens.
    addr: SocketAddr,
    book: Arc<Book>,
    inbox: Receiver<Batch>,
    /// The rest of the batch last taken off the inbox.
    ready: VecDeque<(ProcessId, Vec<u8>)>,
    peers: BTreeMap<ProcessId, Peer>,
    batch: bool,
    stop: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
    stats: Arc<AtomicStats>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local", &self.local)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// This endpoint's incarnation (1-based; bumps on every re-registration of the
    /// same id in the mesh).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> ProcessId {
        self.local
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) {
        debug_assert!(
            payload.len() <= MAX_FRAME_LEN,
            "frame exceeds MAX_FRAME_LEN"
        );
        let peer = self.peers.entry(to).or_default();
        if peer.frames == 0 {
            // Stamp the blob with the destination's incarnation *now*: if the peer
            // restarts between this send and the flush, the frames belong to the dead
            // incarnation and must be dropped, not delivered to its heir.
            peer.incarnation = self.book.lookup(to).map_or(0, |e| e.incarnation);
        }
        let buf = &mut peer.pending;
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        peer.frames += 1;
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if !self.batch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let mut flushed = false;
        for (&to, peer) in &mut self.peers {
            if peer.frames > 0 {
                flushed = true;
                peer.flush(to, self.local, self.incarnation, &self.book, &self.stats);
            }
        }
        if flushed {
            self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(ProcessId, Vec<u8>), RecvError> {
        loop {
            if let Some(frame) = self.ready.pop_front() {
                return Ok(frame);
            }
            match self.inbox.recv_timeout(timeout) {
                Ok(batch) => self.ready = batch.into(),
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(RecvError::Timeout),
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(RecvError::Closed),
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread: it takes this connection, sees `stop` and returns,
        // closing the listener. Should even this connect fail, leave the thread
        // rather than hang.
        if TcpStream::connect(self.addr).is_ok() {
            if let Some(handle) = self.accept_handle.take() {
                let _ = handle.join();
            }
        }
        // Shut down inbound sockets so reader threads unblock and exit; the outbound
        // connections close with `self.peers`.
        for stream in self.accepted.lock().expect("accepted lock").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_store::wal::frame;

    /// A raw connection to `to`'s listener that has said hello as `sender`.
    fn raw_peer(mesh: &TcpMesh, to: ProcessId, sender: ProcessId, incarnation: u64) -> TcpStream {
        let addr = mesh.book.lookup(to).expect("registered").addr;
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut hello = HELLO_MAGIC.to_vec();
        hello.extend_from_slice(&sender.to_le_bytes());
        hello.extend_from_slice(&incarnation.to_le_bytes());
        raw.write_all(&hello).unwrap();
        raw
    }

    /// A frame whose checksum does not match its payload.
    fn corrupt_frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = frame(payload);
        bytes[4] ^= 0xFF;
        bytes
    }

    fn assert_closed(raw: &mut TcpStream) {
        let mut buf = [0u8; 1];
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(
            raw.read(&mut buf).unwrap_or(0),
            0,
            "connection must be closed"
        );
    }

    #[test]
    fn two_endpoints_exchange_frames_in_order() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(0, true).unwrap();
        let mut b = mesh.endpoint(1, true).unwrap();
        for i in 0u64..100 {
            a.send(1, &i.to_le_bytes());
        }
        a.flush();
        for i in 0u64..100 {
            let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, 0);
            assert_eq!(payload, i.to_le_bytes());
        }
        // And the other direction over a separate connection.
        b.send(0, b"pong");
        b.flush();
        let (from, payload) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload.as_slice()), (1, b"pong".as_slice()));
    }

    #[test]
    fn batching_coalesces_sends_until_flush() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(10, true).unwrap();
        let mut b = mesh.endpoint(11, true).unwrap();
        a.send(11, b"one");
        a.send(11, b"two");
        // Nothing flushed yet: the frames sit in the local buffer.
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        );
        a.flush();
        assert_eq!(a.stats().flushes, 1);
        let (_, one) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let (_, two) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (one.as_slice(), two.as_slice()),
            (b"one".as_slice(), b"two".as_slice())
        );
    }

    #[test]
    fn frames_to_a_dead_peer_are_dropped_and_resume_after_restart() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(20, true).unwrap();
        let b = mesh.endpoint(21, true).unwrap();
        drop(b); // Peer crashes: connections die with it.
        a.send(21, b"lost");
        a.flush();
        // Give the writer a moment to fail the dial.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            a.stats().frames_dropped >= 1,
            "frame to dead peer must drop"
        );
        // The peer restarts on a fresh port; the book is updated and traffic resumes.
        std::thread::sleep(DIAL_BACKOFF);
        let mut b2 = mesh.endpoint(21, true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            a.send(21, b"hello-again");
            a.flush();
            match b2.recv_timeout(Duration::from_millis(100)) {
                Ok((from, payload)) => {
                    assert_eq!((from, payload.as_slice()), (20, b"hello-again".as_slice()));
                    break;
                }
                Err(RecvError::Timeout) if Instant::now() < deadline => continue,
                Err(e) => panic!("restarted peer never reachable: {e:?}"),
            }
        }
    }

    #[test]
    fn corrupt_frames_close_the_connection_without_reaching_the_inbox() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(31, true).unwrap();
        // A raw connection speaking the hello (wildcard incarnation), then a frame
        // whose CRC is wrong.
        let mut raw = raw_peer(&mesh, 31, 30, 0);
        let payload = b"corrupt";
        raw.write_all(&corrupt_frame(payload)).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout),
            "a corrupt frame must never surface"
        );
        // The reader closed the connection: our next read sees EOF.
        assert_closed(&mut raw);
        assert_eq!(
            b.stats().frames_corrupt,
            1,
            "the corrupt frame must be counted, not swallowed silently"
        );
        // A fresh, well-formed connection still works.
        let mut ok = raw_peer(&mesh, 31, 30, 0);
        ok.write_all(&frame(payload)).unwrap();
        let (from, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, got.as_slice()), (30, payload.as_slice()));
    }

    #[test]
    fn frames_queued_toward_a_dead_incarnation_never_reach_its_heir() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(50, true).unwrap();
        let b = mesh.endpoint(51, true).unwrap();
        assert_eq!(b.incarnation(), 1);
        // Queue a frame addressed to incarnation 1 — but do not flush yet, so the
        // blob sits in `pending` with its incarnation stamp while the peer dies and
        // is reborn.
        a.send(51, b"for-the-dead");
        drop(b);
        let mut b2 = mesh.endpoint(51, true).unwrap();
        assert_eq!(b2.incarnation(), 2);
        a.flush();
        // The stale blob must be dropped by the writer, not delivered to b2.
        assert_eq!(
            b2.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::Timeout),
            "a frame addressed to incarnation 1 must not reach incarnation 2"
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.stats().frames_dropped_stale < 1 {
            assert!(Instant::now() < deadline, "stale drop never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(a.stats().frames_dropped >= a.stats().frames_dropped_stale);
        // Fresh sends are stamped with incarnation 2 and flow normally.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            a.send(51, b"for-the-living");
            a.flush();
            match b2.recv_timeout(Duration::from_millis(100)) {
                Ok((from, payload)) => {
                    assert_eq!(
                        (from, payload.as_slice()),
                        (50, b"for-the-living".as_slice())
                    );
                    break;
                }
                Err(RecvError::Timeout) if Instant::now() < deadline => continue,
                Err(e) => panic!("reborn peer never reachable: {e:?}"),
            }
        }
    }

    #[test]
    fn connections_from_a_stale_sender_incarnation_are_refused() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(61, true).unwrap();
        // Register sender 60 twice: the book now says incarnation 2.
        let first = mesh.endpoint(60, true).unwrap();
        assert_eq!(first.incarnation(), 1);
        drop(first);
        let second = mesh.endpoint(60, true).unwrap();
        assert_eq!(second.incarnation(), 2);
        // A raw connection claiming to be incarnation 1 of sender 60: the reader
        // must close it at the hello, frames and all.
        let mut raw = raw_peer(&mesh, 61, 60, 1);
        let payload = b"ghost";
        raw.write_all(&frame(payload)).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::Timeout),
            "frames from a stale incarnation must never surface"
        );
        assert_closed(&mut raw);
        // The *current* incarnation is accepted.
        let mut ok = raw_peer(&mesh, 61, 60, 2);
        ok.write_all(&frame(payload)).unwrap();
        let (from, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, got.as_slice()), (60, payload.as_slice()));
    }

    #[test]
    fn oversized_length_prefix_closes_the_connection() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(41, true).unwrap();
        let mut raw = raw_peer(&mesh, 41, 40, 0);
        raw.write_all(&(u32::MAX).to_le_bytes()).unwrap(); // absurd length
        raw.write_all(&0u32.to_le_bytes()).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout)
        );
        assert_closed(&mut raw);
        assert_eq!(b.stats().frames_corrupt, 1);
    }

    /// The stale-connection bug: a writer whose open connection was dialed to the
    /// peer's previous life used to write the first batch after the restart into the
    /// dead socket (no error, frames gone) and resume only a back-off later.
    #[test]
    fn the_first_frame_flushed_after_a_peer_restart_arrives() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(70, true).unwrap();
        let mut b = mesh.endpoint(71, true).unwrap();
        a.send(71, b"before");
        a.flush();
        b.recv_timeout(Duration::from_secs(5))
            .expect("connection established");
        drop(b);
        let mut b2 = mesh.endpoint(71, true).unwrap();
        a.send(71, b"after");
        a.flush();
        let (from, payload) = b2
            .recv_timeout(Duration::from_secs(5))
            .expect("the first frame after the restart must not be lost");
        assert_eq!((from, payload.as_slice()), (70, b"after".as_slice()));
        assert_eq!(a.stats().frames_dropped, 0);
    }

    #[test]
    fn parse_frames_stops_at_an_incomplete_frame_and_flags_a_corrupt_one() {
        let mut stream = Vec::new();
        for i in 0u8..3 {
            stream.extend_from_slice(&frame(&[i; 10]));
        }
        let whole = stream.len();
        // Cut inside the third frame's header, then inside its payload: two frames
        // come out, the third stays for the next read, nothing is corrupt.
        for cut in [2 * 18 + 3, 2 * 18 + 12] {
            let mut batch = Batch::new();
            assert_eq!(parse_frames(&stream[..cut], 9, &mut batch), (36, false));
            assert_eq!(batch, vec![(9, vec![0; 10]), (9, vec![1; 10])]);
        }
        let mut batch = Batch::new();
        assert_eq!(parse_frames(&stream, 9, &mut batch), (whole, false));
        assert_eq!(batch.len(), 3);
        // A corrupt frame in the middle: the one before it is taken, it is not.
        stream[18 + 8] ^= 1;
        let mut batch = Batch::new();
        assert_eq!(parse_frames(&stream, 9, &mut batch), (18, true));
        assert_eq!(batch, vec![(9, vec![0; 10])]);
    }

    #[test]
    fn frames_split_across_reads_are_reassembled() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(81, true).unwrap();
        let mut raw = raw_peer(&mesh, 81, 80, 0);
        let stream = [frame(b"first"), frame(b"second"), frame(b"third")].concat();
        // One write ends inside the second frame's header, the next inside the third
        // frame's payload; each waits until the reader has taken the previous one.
        let second_header = frame(b"first").len() + 5;
        let third_payload = stream.len() - 2;
        raw.write_all(&stream[..second_header]).unwrap();
        let (_, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, b"first");
        raw.write_all(&stream[second_header..third_payload])
            .unwrap();
        let (_, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, b"second");
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(RecvError::Timeout),
            "an incomplete frame must not surface"
        );
        raw.write_all(&stream[third_payload..]).unwrap();
        let (_, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, b"third");
    }

    #[test]
    fn a_header_straddling_the_read_buffer_boundary_is_reassembled() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(83, true).unwrap();
        let mut raw = raw_peer(&mesh, 83, 82, 0);
        // The first frame ends 4 bytes short of the buffer's end, so the second
        // frame's header lies across it whenever a read fills the buffer; then more
        // than another buffer's worth of small frames, all in one write.
        let mut payloads = vec![vec![0xAB; READ_BUF - 4 - FRAME_HEADER]];
        payloads.extend((0..3_000u32).map(|i| i.to_le_bytes().repeat(6)));
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        raw.write_all(&stream).unwrap();
        for expected in &payloads {
            let (_, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&got, expected);
        }
        assert_eq!(b.stats().frames_corrupt, 0);
    }

    #[test]
    fn a_frame_larger_than_the_read_buffer_arrives_intact() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(84, true).unwrap();
        let mut b = mesh.endpoint(85, true).unwrap();
        let big: Vec<u8> = (0..5 * READ_BUF + 123).map(|i| (i % 251) as u8).collect();
        a.send(85, b"small-before");
        a.send(85, &big);
        a.send(85, b"small-after");
        a.flush();
        for expected in [b"small-before".as_slice(), &big, b"small-after"] {
            let (from, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, 84);
            assert!(got == expected, "a {}-byte frame differs", expected.len());
        }
        assert_eq!(b.stats().frames_received, 3);
    }

    #[test]
    fn a_thousand_frames_in_one_flush_arrive_in_order() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(86, true).unwrap();
        let mut b = mesh.endpoint(87, true).unwrap();
        for i in 0u64..1_000 {
            a.send(87, &i.to_le_bytes());
        }
        a.flush();
        assert_eq!(a.stats().flushes, 1);
        for i in 0u64..1_000 {
            let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(payload, i.to_le_bytes());
        }
        assert_eq!(b.stats().frames_received, 1_000);
    }

    #[test]
    fn a_corrupt_frame_mid_burst_delivers_what_preceded_it_and_nothing_after() {
        let mesh = TcpMesh::new();
        let mut b = mesh.endpoint(89, true).unwrap();
        let mut raw = raw_peer(&mesh, 89, 88, 0);
        let mut burst = Vec::new();
        for i in 0u8..5 {
            burst.extend_from_slice(&frame(&[i; 32]));
        }
        burst.extend_from_slice(&corrupt_frame(&[5; 32]));
        for i in 6u8..11 {
            burst.extend_from_slice(&frame(&[i; 32]));
        }
        raw.write_all(&burst).unwrap();
        for i in 0u8..5 {
            let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!((from, payload), (88, vec![i; 32]));
        }
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout),
            "nothing after the corrupt frame may surface"
        );
        assert_closed(&mut raw);
        assert_eq!(b.stats().frames_corrupt, 1);
        assert_eq!(b.stats().frames_received, 5);
    }

    /// The socket buffers are the only queue: a flush toward a peer that accepted but
    /// does not read blocks once they are full and counts the stall, then finishes —
    /// every frame delivered, in order — once the peer reads.
    #[test]
    fn a_flush_toward_a_peer_that_does_not_read_blocks_until_it_does() {
        let mesh = TcpMesh::new();
        let mut a = mesh.endpoint(90, true).unwrap();
        let stats = Arc::clone(&a.stats);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        mesh.book.register(91, listener.local_addr().unwrap());
        // 16 MiB: several times what loopback buffers hold while nobody reads.
        let payloads: Vec<Vec<u8>> = (0..256u32)
            .map(|i| i.to_le_bytes().repeat(16 << 10))
            .collect();
        std::thread::scope(|scope| {
            let flusher = scope.spawn(|| {
                for payload in &payloads {
                    a.send(91, payload);
                }
                a.flush();
            });
            let (mut raw, _) = listener.accept().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while stats.flush_stalls.load(Ordering::Relaxed) == 0 {
                assert!(
                    Instant::now() < deadline,
                    "the write never found the buffers full"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(!flusher.is_finished(), "the flush must wait for the reader");
            let mut hello = [0u8; HELLO_LEN];
            raw.read_exact(&mut hello).unwrap();
            assert_eq!(
                (&hello[..4], &hello[4..12]),
                (&HELLO_MAGIC[..], &90u64.to_le_bytes()[..])
            );
            let mut stream = vec![0u8; payloads.iter().map(|p| FRAME_HEADER + p.len()).sum()];
            raw.read_exact(&mut stream).unwrap();
            let mut at = 0;
            for expected in &payloads {
                let (got, end) = read_frame(&stream, at).unwrap();
                assert!(
                    got == expected.as_slice(),
                    "frames arrive whole and in order"
                );
                at = end;
            }
            flusher.join().unwrap();
        });
        assert_eq!(a.stats().flush_stalls, 1);
        assert_eq!(a.stats().frames_dropped, 0);
    }

    /// Dropping an endpoint wakes its blocked `accept`: fifty endpoints come and go
    /// within a generous bound, and each one's port refuses connections once it is
    /// dropped — a missed wake-up fails here instead of hanging.
    #[test]
    fn dropping_an_endpoint_stops_its_accept_thread_and_closes_its_port() {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mesh = TcpMesh::new();
            for _ in 0..50 {
                let endpoint = mesh.endpoint(95, true).unwrap();
                let addr = endpoint.addr;
                drop(endpoint);
                assert!(TcpStream::connect(addr).is_err(), "{addr} still accepts");
            }
            done_tx.send(()).unwrap();
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("an endpoint drop never returned"),
            _ => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

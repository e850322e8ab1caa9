//! The per-node ops plane: a tiny TCP server exposing metrics, status
//! and a live TWFR trace stream — plus the tailer that consumes it.
//!
//! Zero dependencies by necessity (the workspace builds offline), so
//! the HTTP here is deliberately minimal: request = first line + blank
//! line, response = status line, `Content-Length`, `Connection: close`.
//! That subset is enough for `curl`, Prometheus scrapers and the
//! [`http_get`] helper, and nothing else is promised.
//!
//! Endpoints:
//!
//! | path       | payload                                                |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the node's [`Registry`]  |
//! | `/status`  | JSON node status (host-provided callback)              |
//! | `/healthz` | `200 ok` / `503 unhealthy` (host-provided callback)    |
//! | `/trace`   | endless `application/octet-stream` of TWFR bytes       |
//!
//! `/trace` ships the *same* framing the flight recorder writes to
//! disk — header then CRC'd segments ([`crate::recorder`]) — so the
//! live tailer decodes it with the *same* [`StreamReader`] the file
//! loader uses: one reader, one torn-stream contract, proven by test.
//!
//! The hot path never blocks on an operator: the protocol thread's
//! [`TraceSink::record`] pushes into a bounded in-memory buffer; whole
//! segments are encoded and fanned out outside the lock, and a
//! subscriber that cannot keep up is disconnected (and counted) rather
//! than waited for.

// tw-lint: allow-file(actor-io) -- the ops server IS the module that owns the
// node's observability sockets: it runs host-side on its own threads, never
// inside a simulated actor, and talking to operators is its entire purpose.

use crate::export::render_labeled;
use crate::metrics::Registry;
use crate::recorder::{encode_header, encode_segment, HEADER_LEN, MAX_SEGMENT_EVENTS};
use crate::recording::{Damage, LoadError, StreamHeader, StreamReader};
use crate::trace::{TraceEvent, TraceSink};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

/// Segments a subscriber may have queued before it is declared slow
/// and cut off (each segment is at most `capacity` events).
const SUBSCRIBER_QUEUE: usize = 64;
/// Largest HTTP request head the server will buffer before giving up.
const MAX_REQUEST_HEAD: usize = 4096;
/// Largest HTTP response head the tailer will buffer before giving up.
const MAX_RESPONSE_HEAD: usize = 8192;
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_IDLE: StdDuration = StdDuration::from_millis(5);
/// How often a `/trace` connection wakes to check for shutdown.
const TRACE_IDLE: StdDuration = StdDuration::from_millis(100);

// ---------------------------------------------------------------------------
// StreamSink — the live counterpart of the flight recorder
// ---------------------------------------------------------------------------

struct SinkInner {
    buf: Vec<TraceEvent>,
    subs: Vec<SyncSender<Vec<u8>>>,
}

/// A [`TraceSink`] that fans TWFR-framed segments out to live
/// subscribers — the wire twin of [`crate::recorder::FlightRecorder`].
///
/// Buffers up to `capacity` events, then encodes them as one segment
/// (outside the lock) and offers the bytes to every subscriber without
/// blocking. A subscriber whose queue is full is dropped and counted in
/// [`StreamSink::shed_subscribers`]; the protocol thread never waits.
/// View installations force a spill, mirroring the recorder, so a
/// subscriber's picture is current through the last membership change.
pub struct StreamSink {
    header: [u8; HEADER_LEN],
    capacity: usize,
    inner: Mutex<SinkInner>,
    shed: AtomicU64,
}

impl StreamSink {
    /// A sink streaming under `header` (the TWFR header every
    /// subscriber receives first), spilling every `capacity` events.
    pub fn new(header: StreamHeader, capacity: usize) -> Self {
        StreamSink {
            header: encode_header(&header),
            capacity: capacity.clamp(1, MAX_SEGMENT_EVENTS),
            inner: Mutex::new(SinkInner {
                buf: Vec::new(),
                subs: Vec::new(),
            }),
            shed: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SinkInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attach a subscriber. The first bytes on the channel are the TWFR
    /// header; after that, whole segments from the subscription point
    /// on — joining mid-run is always a valid stream start.
    pub fn subscribe(&self) -> Receiver<Vec<u8>> {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_QUEUE);
        tx.try_send(self.header.to_vec())
            .expect("fresh subscriber queue cannot be full");
        self.lock().subs.push(tx);
        rx
    }

    /// Subscribers disconnected for falling behind since creation.
    pub fn shed_subscribers(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Events buffered toward the next segment.
    pub fn buffered(&self) -> usize {
        self.lock().buf.len()
    }

    /// Encode and fan out whatever is buffered as one segment now.
    pub fn flush(&self) {
        let events = std::mem::take(&mut self.lock().buf);
        self.broadcast(&events);
    }

    fn broadcast(&self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        // Encoding happens outside the lock; only the non-blocking
        // try_send runs under it.
        let bytes = encode_segment(events);
        let mut shed = 0u64;
        {
            let mut inner = self.lock();
            inner.subs.retain(|tx| match tx.try_send(bytes.clone()) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    shed += 1;
                    false
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        }
        if shed > 0 {
            self.shed.fetch_add(shed, Ordering::Relaxed);
        }
    }
}

impl TraceSink for StreamSink {
    fn record(&self, ev: &TraceEvent) {
        let full = {
            let mut inner = self.lock();
            // No subscribers: keep the buffer bounded but warm, so a
            // late joiner still starts at a segment boundary.
            inner.buf.push(*ev);
            inner.buf.len() >= self.capacity
        };
        if full || matches!(ev, TraceEvent::ViewInstalled { .. }) {
            self.flush();
        }
    }
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("StreamSink")
            .field("capacity", &self.capacity)
            .field("buffered", &inner.buf.len())
            .field("subscribers", &inner.subs.len())
            .field("shed", &self.shed.load(Ordering::Relaxed))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// OpsServer
// ---------------------------------------------------------------------------

/// What the ops server reads from its host node. Callbacks keep the
/// dependency arrow pointing runtime → obs: the runtime hands closures
/// down instead of obs knowing any runtime types.
#[derive(Clone)]
pub struct OpsSources {
    /// The node's metrics registry, scraped at `/metrics`.
    pub registry: Arc<Registry>,
    /// Labels stamped on every exposition sample (e.g. `pid`).
    pub labels: Vec<(String, String)>,
    /// Renders the node's JSON status document for `/status`.
    pub status_json: Arc<dyn Fn() -> String + Send + Sync>,
    /// Liveness verdict for `/healthz`.
    pub healthy: Arc<dyn Fn() -> bool + Send + Sync>,
}

/// A per-node ops endpoint: one listener, one accept thread, one thread
/// per connection. Dropping the server stops the accept loop and lets
/// in-flight `/trace` connections wind down on their next idle tick.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `addr` (port 0 picks a free port — see [`OpsServer::addr`])
    /// and start serving. `stream`, when given, backs the `/trace`
    /// endpoint; without it `/trace` is a 404.
    pub fn bind(
        addr: impl ToSocketAddrs,
        sources: OpsSources,
        stream: Option<Arc<StreamSink>>,
    ) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(format!("tw-ops-{}", addr.port()))
                .spawn(move || accept_loop(listener, sources, stream, stop))?
        };
        Ok(OpsServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for OpsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    sources: OpsSources,
    stream: Option<Arc<StreamSink>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((sock, _)) => {
                let sources = sources.clone();
                let stream = stream.clone();
                let stop = stop.clone();
                let _ = std::thread::Builder::new()
                    .name("tw-ops-conn".into())
                    .spawn(move || {
                        let _ = handle_conn(sock, &sources, stream.as_deref(), &stop);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_IDLE);
            }
            Err(_) => std::thread::sleep(ACCEPT_IDLE),
        }
    }
}

/// Read the request head (first line through blank line), bounded.
fn read_request_path(sock: &mut TcpStream) -> std::io::Result<String> {
    sock.set_read_timeout(Some(StdDuration::from_millis(500)))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_HEAD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = sock.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let line = head
        .split(|b| *b == b'\r' || *b == b'\n')
        .next()
        .unwrap_or(b"");
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(path.to_owned()),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not a GET request",
        )),
    }
}

fn respond(
    sock: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    sock.write_all(head.as_bytes())?;
    sock.write_all(body)?;
    sock.flush()
}

fn handle_conn(
    mut sock: TcpStream,
    sources: &OpsSources,
    stream: Option<&StreamSink>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let _ = sock.set_nodelay(true);
    let path = match read_request_path(&mut sock) {
        Ok(p) => p,
        Err(_) => {
            return respond(&mut sock, "400 Bad Request", "text/plain", b"bad request\n");
        }
    };
    sock.set_write_timeout(Some(StdDuration::from_secs(2)))?;
    match path.as_str() {
        "/metrics" => {
            let body = render_labeled(&sources.registry.snapshot(), &sources.labels);
            respond(
                &mut sock,
                "200 OK",
                "text/plain; version=0.0.4",
                body.as_bytes(),
            )
        }
        "/status" => {
            let body = (sources.status_json)();
            respond(&mut sock, "200 OK", "application/json", body.as_bytes())
        }
        "/healthz" => {
            if (sources.healthy)() {
                respond(&mut sock, "200 OK", "text/plain", b"ok\n")
            } else {
                respond(
                    &mut sock,
                    "503 Service Unavailable",
                    "text/plain",
                    b"unhealthy\n",
                )
            }
        }
        "/trace" => match stream {
            Some(sink) => serve_trace(sock, sink, stop),
            None => respond(
                &mut sock,
                "404 Not Found",
                "text/plain",
                b"trace streaming disabled\n",
            ),
        },
        _ => respond(&mut sock, "404 Not Found", "text/plain", b"not found\n"),
    }
}

fn serve_trace(mut sock: TcpStream, sink: &StreamSink, stop: &AtomicBool) -> std::io::Result<()> {
    sock.write_all(
        b"HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n\r\n",
    )?;
    sock.flush()?;
    let rx = sink.subscribe();
    while !stop.load(Ordering::Relaxed) {
        match rx.recv_timeout(TRACE_IDLE) {
            Ok(bytes) => {
                // A stalled peer times out here and the subscriber
                // drops; the sink then sheds it on its next broadcast.
                sock.write_all(&bytes)?;
                sock.flush()?;
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// LiveTail — the client side of /trace
// ---------------------------------------------------------------------------

/// A live subscriber to one node's `/trace` stream, decoding with the
/// same [`StreamReader`] the file loader uses.
///
/// Drive it by calling [`LiveTail::poll`] in a loop; each call returns
/// the events that arrived since the last one. When the server goes
/// away ([`LiveTail::done`]), [`LiveTail::finish`] reports how the
/// stream ended under the recording contract: a connection cut
/// mid-segment is a torn tail, exactly like a crashed recorder's file.
#[derive(Debug)]
pub struct LiveTail {
    sock: TcpStream,
    reader: StreamReader,
    /// Bytes read before the HTTP blank line has been seen.
    head: Vec<u8>,
    body_started: bool,
    done: bool,
}

impl LiveTail {
    /// Connect to a node's ops endpoint and request its trace stream.
    pub fn connect(addr: impl ToSocketAddrs, timeout: StdDuration) -> std::io::Result<LiveTail> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let mut sock = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = sock.set_nodelay(true);
        sock.write_all(b"GET /trace HTTP/1.0\r\n\r\n")?;
        sock.flush()?;
        Ok(LiveTail {
            sock,
            reader: StreamReader::new(),
            head: Vec::new(),
            body_started: false,
            done: false,
        })
    }

    /// The stream's TWFR header, once it has arrived.
    pub fn header(&self) -> Option<&StreamHeader> {
        self.reader.header()
    }

    /// True once the server closed the connection (or errored).
    pub fn done(&self) -> bool {
        self.done
    }

    /// How the stream ended (or stands right now): detected damage, a
    /// torn tail if the connection died mid-segment, `None` when clean.
    pub fn finish(&self) -> Option<Damage> {
        self.reader.finish()
    }

    /// Wait up to `wait` for more bytes and decode whatever completed.
    /// Returns an empty vector on timeout and after the stream ends;
    /// damage follows the recording contract (reported by
    /// [`LiveTail::finish`], never a panic).
    pub fn poll(&mut self, wait: StdDuration) -> Result<Vec<TraceEvent>, LoadError> {
        if self.done {
            return Ok(Vec::new());
        }
        // A zero timeout would mean "block forever" to the socket API.
        self.sock
            .set_read_timeout(Some(wait.max(StdDuration::from_millis(1))))?;
        let mut chunk = [0u8; 16 * 1024];
        match self.sock.read(&mut chunk) {
            Ok(0) => {
                self.done = true;
                Ok(Vec::new())
            }
            Ok(n) => self.ingest(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(Vec::new())
            }
            Err(_) => {
                // A reset mid-stream is the network's torn tail; the
                // reader's finish() verdict covers it.
                self.done = true;
                Ok(Vec::new())
            }
        }
    }

    fn ingest(&mut self, bytes: &[u8]) -> Result<Vec<TraceEvent>, LoadError> {
        if !self.body_started {
            self.head.extend_from_slice(bytes);
            match find_blank_line(&self.head) {
                Some(body_at) => {
                    let body = self.head.split_off(body_at);
                    self.body_started = true;
                    let events = self.reader.feed(&body)?;
                    return Ok(events);
                }
                None if self.head.len() > MAX_RESPONSE_HEAD => {
                    self.done = true;
                    return Err(LoadError::BadHeader(
                        "no HTTP header terminator within 8 KiB".into(),
                    ));
                }
                None => return Ok(Vec::new()),
            }
        }
        self.reader.feed(bytes)
    }
}

/// Offset of the first byte after the HTTP `\r\n\r\n` terminator.
fn find_blank_line(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// One-shot HTTP GET against an ops endpoint: returns the status code
/// and the response body. The convenience client behind `tw-top`'s
/// snapshot mode and the CI smoke tests.
pub fn http_get(
    addr: impl ToSocketAddrs,
    path: &str,
    timeout: StdDuration,
) -> std::io::Result<(u16, String)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut sock = TcpStream::connect_timeout(&addr, timeout)?;
    sock.set_read_timeout(Some(timeout))?;
    sock.set_write_timeout(Some(timeout))?;
    sock.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    sock.flush()?;
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw)?;
    let body_at = find_blank_line(&raw).unwrap_or(raw.len());
    let head = String::from_utf8_lossy(&raw[..body_at]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP status line")
        })?;
    let body = String::from_utf8_lossy(&raw[body_at..]).into_owned();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ClockStamp;
    use tw_proto::{Duration, HwTime, ProcessId, SyncTime, ViewId};

    fn header(pid: u16) -> StreamHeader {
        StreamHeader {
            pid: ProcessId(pid),
            team: 3,
            epsilon: Duration::ZERO,
            recovery_envelope: Duration::ZERO,
        }
    }

    fn ev(i: i64) -> TraceEvent {
        TraceEvent::DecisionSent {
            pid: ProcessId(4),
            at: ClockStamp {
                hw: HwTime(i),
                sync: SyncTime(i + 1),
            },
            send_ts: SyncTime(i + 1),
            view: ViewId::new(7, ProcessId(0)),
        }
    }

    fn sources(reg: Arc<Registry>) -> OpsSources {
        OpsSources {
            registry: reg,
            labels: vec![("pid".to_owned(), "4".to_owned())],
            status_json: Arc::new(|| "{\"up_to_date\":true}".to_owned()),
            healthy: Arc::new(|| true),
        }
    }

    #[test]
    fn endpoints_serve_metrics_status_health_and_404() {
        let reg = Arc::new(Registry::new());
        reg.counter("sends.decision").add(2);
        let srv = OpsServer::bind("127.0.0.1:0", sources(reg), None).unwrap();
        let t = StdDuration::from_secs(2);

        let (code, body) = http_get(srv.addr(), "/metrics", t).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("sends_decision_total{pid=\"4\"} 2"), "{body}");

        let (code, body) = http_get(srv.addr(), "/status", t).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{\"up_to_date\":true}");

        let (code, body) = http_get(srv.addr(), "/healthz", t).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "ok\n");

        let (code, _) = http_get(srv.addr(), "/nope", t).unwrap();
        assert_eq!(code, 404);
        // No stream sink attached → /trace is a 404, not a hang.
        let (code, _) = http_get(srv.addr(), "/trace", t).unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn unhealthy_nodes_report_503() {
        let reg = Arc::new(Registry::new());
        let mut src = sources(reg);
        src.healthy = Arc::new(|| false);
        let srv = OpsServer::bind("127.0.0.1:0", src, None).unwrap();
        let (code, body) = http_get(srv.addr(), "/healthz", StdDuration::from_secs(2)).unwrap();
        assert_eq!(code, 503);
        assert_eq!(body, "unhealthy\n");
    }

    #[test]
    fn live_tail_decodes_streamed_segments_with_the_shared_reader() {
        let reg = Arc::new(Registry::new());
        let sent = StreamHeader {
            pid: ProcessId(4),
            team: 3,
            epsilon: Duration::from_micros(11),
            recovery_envelope: Duration::from_millis(270),
        };
        let sink = Arc::new(StreamSink::new(sent, 4));
        let srv = OpsServer::bind("127.0.0.1:0", sources(reg), Some(sink.clone())).unwrap();
        let mut tail = LiveTail::connect(srv.addr(), StdDuration::from_secs(2)).unwrap();

        // Events recorded *after* the subscription arrive framed.
        std::thread::sleep(StdDuration::from_millis(50)); // let the conn subscribe
        for i in 0..8 {
            sink.record(&ev(i));
        }
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(tail.poll(StdDuration::from_millis(20)).unwrap());
            if got.len() >= 8 {
                break;
            }
        }
        assert_eq!(got, (0..8).map(ev).collect::<Vec<_>>());
        assert_eq!(tail.header(), Some(&sent), "the header arrives first");
        assert_eq!(tail.finish(), None, "clean at a segment boundary");
    }

    #[test]
    fn killing_the_server_mid_segment_reads_as_a_torn_tail() {
        let reg = Arc::new(Registry::new());
        let sink = Arc::new(StreamSink::new(header(1), 4));
        let srv = OpsServer::bind("127.0.0.1:0", sources(reg), Some(sink.clone())).unwrap();
        let mut tail = LiveTail::connect(srv.addr(), StdDuration::from_secs(2)).unwrap();
        std::thread::sleep(StdDuration::from_millis(50));
        sink.record(&ev(0));
        sink.flush();
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(tail.poll(StdDuration::from_millis(20)).unwrap());
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got, vec![ev(0)]);
        // Server dies; the tailer must notice, never panic, and report
        // a clean end (the cut landed on a segment boundary here).
        drop(srv);
        for _ in 0..100 {
            let _ = tail.poll(StdDuration::from_millis(20)).unwrap();
            if tail.done() {
                break;
            }
        }
        assert!(tail.done());
        assert_eq!(tail.finish(), None);
    }

    #[test]
    fn server_dying_mid_segment_reports_damage_never_panics() {
        // A hand-rolled /trace server that cuts the connection in the
        // middle of a segment — the wire equivalent of a recorder crash
        // mid-spill, which the real server cannot be asked to do.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut discard = [0u8; 256];
            let _ = sock.read(&mut discard); // the GET line
            sock.write_all(b"HTTP/1.0 200 OK\r\n\r\n").unwrap();
            sock.write_all(&encode_header(&header(9))).unwrap();
            let seg = encode_segment(&[ev(0), ev(1)]);
            sock.write_all(&seg).unwrap();
            let torn = encode_segment(&[ev(2), ev(3)]);
            sock.write_all(&torn[..torn.len() - 3]).unwrap();
            sock.flush().unwrap();
            // Connection drops here, mid-segment.
        });
        let mut tail = LiveTail::connect(addr, StdDuration::from_secs(2)).unwrap();
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(tail.poll(StdDuration::from_millis(10)).unwrap());
            if tail.done() {
                break;
            }
        }
        server.join().unwrap();
        while let Ok(more) = tail.poll(StdDuration::from_millis(5)) {
            if more.is_empty() && tail.done() {
                break;
            }
            got.extend(more);
        }
        assert_eq!(got, vec![ev(0), ev(1)], "intact segment survives");
        assert!(tail.done());
        assert_eq!(
            tail.finish(),
            Some(Damage::TruncatedSegment { index: 1 }),
            "the cut reads as a torn tail, same as a crashed recorder"
        );
    }

    #[test]
    fn a_stream_of_another_format_version_is_refused_by_name() {
        // A node built before the format bump serving /trace: the
        // tailer must say which version it met, not "not a recording",
        // though the version 2 header is shorter than this version's.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut discard = [0u8; 256];
            let _ = sock.read(&mut discard);
            let mut header = encode_header(&header(9));
            header[..8].copy_from_slice(b"TWFR0002");
            sock.write_all(b"HTTP/1.0 200 OK\r\n\r\n").unwrap();
            sock.write_all(&header[..20]).unwrap();
            sock.flush().unwrap();
        });
        let mut tail = LiveTail::connect(addr, StdDuration::from_secs(2)).unwrap();
        let verdict = loop {
            match tail.poll(StdDuration::from_millis(10)) {
                Ok(_) if tail.done() => panic!("stream ended without a header verdict"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        server.join().unwrap();
        assert!(matches!(&verdict, LoadError::BadHeader(why) if why.contains("format version 2;")));
        assert!(tail.header().is_none());
    }

    #[test]
    fn slow_subscribers_are_shed_not_waited_for() {
        let sink = StreamSink::new(header(0), 1);
        let rx = sink.subscribe();
        // Never drain rx: the queue fills (header took one slot), then
        // the subscriber is cut. capacity 1 → every record is a segment.
        for i in 0..(SUBSCRIBER_QUEUE as i64 + 8) {
            sink.record(&ev(i));
        }
        assert_eq!(sink.shed_subscribers(), 1);
        // Cut means the sink let go of the channel: the queue holds what
        // fitted, then the subscriber sees the end of the stream.
        assert_eq!(rx.try_iter().count(), SUBSCRIBER_QUEUE);
        assert_eq!(
            rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected)
        );
        // Recording with no subscribers stays cheap and panic-free.
        sink.record(&ev(99));
    }

    #[test]
    fn subscriber_joining_mid_stream_gets_a_valid_stream_start() {
        let sink = StreamSink::new(header(2), 2);
        // History before the join is not replayed…
        sink.record(&ev(0));
        sink.record(&ev(1));
        let rx = sink.subscribe();
        sink.record(&ev(2));
        sink.record(&ev(3));
        let mut reader = StreamReader::new();
        let mut events = Vec::new();
        while let Ok(bytes) = rx.try_recv() {
            events.extend(reader.feed(&bytes).unwrap());
        }
        // …but the stream still begins with a header and decodes clean.
        assert_eq!(reader.header().map(|h| h.pid), Some(ProcessId(2)));
        assert_eq!(events, vec![ev(2), ev(3)]);
        assert_eq!(reader.finish(), None);
    }
}

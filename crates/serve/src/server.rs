//! Threaded TCP front: admission control, worker pool, deadlines,
//! graceful shutdown.
//!
//! ```text
//!  accept thread ──► connection threads (1/conn, read + decode)
//!                          │  try_push            ▲ write responses
//!                          ▼                      │ (shared writer)
//!                    bounded queue ──► worker pool (N, run handlers)
//! ```
//!
//! Design points:
//!
//! * **Backpressure is explicit.** The admission queue is bounded;
//!   when it is full the *connection thread* answers
//!   [`ResponsePayload::Rejected`] with a retry hint immediately —
//!   overload degrades into fast, structured rejections instead of
//!   unbounded queueing and blown deadlines.
//! * **Deadlines are cooperative.** A request's deadline is checked at
//!   dequeue (cheap drop of work that is already too late) and then
//!   threaded into the handlers, which poll it between analysis stages
//!   and — for closed-loop simulations — every few thousand simulated
//!   cycles ([`didt_core::control::DEADLINE_CHECK_INTERVAL`]).
//! * **One FIFO queue.** Workers block on the admission queue and
//!   serve one job at a time in arrival order. No worker holds queued
//!   jobs privately, so an idle worker always takes the oldest waiting
//!   request.
//! * **Workers never die.** Handler panics are caught per request
//!   ([`std::panic::catch_unwind`]), counted, and answered as
//!   `internal` errors; the pool keeps its width for the life of the
//!   server (protocol tests assert this by hammering the server with
//!   malformed traffic and then checking it still answers).
//! * **Shutdown drains.** [`Server::shutdown`] stops the accept loop
//!   and the connection readers, closes the queue, lets the workers
//!   finish every admitted job (responses still reach their sockets
//!   through the shared writers), then joins everything.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use didt_telemetry::{Json, MetricsRegistry};

use crate::protocol::{
    write_frame, ErrorCode, FrameError, FrameReader, Request, Response, ResponsePayload,
    MAX_FRAME_LEN,
};
use crate::service::Service;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool width.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects.
    pub queue_depth: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline_ms: Option<u64>,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Backoff hint sent with rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: didt_bench::default_threads().clamp(1, 8),
            queue_depth: 64,
            default_deadline_ms: None,
            max_frame_len: MAX_FRAME_LEN,
            retry_after_ms: 50,
        }
    }
}

/// How often connection readers wake up to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// Historical cap on a same-calibration batch drain. The worker pool no
/// longer drains batches — it serves one job at a time in FIFO order —
/// so nothing in the server reads this. It stays public because the
/// repository benchmark (`perfbench/src/wire.rs`) reads it and sizes
/// its pipelined Characterize client window from it.
pub const BATCH_MAX: usize = 8;

// ---------------------------------------------------------------------------
// Bounded queue
// ---------------------------------------------------------------------------

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: non-blocking producers (admission either
/// succeeds instantly or reports "full"), blocking consumers.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    takers: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            takers: Condvar::new(),
            capacity,
        }
    }

    /// Admit `item`, or return it when the queue is full or closed.
    /// On success returns the occupancy after the push.
    fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.takers.notify_one();
        Ok(depth)
    }

    /// Occupancy right now.
    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Block for the next item; `None` once the queue is closed *and*
    /// drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.takers.wait(inner).expect("queue poisoned");
        }
    }

    /// Stop admitting; wake every blocked consumer.
    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.takers.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Write half of a connection, shared between the connection thread
/// (rejections, protocol errors) and workers (results).
type ConnWriter = Arc<Mutex<TcpStream>>;

fn send_response(writer: &ConnWriter, response: &Response) -> std::io::Result<()> {
    let json = response.to_json();
    let mut stream = writer.lock().expect("writer poisoned");
    write_frame(&mut *stream, &json)
}

struct Job {
    request: Request,
    deadline: Option<Instant>,
    enqueued: Instant,
    writer: ConnWriter,
}

struct Shared {
    service: Service,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    config: ServeConfig,
}

/// Final counters returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests answered.
    pub served: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Deadline expiries (queue or simulation).
    pub deadline_exceeded: u64,
    /// Undecodable frames/requests.
    pub protocol_errors: u64,
    /// Handler panics caught by workers.
    pub worker_panics: u64,
}

/// A running dI/dt characterization server.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind, spawn the pool, and start accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failure.
    pub fn start(config: ServeConfig, service: Service) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stats = service.stats();
        stats
            .workers
            .store(config.workers as u64, Ordering::Relaxed);
        stats
            .queue_capacity
            .store(config.queue_depth as u64, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            service,
            shutdown: AtomicBool::new(false),
            config,
        });

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("didt-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("didt-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
            conns,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain admitted work, join every thread.
    #[must_use]
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Connection readers poll the flag every READ_POLL and exit;
        // join them before closing the queue so no admission races the
        // close.
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns poisoned"));
        for handle in conns {
            let _ = handle.join();
        }
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let stats = self.shared.service.stats();
        ShutdownReport {
            served: stats.served.load(Ordering::Relaxed),
            rejected: stats.rejected.load(Ordering::Relaxed),
            deadline_exceeded: stats.deadline_exceeded.load(Ordering::Relaxed),
            protocol_errors: stats.protocol_errors.load(Ordering::Relaxed),
            worker_panics: stats.worker_panics.load(Ordering::Relaxed),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("didt-serve-conn".to_string())
            .spawn(move || connection_loop(&shared, stream));
        if let Ok(handle) = handle {
            conns.lock().expect("conns poisoned").push(handle);
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer: ConnWriter = Arc::new(Mutex::new(write_half));
    let mut reader = FrameReader::new(stream);
    let stats = shared.service.stats();
    // The flag is checked before every frame, not only when a read
    // times out: a client that sends more often than READ_POLL (a
    // router's health prober, say) must not hold shutdown open.
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut should_abort = || shared.shutdown.load(Ordering::SeqCst);
        match reader.read_frame(shared.config.max_frame_len, &mut should_abort) {
            Ok(json) => match Request::from_json(&json) {
                Ok(request) => admit(shared, request, &writer),
                Err(message) => {
                    // The frame itself was well-formed, so the stream
                    // is still in sync — answer and keep reading.
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let id = json.get("id").and_then(Json::as_u64).unwrap_or(0);
                    let _ = send_response(
                        &writer,
                        &Response::error(id, ErrorCode::BadRequest, message),
                    );
                }
            },
            Err(FrameError::Json(e)) => {
                // Bad payload, intact framing: recoverable.
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send_response(
                    &writer,
                    &Response::error(0, ErrorCode::BadRequest, format!("bad payload: {e}")),
                );
            }
            Err(FrameError::TooLarge { len, max }) => {
                // The oversized payload was never read, so the stream
                // can't be resynchronized — answer, then hang up.
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send_response(
                    &writer,
                    &Response::error(
                        0,
                        ErrorCode::BadRequest,
                        format!("frame of {len} bytes exceeds limit of {max}"),
                    ),
                );
                break;
            }
            Err(FrameError::Truncated { .. }) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Closed | FrameError::Aborted | FrameError::Io(_)) => break,
        }
    }
}

fn admit(shared: &Arc<Shared>, request: Request, writer: &ConnWriter) {
    let id = request.id;
    let deadline = request
        .deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        request,
        deadline,
        enqueued: Instant::now(),
        writer: Arc::clone(writer),
    };
    if shared.queue.try_push(job).is_err() {
        let stats = shared.service.stats();
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        MetricsRegistry::global().counter("serve.rejected").incr();
        let _ = send_response(
            writer,
            &Response::rejected(id, shared.config.retry_after_ms, shared.queue.len() as u64),
        );
    }
}

/// Serve admitted jobs in FIFO order until the queue is closed and
/// drained.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        process_job(shared, job);
    }
}

/// Run one dequeued job: queue-wait accounting, deadline check, the
/// handler under `catch_unwind`, response write.
fn process_job(shared: &Arc<Shared>, job: Job) {
    let stats = shared.service.stats();
    let metrics = MetricsRegistry::global();
    let now = Instant::now();
    metrics
        .histogram("serve.queue_wait_ns")
        .record_duration(now.duration_since(job.enqueued));
    let id = job.request.id;
    let response = if job.deadline.is_some_and(|d| now >= d) {
        stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        metrics.counter("serve.deadline_exceeded").incr();
        Response::error(
            id,
            ErrorCode::DeadlineExceeded,
            "deadline expired while queued",
        )
    } else {
        let service = &shared.service;
        let request = &job.request;
        let deadline = job.deadline;
        match catch_unwind(AssertUnwindSafe(|| service.handle(request, deadline))) {
            Ok(response) => response,
            Err(_) => {
                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                metrics.counter("serve.worker_panics").incr();
                Response::error(id, ErrorCode::Internal, "request handler panicked")
            }
        }
    };
    stats.served.fetch_add(1, Ordering::Relaxed);
    if matches!(response.payload, ResponsePayload::Error { .. }) {
        metrics.counter("serve.errors").incr();
    }
    // A peer that vanished mid-request is its own problem; the
    // worker moves on.
    let _ = send_response(&job.writer, &response);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_rejects_when_full_and_drains_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3));
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_pops_in_fifo_order() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        for v in [5, 1, 4, 2, 3] {
            q.try_push(v).unwrap();
        }
        assert_eq!(q.pop(), Some(5));
        q.try_push(9).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(4));
        q.close();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_wakes_blocked_consumer_on_close() {
        let q: Arc<BoundedQueue<u8>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let taker = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(taker.join().unwrap(), None);
    }
}

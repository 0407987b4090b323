//! Client side of the serve workloads: a framed connection that can
//! keep several requests in flight, pre-rendered request text, and the
//! latency log the end-to-end metrics are computed from.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use didt_serve::{FrameReader, Request, Response, MAX_FRAME_LEN};
use didt_telemetry::Json;

/// How long a connection waits for one response before the run is
/// declared hung.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection. Requests are written whole, responses are
/// read with the program's own [`FrameReader`].
pub struct Conn {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    buf: Vec<u8>,
    /// Request bytes written (frame headers included).
    pub bytes_out: u64,
}

impl Conn {
    /// Connect with `TCP_NODELAY` (requests are latency-bound).
    ///
    /// # Errors
    ///
    /// Propagates connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: FrameReader::new(stream),
            buf: Vec::new(),
            bytes_out: 0,
        })
    }

    /// Write one request frame, rendering `req`'s id into its text.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send(&mut self, req: &Rendered, id: u64) -> std::io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        req.write_text(id, &mut self.buf);
        let len = u32::try_from(self.buf.len() - 4).expect("frame fits u32");
        self.buf[..4].copy_from_slice(&len.to_be_bytes());
        self.writer.write_all(&self.buf)?;
        self.bytes_out += self.buf.len() as u64;
        Ok(())
    }

    /// Read and decode the next response.
    ///
    /// # Errors
    ///
    /// Transport or decode failures, and [`RESPONSE_TIMEOUT`] without a
    /// response.
    pub fn recv(&mut self) -> Result<Response, String> {
        let give_up = Instant::now() + RESPONSE_TIMEOUT;
        let mut abort = || Instant::now() >= give_up;
        let json = self
            .reader
            .read_frame(MAX_FRAME_LEN, &mut abort)
            .map_err(|e| format!("read response: {e}"))?;
        Response::from_json(&json).map_err(|e| format!("decode response: {e}"))
    }
}

const ID_PREFIX: &str = "{\n  \"id\": ";

/// A request rendered once; only its id changes per send. The program's
/// renderer puts `id` first, so the text is split around it. Should a
/// future renderer move it, every send falls back to a full render.
#[derive(Debug, Clone)]
pub struct Rendered {
    request: Request,
    tail: Option<String>,
}

impl Rendered {
    /// Render `request` (its id is replaced at send time).
    #[must_use]
    pub fn new(request: Request) -> Rendered {
        let mut probe = request.clone();
        probe.id = 0;
        let text = probe.to_json().render();
        let head = format!("{ID_PREFIX}0,");
        let tail = text
            .starts_with(&head)
            .then(|| text[ID_PREFIX.len() + 1..].to_string());
        Rendered { request, tail }
    }

    /// The request itself.
    #[must_use]
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// Append the request's JSON text with `id` to `out`.
    pub fn write_text(&self, id: u64, out: &mut Vec<u8>) {
        if let Some(tail) = &self.tail {
            out.extend_from_slice(ID_PREFIX.as_bytes());
            out.extend_from_slice(id.to_string().as_bytes());
            out.extend_from_slice(tail.as_bytes());
        } else {
            let mut req = self.request.clone();
            req.id = id;
            out.extend_from_slice(req.to_json().render().as_bytes());
        }
    }
}

/// Request latency classes of the serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `ClosedLoop`, live or replayed.
    ClosedLoop,
    /// `Characterize` and streaming-session requests.
    Characterize,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds since the timed phase started.
    pub done_s: f64,
    /// Client-observed latency, milliseconds.
    pub latency_ms: f64,
    /// Latency class.
    pub class: Class,
}

/// Requests of one timed phase.
#[derive(Debug, Default)]
pub struct LoadLog {
    /// Completed requests (correct or not).
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Errors, rejections, wrong answers, transport failures.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Wall seconds of the phase(s), drain included.
    pub elapsed_s: f64,
}

impl LoadLog {
    /// Append a later phase: its completion times shift past this
    /// log's elapsed time and the elapsed times add.
    pub fn append_phase(&mut self, mut later: LoadLog) {
        for s in &mut later.samples {
            s.done_s += self.elapsed_s;
        }
        self.elapsed_s += later.elapsed_s;
        later.elapsed_s = 0.0;
        self.merge(later);
    }

    /// The phases of one kind, one after another.
    #[must_use]
    pub fn joined(phases: Vec<LoadLog>) -> LoadLog {
        let mut log = LoadLog::default();
        for p in phases {
            log.append_phase(p);
        }
        log
    }

    /// Put the end-to-end metrics of an untraced serve run; a round is
    /// `round` completed requests.
    pub fn put_e2e(&self, out: &mut crate::Outcome, setup_s: &[f64], round: usize) {
        use crate::stats::{count_above, median, quantile};
        let lat = self.latencies(None);
        out.put("setup_s", median(setup_s));
        out.put("wall_s", median(&self.round_walls(round)));
        out.put("ops_per_s", self.ops_per_s());
        out.put("latency_p50_ms", median(&lat));
        out.put("latency_p99_ms", quantile(&lat, 0.99));
        out.put("peak_rss_mb", crate::host::peak_rss_mb());
        out.detail("latency_samples", Json::num(lat.len() as f64));
        out.detail(
            "samples_beyond_p99",
            Json::num(count_above(&lat, 0.99) as f64),
        );
        out.detail("load", self.summary());
        out.detail(
            "setup_s_samples",
            Json::Arr(setup_s.iter().map(|&s| Json::num(s)).collect()),
        );
    }

    /// Fold another connection's log into this one.
    pub fn merge(&mut self, other: LoadLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes_out += other.bytes_out;
        for f in other.failures {
            self.note_failure(f);
        }
    }

    /// Count one failure, keeping the first few messages.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.note_failure(why.into());
    }

    fn note_failure(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Latencies (ms) of `class`, or of every request for `None`.
    #[must_use]
    pub fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Wall seconds per round of `round` completions: the completion
    /// stream is cut into consecutive runs of `round` requests.
    #[must_use]
    pub fn round_walls(&self, round: usize) -> Vec<f64> {
        let mut done: Vec<f64> = self.samples.iter().map(|s| s.done_s).collect();
        done.sort_by(f64::total_cmp);
        let mut out = Vec::new();
        let mut start = 0.0;
        let mut i = round;
        while i <= done.len() {
            out.push(done[i - 1] - start);
            start = done[i - 1];
            i += round;
        }
        out
    }

    /// Correctly answered requests per second over the phase(s).
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let ok = (self.samples.len() as u64).saturating_sub(self.failed) as f64;
        if self.elapsed_s > 0.0 {
            ok / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Summary for the run report.
    #[must_use]
    pub fn summary(&self) -> Json {
        Json::obj(vec![
            ("attempted", Json::num(self.attempted as f64)),
            ("completed", Json::num(self.samples.len() as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
            ("request_bytes", Json::num(self.bytes_out as f64)),
        ])
    }
}

/// Process-global and per-service serve counters at one instant; two
/// snapshots bracket a timed phase and their difference is read.
#[derive(Debug, Clone, Default)]
pub struct ServeSnapshot {
    /// `serve.queue_wait_ns` buckets.
    pub queue_wait: Vec<(u64, u64)>,
    /// `serve.handle_ns` (count, sum ns).
    pub handle: (u64, u64),
    /// `serve.queue_wait_ns` (count, sum ns).
    pub queue: (u64, u64),
    /// Per service: (batch groups, batched requests, served, cache hits,
    /// cache requests).
    pub services: Vec<[u64; 5]>,
}

impl ServeSnapshot {
    /// Read the counters of `services` and the global registry.
    #[must_use]
    pub fn take(services: &[&didt_serve::Service]) -> ServeSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let reg = didt_telemetry::MetricsRegistry::global();
        let qw = reg.histogram("serve.queue_wait_ns");
        let h = reg.histogram("serve.handle_ns");
        ServeSnapshot {
            queue_wait: qw.nonzero_buckets(),
            handle: (h.count(), h.sum()),
            queue: (qw.count(), qw.sum()),
            services: services
                .iter()
                .map(|s| {
                    let st = s.stats();
                    let act = s.context().cache_activity();
                    [
                        st.batch_groups.load(Relaxed),
                        st.batch_requests.load(Relaxed),
                        st.served.load(Relaxed),
                        act.iter().map(didt_telemetry::CacheClassRecord::hits).sum(),
                        act.iter().map(|c| c.requests).sum(),
                    ]
                })
                .collect(),
        }
    }

    /// `self − before`, field by field.
    #[must_use]
    pub fn since(&self, before: &ServeSnapshot) -> ServeSnapshot {
        ServeSnapshot {
            queue_wait: crate::stats::bucket_delta(&before.queue_wait, &self.queue_wait),
            handle: (
                self.handle.0 - before.handle.0,
                self.handle.1 - before.handle.1,
            ),
            queue: (self.queue.0 - before.queue.0, self.queue.1 - before.queue.1),
            services: self
                .services
                .iter()
                .zip(&before.services)
                .map(|(a, b)| std::array::from_fn(|i| a[i] - b[i]))
                .collect(),
        }
    }

    /// Mean of a (count, sum ns) pair, in ms.
    #[must_use]
    pub fn mean_ms(pair: (u64, u64)) -> f64 {
        if pair.0 == 0 {
            0.0
        } else {
            pair.1 as f64 / pair.0 as f64 / 1e6
        }
    }

    /// Summed memo-cache hit ratio over the services.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let (h, r) = self
            .services
            .iter()
            .fold((0, 0), |(h, r), s| (h + s[3], r + s[4]));
        h as f64 / r.max(1) as f64
    }

    /// Mean batch fill against [`didt_serve::BATCH_MAX`].
    #[must_use]
    pub fn batch_fill(&self) -> f64 {
        let (g, n) = self
            .services
            .iter()
            .fold((0, 0), |(g, n), s| (g + s[0], n + s[1]));
        if g == 0 {
            0.0
        } else {
            n as f64 / (g * didt_serve::BATCH_MAX as u64) as f64
        }
    }

    /// Put the queue-wait, batch and unattributed metrics: `client_ms`
    /// is the mean client latency, `codec_ms` the codec cost per request.
    pub fn put_serve_metrics(&self, out: &mut crate::Outcome, client_ms: f64, codec_ms: f64) {
        let q = |p| crate::stats::bucket_quantile_upper(&self.queue_wait, p) / 1e6;
        out.put("serve.queue_wait_ms_p50", q(0.5));
        out.put("serve.queue_wait_ms_p99", q(0.99));
        out.put("serve.batch.mean_fill", self.batch_fill());
        let attributed = codec_ms + Self::mean_ms(self.queue) + Self::mean_ms(self.handle);
        out.put(
            "serve.unattributed_frac",
            if client_ms > 0.0 {
                1.0 - attributed / client_ms
            } else {
                0.0
            },
        );
    }
}

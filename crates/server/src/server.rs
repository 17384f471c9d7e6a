//! The resident service: socket handling, routing, and the JSON wire
//! format.
//!
//! Routes:
//!
//! | Route | Semantics |
//! |---|---|
//! | `GET /healthz` | liveness (`ok`) |
//! | `GET /metrics` | live Prometheus scrape of the global registry |
//! | `POST /v1/jobs` | submit a request: cache hit → the artifact now; miss → a job id to poll |
//! | `GET /v1/jobs/<id>` | job status (`queued`/`running`/`done`/`error`), with the artifact once done |
//! | `GET /v1/artifacts/<hash>` | the raw cached document |
//!
//! Submissions are answered from the cache whenever possible: the body
//! is canonicalized, hashed ([`JobRequest::request_hash`]) and looked
//! up before any simulation work. Only a miss reaches the job queue.
//!
//! **Connections.** `HANDLERS` (2) threads each block in `accept()` and
//! answer the connection they get inline: clients are few (curl, CI, a
//! dashboard), requests are tiny, and the real work is serialized
//! behind the single runner anyway, so no thread is spawned per
//! connection. Every accepted socket gets `SOCKET_TIMEOUT` (2 s) on each
//! read and write: a client that stalls that long is dropped, so a
//! silent client holds a handler for one timeout at most. Dropped
//! connections and failed accepts are counted in
//! `ethpos_server_dropped_connections_total{reason}`. A reply that
//! embeds a whole document (a first hit, a done job, an artifact) is
//! built on a short-lived scoped thread: it allocates several times the
//! document's size, and glibc gives each long-lived thread a malloc
//! arena of its own, where those freed megabytes would stay resident
//! once per handler.
//!
//! **The hit path.** The first hit of an entry renders its complete
//! `200` response once into `HitReplies`, a memo bounded by
//! `HIT_REPLY_BUDGET` bytes (oldest evicted first; a larger reply is
//! served, never stored). A repeat hit is parse → hash → lookup → one
//! write. Every route writes head and body at once.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use ethpos_core::{JobRequest, RequestError};
use serde_json::Value;

use crate::cache::ArtifactCache;
use crate::http::{self, HttpError, Request};
use crate::jobs::{default_executor, spawn_runner, Executor, JobId, JobQueue, JobStatus};

/// Deployment knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4280` (port 0 picks a free one).
    pub addr: String,
    /// Artifact cache directory (created if absent).
    pub cache_dir: String,
    /// Worker threads handed to each job (`0` = all cores).
    pub threads: usize,
    /// Maximum number of waiting jobs before submissions get 429.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:4280".into(),
            cache_dir: ".ethpos-cache".into(),
            threads: 0,
            queue_depth: 64,
        }
    }
}

/// Handler threads of [`Server::serve`], each accepting and answering
/// one connection at a time. Each long-lived thread holds a glibc malloc
/// arena, of which a process gets 8 per core; once all are held, the
/// scoped threads that build document replies share them round-robin
/// and leave freed megabytes in every one. At 4 handlers the five
/// servers a benchmark process keeps got there on two cores and its
/// `server_miss` peak RSS rose by a quarter; at 2 it rose 5 %.
pub(crate) const HANDLERS: usize = 2;

/// No-progress limit on every read and write of an accepted socket.
pub(crate) const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// Pause after a failed `accept()`, so `EMFILE` does not spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

const TEXT: &str = "text/plain; charset=utf-8";

/// Byte budget of the hit-reply memo: about seventy 0.9 MB paper documents.
pub(crate) const HIT_REPLY_BUDGET: usize = 64 * 1024 * 1024;

/// Rendered hit responses by artifact address, evicted oldest-first to
/// stay within a byte budget. Never stale: entries never change. A
/// poisoned lock is recovered: no mutation below can panic half-way.
pub(crate) struct HitReplies(Mutex<HitMemo>);

#[derive(Default)]
struct HitMemo {
    budget: usize,
    replies: HashMap<String, Arc<Vec<u8>>>,
    order: VecDeque<String>,
    bytes: usize,
}

impl std::fmt::Debug for HitReplies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HitReplies")
    }
}

impl HitReplies {
    pub(crate) fn new(budget: usize) -> HitReplies {
        HitReplies(Mutex::new(HitMemo {
            budget,
            ..HitMemo::default()
        }))
    }

    pub(crate) fn get(&self, hash: &str) -> Option<Arc<Vec<u8>>> {
        let memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        memo.replies.get(hash).cloned()
    }

    /// Stores `reply` under `hash`, evicting the oldest replies until it
    /// fits. A reply larger than the whole budget is not stored.
    pub(crate) fn insert(&self, hash: &str, reply: &Arc<Vec<u8>>) {
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if reply.len() > memo.budget || memo.replies.contains_key(hash) {
            return;
        }
        while memo.bytes + reply.len() > memo.budget {
            let oldest = memo.order.pop_front().expect("held bytes are queued");
            memo.bytes -= memo.replies.remove(&oldest).map_or(0, |r| r.len());
        }
        memo.bytes += reply.len();
        memo.order.push_back(hash.to_string());
        memo.replies.insert(hash.to_string(), Arc::clone(reply));
    }
}

/// A bound, ready-to-serve service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    cache: ArtifactCache,
    queue: Arc<JobQueue>,
    pub(crate) replies: Arc<HitReplies>,
}

impl Server {
    /// Binds the listener, opens the cache and starts the job runner.
    /// Also turns the global metrics registry on: a resident process
    /// exists to be scraped.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the address cannot be bound or
    /// the cache directory cannot be created.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        Server::bind_with_executor(config, default_executor())
    }

    /// [`Server::bind`] with a custom job executor — the fault-injection
    /// seam used by the in-process tests.
    pub fn bind_with_executor(config: &ServerConfig, executor: Executor) -> io::Result<Server> {
        ethpos_obs::set_metrics_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let cache = ArtifactCache::open(&config.cache_dir)?;
        let queue = JobQueue::new(config.queue_depth);
        // The runner is detached: it lives as long as the process. It
        // holds its own queue and cache handles.
        let _ = spawn_runner(Arc::clone(&queue), cache.clone(), config.threads, executor);
        Ok(Server {
            listener,
            cache,
            queue,
            replies: Arc::new(HitReplies::new(HIT_REPLY_BUDGET)),
        })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on `HANDLERS` threads: `HANDLERS − 1` spawned,
    /// the last the caller's. Each blocks in `accept()` on its own
    /// handle to the listening socket and answers the connection inline.
    ///
    /// # Panics
    ///
    /// Panics when the listening socket cannot be duplicated for a
    /// handler (the process is out of file descriptors at start-up).
    pub fn serve(&self) -> ! {
        for _ in 1..HANDLERS {
            let listener = self
                .listener
                .try_clone()
                .expect("a handler needs its own handle to the listening socket");
            let cache = self.cache.clone();
            let queue = Arc::clone(&self.queue);
            let replies = Arc::clone(&self.replies);
            std::thread::spawn(move || handle_forever(&listener, &cache, &queue, &replies));
        }
        handle_forever(&self.listener, &self.cache, &self.queue, &self.replies)
    }
}

/// One handler: accepts a connection and answers it, forever.
fn handle_forever(
    listener: &TcpListener,
    cache: &ArtifactCache,
    queue: &JobQueue,
    replies: &HitReplies,
) -> ! {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A panic ends its connection, not the handler. The
                // shared state recovers poisoned locks: no mutation
                // under them can panic half-way.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, cache, queue, replies);
                }));
            }
            // Accept errors (FD pressure, aborted handshakes) are
            // transient; a resident service keeps listening.
            Err(_) => {
                count_dropped("accept");
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// Counts a connection the server gave up on, by `reason`.
fn count_dropped(reason: &str) {
    ethpos_obs::global()
        .counter(
            "ethpos_server_dropped_connections_total",
            "Connections given up on: a read or write timed out, or accept() failed.",
            &[("reason", reason)],
        )
        .inc();
}

/// Runs `reply` on a short-lived scoped thread. Replies that embed a
/// whole document allocate several times its size; on a handler the
/// freed megabytes would stay in that handler's glibc arena, while each
/// new thread reuses the arena the last one released.
fn on_scoped_thread<T: Send>(reply: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(reply).join())
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
}

fn handle_connection(
    mut stream: TcpStream,
    cache: &ArtifactCache,
    queue: &JobQueue,
    replies: &HitReplies,
) {
    // Without its timeouts a silent client could hold this handler forever.
    let timeouts = stream
        .set_read_timeout(Some(SOCKET_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(SOCKET_TIMEOUT)));
    if timeouts.is_err() {
        return;
    }
    let request = match http::read_request(&mut stream) {
        Ok(request) => request,
        Err(HttpError::BodyTooLarge) => {
            return respond_error(&mut stream, 413, "request body too large");
        }
        Err(HttpError::Malformed(msg)) => {
            return respond_error(&mut stream, 400, &msg);
        }
        Err(HttpError::TimedOut) => return count_dropped("timeout"),
        // The socket died; nothing to answer.
        Err(HttpError::Io(_)) => return,
    };
    ethpos_obs::global()
        .counter(
            "ethpos_server_requests_total",
            "HTTP requests accepted, by route.",
            &[("route", route_label(&request))],
        )
        .inc();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            send(&mut stream, &http::response_bytes(200, TEXT, "ok\n"));
        }
        ("GET", "/metrics") => {
            let body = ethpos_obs::global().render_prometheus();
            let content_type = "text/plain; version=0.0.4; charset=utf-8";
            send(&mut stream, &http::response_bytes(200, content_type, &body));
        }
        ("POST", "/v1/jobs") => submit_job(&mut stream, &request.body, cache, queue, replies),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            job_status(&mut stream, &path["/v1/jobs/".len()..], cache, queue);
        }
        ("GET", path) if path.starts_with("/v1/artifacts/") => {
            artifact(&mut stream, &path["/v1/artifacts/".len()..], cache);
        }
        ("GET" | "POST", _) => respond_error(&mut stream, 404, "no such route"),
        _ => respond_error(&mut stream, 405, "method not allowed"),
    }
}

/// Low-cardinality route label for the request counter.
fn route_label(request: &Request) -> &'static str {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("POST", "/v1/jobs") => "submit",
        ("GET", path) if path.starts_with("/v1/jobs/") => "job-status",
        ("GET", path) if path.starts_with("/v1/artifacts/") => "artifact",
        _ => "other",
    }
}

/// `POST /v1/jobs`: canonicalize → hash → memo or cache lookup (hit:
/// 200 with the artifact; miss: enqueue and 202 with the job to poll).
fn submit_job(
    stream: &mut TcpStream,
    body: &str,
    cache: &ArtifactCache,
    queue: &JobQueue,
    replies: &HitReplies,
) {
    let request = match JobRequest::parse(body) {
        Ok(request) => request,
        Err(RequestError(msg)) => {
            // Malformed requests never reach the cache or the queue.
            return respond_error(stream, 400, &msg);
        }
    };
    let hash = request.request_hash();
    let registry = ethpos_obs::global();
    let reply = match replies.get(&hash) {
        Some(reply) => Some(reply),
        // Only a committed entry has a document to render.
        None if cache.contains(&hash) => on_scoped_thread(|| {
            let document = cache.load_document(&hash)?;
            let mut fields = vec![
                ("cached".to_string(), Value::Bool(true)),
                ("kind".to_string(), Value::String(request.kind().into())),
                ("artifact".to_string(), Value::String(hash.clone())),
                ("document".to_string(), Value::String(document)),
            ];
            push_stats(&mut fields, cache.load_stats(&hash));
            let body = json_body(&Value::Object(fields));
            // The response buffer itself is memoized: a copy into a
            // fresh allocation would land above the render's freed
            // buffers and keep them resident.
            let reply = Arc::new(http::response_bytes(200, "application/json", &body));
            replies.insert(&hash, &reply);
            Some(reply)
        }),
        None => None,
    };
    if let Some(reply) = reply {
        registry
            .counter(
                "ethpos_server_cache_hits_total",
                "Submissions answered from the artifact cache.",
                &[],
            )
            .inc();
        return send(stream, &reply);
    }
    registry
        .counter(
            "ethpos_server_cache_misses_total",
            "Submissions that had to enqueue a job.",
            &[],
        )
        .inc();
    use crate::jobs::SubmitOutcome;
    let (id, coalesced) = match queue.submit(request.clone(), hash.clone()) {
        SubmitOutcome::Queued(id) => (id, false),
        SubmitOutcome::Coalesced(id) => (id, true),
        SubmitOutcome::Full => {
            return respond_error(stream, 429, "job queue is full; retry later");
        }
    };
    let status = queue
        .snapshot(id)
        .map(|s| s.status.id())
        .unwrap_or("queued");
    respond_json(
        stream,
        202,
        Value::Object(vec![
            ("cached".to_string(), Value::Bool(false)),
            ("coalesced".to_string(), Value::Bool(coalesced)),
            ("kind".to_string(), Value::String(request.kind().into())),
            ("artifact".to_string(), Value::String(hash)),
            ("job".to_string(), Value::U64(id)),
            ("status".to_string(), Value::String(status.into())),
            ("poll".to_string(), Value::String(format!("/v1/jobs/{id}"))),
        ]),
    );
}

/// `GET /v1/jobs/<id>`.
fn job_status(stream: &mut TcpStream, id: &str, cache: &ArtifactCache, queue: &JobQueue) {
    let Ok(id) = id.parse::<JobId>() else {
        return respond_error(stream, 400, "job ids are integers");
    };
    let Some(snapshot) = queue.snapshot(id) else {
        return respond_error(stream, 404, "no such job");
    };
    let mut fields = vec![
        ("job".to_string(), Value::U64(snapshot.id)),
        ("kind".to_string(), Value::String(snapshot.kind.into())),
        (
            "status".to_string(),
            Value::String(snapshot.status.id().into()),
        ),
        ("artifact".to_string(), Value::String(snapshot.hash.clone())),
    ];
    match &snapshot.status {
        JobStatus::Done => {
            // A done job's reply embeds its document.
            return on_scoped_thread(|| {
                if let Some(document) = cache.load_document(&snapshot.hash) {
                    fields.push(("document".to_string(), Value::String(document)));
                }
                push_stats(&mut fields, cache.load_stats(&snapshot.hash));
                respond_json(stream, 200, Value::Object(fields));
            });
        }
        JobStatus::Error(message) => {
            fields.push(("error".to_string(), Value::String(message.clone())));
        }
        JobStatus::Queued | JobStatus::Running => {}
    }
    respond_json(stream, 200, Value::Object(fields));
}

/// `GET /v1/artifacts/<hash>`: the raw document bytes.
fn artifact(stream: &mut TcpStream, hash: &str, cache: &ArtifactCache) {
    if !cache.contains(hash) {
        return respond_error(stream, 404, "no such artifact");
    }
    on_scoped_thread(|| match cache.load_document(hash) {
        Some(document) => send(stream, &http::response_bytes(200, TEXT, &document)),
        None => respond_error(stream, 404, "no such artifact"),
    });
}

/// Attaches the stats side channel, re-parsed so the response embeds it
/// as JSON rather than a string-escaped blob.
fn push_stats(fields: &mut Vec<(String, Value)>, stats: Option<String>) {
    if let Some(stats) = stats {
        if let Ok(value) = serde_json::from_str::<Value>(&stats) {
            fields.push(("stats".to_string(), value));
        }
    }
}

/// A JSON body: the value on one line, then a newline.
fn json_body(value: &Value) -> String {
    let mut body = serde_json::to_string(value).expect("response serializes");
    body.push('\n');
    body
}

/// Writes a whole reply. A peer that hangs up is its own problem; one
/// that stops reading for a whole timeout is dropped and counted.
fn send(stream: &mut TcpStream, reply: &[u8]) {
    if let Err(error) = stream.write_all(reply) {
        if http::timed_out(&error) {
            count_dropped("timeout");
        }
    }
}

fn respond_json(stream: &mut TcpStream, status: u16, value: Value) {
    let reply = http::response_bytes(status, "application/json", &json_body(&value));
    send(stream, &reply);
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    respond_json(
        stream,
        status,
        Value::Object(vec![(
            "error".to_string(),
            Value::String(message.to_string()),
        )]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(byte: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![byte; len])
    }

    fn held(replies: &HitReplies, keys: &[&str]) -> Vec<bool> {
        keys.iter().map(|key| replies.get(key).is_some()).collect()
    }

    #[test]
    fn hit_replies_evict_oldest_first_within_the_budget() {
        let replies = HitReplies::new(100);
        for (key, byte) in [("a", b'a'), ("b", b'b'), ("c", b'c')] {
            replies.insert(key, &reply(byte, 40));
        }
        // 120 bytes do not fit: the oldest went, the other two stay.
        assert_eq!(held(&replies, &["a", "b", "c"]), [false, true, true]);
        assert_eq!(replies.get("c").as_deref(), Some(&vec![b'c'; 40]));
        // 80 + 20 fits exactly, so nothing more is evicted.
        replies.insert("d", &reply(b'd', 20));
        assert_eq!(held(&replies, &["b", "c", "d"]), [true, true, true]);
        // A reply of the whole budget evicts everything else.
        replies.insert("e", &reply(b'e', 100));
        assert_eq!(
            held(&replies, &["b", "c", "d", "e"]),
            [false, false, false, true]
        );
        // A reply over the budget is never stored and evicts nothing.
        replies.insert("f", &reply(b'f', 101));
        assert_eq!(held(&replies, &["e", "f"]), [true, false]);
    }

    #[test]
    fn hit_replies_are_keyed_by_the_whole_address() {
        let replies = HitReplies::new(HIT_REPLY_BUDGET);
        let (first, second) = (
            format!("abcdef01{}", "0".repeat(56)),
            format!("abcdef01{}", "1".repeat(56)),
        );
        replies.insert(&first, &reply(1, 8));
        assert!(replies.get(&second).is_none());
        replies.insert(&second, &reply(2, 8));
        assert_eq!(replies.get(&first).as_deref(), Some(&vec![1u8; 8]));
        assert_eq!(replies.get(&second).as_deref(), Some(&vec![2u8; 8]));
    }
}

//! `ethpos_server` — the resident experiment service.
//!
//! Every artifact in this workspace is deterministic: the same
//! canonical request produces the same bytes on any machine at any
//! thread count. That turns the classic "results server" problem into
//! pure content addressing — this crate is the thin std-only service
//! that exploits it:
//!
//! * [`ethpos_core::JobRequest`] parses and canonicalizes a JSON
//!   request into the same spec types the CLI builds, and hashes it
//!   (salted by [`ethpos_core::ARTIFACT_SALT`]) into an artifact
//!   address;
//! * [`ArtifactCache`] stores executed documents under that
//!   address — a hit is returned byte-identical without simulating
//!   anything, across restarts, forever (version bumps change the salt,
//!   not the entries);
//! * the job queue serializes misses behind a single runner
//!   (each job parallelizes internally), coalescing concurrent
//!   identical submissions into one execution;
//! * [`Server`] is the HTTP face: submit, poll, fetch,
//!   `GET /metrics` (a live scrape of the `ethpos_obs` registry) and
//!   `GET /healthz`. Started via `ethpos-cli serve`.
//!
//! Like the rest of the workspace the crate uses no external
//! dependencies (the build environment has no crates.io access — see
//! `vendor/README.md`): the HTTP layer implements just the
//! `Connection: close` subset the service needs.
//!
//! # Quickstart
//!
//! ```no_run
//! use ethpos_server::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig::default())?;
//! println!("listening on http://{}", server.local_addr()?);
//! server.serve();
//! # #[allow(unreachable_code)]
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod cache;
mod http;
mod jobs;
mod server;

pub use cache::ArtifactCache;
pub use server::{Server, ServerConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    fn temp_cache_dir(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("ethpos-server-{}-{tag}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Binds a server on an ephemeral port over a fresh cache with the
    /// given executor and serves it from a detached thread.
    fn start(tag: &str, executor: jobs::Executor) -> (SocketAddr, String) {
        let cache_dir = temp_cache_dir(tag);
        std::fs::remove_dir_all(&cache_dir).ok();
        let (addr, _) = serve_over(&cache_dir, executor, server::HIT_REPLY_BUDGET);
        (addr, cache_dir)
    }

    /// Binds a server over `cache_dir` (kept as it is) with a hit-reply
    /// memo of `budget` bytes, serves it from a detached thread and
    /// hands back the memo to inspect.
    fn serve_over(
        cache_dir: &str,
        executor: jobs::Executor,
        budget: usize,
    ) -> (SocketAddr, Arc<server::HitReplies>) {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: cache_dir.into(),
            threads: 1,
            queue_depth: 8,
        };
        let mut server = Server::bind_with_executor(&config, executor).expect("bind");
        server.replies = Arc::new(server::HitReplies::new(budget));
        let replies = Arc::clone(&server.replies);
        let addr = server.local_addr().expect("addr");
        std::thread::spawn(move || server.serve());
        (addr, replies)
    }

    /// One raw HTTP exchange: every byte the server sent back.
    fn raw_exchange(addr: SocketAddr, request: &str) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("receive");
        raw
    }

    /// One raw HTTP exchange (the tests are their own minimal client so
    /// the server is exercised over a real socket).
    fn exchange(addr: SocketAddr, request: &str) -> (u16, String) {
        let raw = String::from_utf8(raw_exchange(addr, request)).expect("utf-8 response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("status code");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        exchange(addr, &format!("GET {path} HTTP/1.1\r\nhost: x\r\n\r\n"))
    }

    fn post_request(path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        exchange(addr, &post_request(path, body))
    }

    fn poll_done(addr: SocketAddr, job: u64) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = get(addr, &format!("/v1/jobs/{job}"));
            assert_eq!(status, 200, "{body}");
            if body.contains("\"status\":\"done\"") || body.contains("\"status\":\"error\"") {
                return body;
            }
            assert!(Instant::now() < deadline, "job {job} never settled: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The value of one series in a live scrape (0 while it is absent).
    fn scrape(addr: SocketAddr, series: &str) -> u64 {
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    }

    fn field_u64(body: &str, key: &str) -> u64 {
        let value: serde_json::Value = serde_json::from_str(body.trim()).expect("json body");
        value.get(key).and_then(|v| v.as_u64()).unwrap_or_else(|| {
            panic!("missing `{key}` in {body}");
        })
    }

    #[test]
    fn submit_poll_fetch_then_cache_hit() {
        let (addr, cache_dir) = start("happy", jobs::default_executor());
        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let request = r#"{"kind": "partition", "validators": 600}"#;
        let (status, body) = post(addr, "/v1/jobs", request);
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"cached\":false"), "{body}");
        let job = field_u64(&body, "job");

        let settled = poll_done(addr, job);
        assert!(settled.contains("\"status\":\"done\""), "{settled}");
        let settled_json: serde_json::Value =
            serde_json::from_str(settled.trim()).expect("status json");
        let hash = settled_json
            .get("artifact")
            .and_then(|v| v.as_str())
            .expect("artifact hash")
            .to_string();
        let document = settled_json
            .get("document")
            .and_then(|v| v.as_str())
            .expect("document")
            .to_string();
        assert!(settled_json.get("stats").is_some(), "{settled}");

        // The artifact endpoint serves the same bytes.
        let (status, fetched) = get(addr, &format!("/v1/artifacts/{hash}"));
        assert_eq!(status, 200);
        assert_eq!(fetched, document);

        // Resubmitting is a cache hit carrying identical bytes.
        let (status, hit) = post(addr, "/v1/jobs", request);
        assert_eq!(status, 200, "{hit}");
        assert!(hit.contains("\"cached\":true"), "{hit}");
        let hit_json: serde_json::Value = serde_json::from_str(hit.trim()).expect("hit json");
        assert_eq!(
            hit_json.get("document").and_then(|v| v.as_str()),
            Some(document.as_str())
        );

        // A differently-spelled identical request hits too.
        let spelled = r#"{"kind": "partition", "validators": 600, "seed": 0,
                          "backend": "cohort", "format": "json"}"#;
        let (status, hit) = post(addr, "/v1/jobs", spelled);
        assert_eq!(status, 200, "{hit}");
        assert!(hit.contains("\"cached\":true"), "{hit}");

        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn malformed_requests_get_400_and_touch_nothing() {
        let (addr, cache_dir) = start("malformed", jobs::default_executor());
        for body in [
            "not json",
            r#"{"kind": "teapot"}"#,
            r#"{"kind": "partition", "validatorz": 10}"#,
        ] {
            let (status, response) = post(addr, "/v1/jobs", body);
            assert_eq!(status, 400, "{body}: {response}");
            assert!(response.contains("\"error\""), "{response}");
        }
        // Nothing was cached: the cache directory has no entries.
        let entries: Vec<_> = std::fs::read_dir(&cache_dir)
            .expect("cache dir exists")
            .collect();
        assert!(entries.is_empty(), "{entries:?}");

        let (status, _) = get(addr, "/v1/jobs/999");
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _) = exchange(addr, "DELETE /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn a_one_mib_string_field_gets_its_400_while_healthz_answers() {
        let (addr, cache_dir) = start("big-string", jobs::default_executor());
        let head = r#"{"kind": "partition", "label": ""#;
        let unit = "β₀ = 0.33 \\\"x\\\" ";
        let fill = unit.repeat((http::MAX_BODY_BYTES - head.len() - 2) / unit.len());
        let body = format!("{head}{fill}\"}}");
        assert!(
            body.len() <= http::MAX_BODY_BYTES && body.len() + unit.len() > http::MAX_BODY_BYTES
        );
        let started = Instant::now();
        std::thread::scope(|scope| {
            let big = scope.spawn(|| post(addr, "/v1/jobs", &body));
            for _ in 0..10 {
                let probe = Instant::now();
                let (status, reply) = get(addr, "/healthz");
                assert_eq!((status, reply.as_str()), (200, "ok\n"));
                assert!(
                    probe.elapsed() < server::SOCKET_TIMEOUT,
                    "{:?}",
                    probe.elapsed()
                );
            }
            let (status, reply) = big.join().expect("client");
            assert_eq!(status, 400, "{reply}");
            assert!(reply.contains("\"error\""), "{reply}");
        });
        // A parser quadratic in the string's length took tens of
        // seconds on this body.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{:?}",
            started.elapsed()
        );
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    /// The acceptance property: a panicking in-process job leaves
    /// `GET /metrics` serving valid Prometheus exposition.
    #[test]
    fn metrics_survive_a_panicking_job() {
        let (addr, cache_dir) = start(
            "panic",
            Box::new(|request| {
                if request.kind() == "chaos" {
                    panic!("injected chaos fault");
                }
                request.execute()
            }),
        );
        let (status, body) = post(addr, "/v1/jobs", r#"{"kind": "chaos", "budget": 1}"#);
        assert_eq!(status, 202, "{body}");
        let job = field_u64(&body, "job");
        let settled = poll_done(addr, job);
        assert!(settled.contains("\"status\":\"error\""), "{settled}");
        assert!(settled.contains("injected chaos fault"), "{settled}");

        // The scrape still works and is well-formed exposition.
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        // The registry is process-global and other tests publish to it
        // too, so assert the family and a non-zero count, not an exact
        // total.
        let failed = metrics
            .lines()
            .find_map(|l| l.strip_prefix("ethpos_server_jobs_failed_total "))
            .and_then(|v| v.parse::<f64>().ok())
            .expect("failed-jobs family scraped");
        assert!(failed >= 1.0, "{metrics}");
        assert!(metrics.contains("# HELP"), "{metrics}");
        for line in metrics.lines() {
            assert!(
                line.starts_with('#') || line.rsplit_once(' ').is_some(),
                "bad exposition line: {line}"
            );
        }

        // And the runner still serves jobs after the panic.
        let (status, body) = post(
            addr,
            "/v1/jobs",
            r#"{"kind": "partition", "validators": 500}"#,
        );
        assert_eq!(status, 202, "{body}");
        let job = field_u64(&body, "job");
        let settled = poll_done(addr, job);
        assert!(settled.contains("\"status\":\"done\""), "{settled}");
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn concurrent_identical_submissions_coalesce() {
        // A deliberately slow executor keeps the first job running while
        // the duplicates arrive.
        let (addr, cache_dir) = start(
            "coalesce",
            Box::new(|request| {
                std::thread::sleep(Duration::from_millis(300));
                request.execute()
            }),
        );
        let request = r#"{"kind": "partition", "validators": 700}"#;
        let (status, first) = post(addr, "/v1/jobs", request);
        assert_eq!(status, 202, "{first}");
        let first_id = field_u64(&first, "job");
        let mut ids = vec![first_id];
        for _ in 0..2 {
            let (status, dup) = post(addr, "/v1/jobs", request);
            assert_eq!(status, 202, "{dup}");
            assert!(dup.contains("\"coalesced\":true"), "{dup}");
            ids.push(field_u64(&dup, "job"));
        }
        ids.dedup();
        assert_eq!(ids, vec![first_id], "duplicates must share one job");
        let settled = poll_done(addr, first_id);
        assert!(settled.contains("\"status\":\"done\""), "{settled}");
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    /// Commits a synthetic entry for the request `body` straight into
    /// the cache and returns its address: these hits need no simulation.
    fn seed_entry(cache_dir: &str, body: &str, document: String, stats: Option<&str>) -> String {
        let hash = ethpos_core::JobRequest::parse(body)
            .expect("request")
            .request_hash();
        let output = ethpos_core::JobOutput {
            document,
            stats: stats.map(Into::into),
        };
        ArtifactCache::open(cache_dir)
            .expect("open")
            .store(&hash, &output)
            .expect("store");
        hash
    }

    fn partition_request(validators: u64) -> String {
        format!(r#"{{"kind": "partition", "validators": {validators}}}"#)
    }

    /// The document a hit reply carries.
    fn hit_document(raw: &[u8]) -> String {
        let raw = std::str::from_utf8(raw).expect("utf-8 response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("head and body");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(
            head.contains(&format!("content-length: {}\r\n", body.len())),
            "{head}"
        );
        let value: serde_json::Value = serde_json::from_str(body.trim()).expect("json body");
        assert_eq!(value.get("cached").and_then(|v| v.as_bool()), Some(true));
        value
            .get("document")
            .and_then(|v| v.as_str())
            .expect("document")
            .to_string()
    }

    #[test]
    fn a_memoized_hit_is_the_rendered_hit_byte_for_byte_and_survives_a_restart() {
        let cache_dir = temp_cache_dir("memo");
        std::fs::remove_dir_all(&cache_dir).ok();
        let (addr, replies) = serve_over(&cache_dir, jobs::default_executor(), 1 << 20);
        let body = partition_request(601);
        let document = "line \"one\"\n\tβ₀ = 0.33 😀 \\ \u{1}\n".repeat(50);
        let hash = seed_entry(
            &cache_dir,
            &body,
            document.clone(),
            Some("{\"cases\": 3}\n"),
        );
        let submit = post_request("/v1/jobs", &body);

        assert!(replies.get(&hash).is_none());
        let rendered = raw_exchange(addr, &submit);
        assert_eq!(hit_document(&rendered), document);
        let body_text = std::str::from_utf8(&rendered).expect("utf-8");
        let json = format!(
            "\r\n\r\n{{\"cached\":true,\"kind\":\"partition\",\"artifact\":\"{hash}\",\"document\":"
        );
        assert!(body_text.contains(&json), "{body_text}");
        assert!(
            body_text.ends_with(",\"stats\":{\"cases\":3}}\n"),
            "{body_text}"
        );
        assert_eq!(replies.get(&hash).as_deref(), Some(&rendered));

        // The repeat is served from the memo, byte for byte.
        assert_eq!(raw_exchange(addr, &submit), rendered);

        // A restarted server over the same cache renders it afresh, the
        // same bytes again.
        let (restarted, fresh) = serve_over(&cache_dir, jobs::default_executor(), 1 << 20);
        assert!(fresh.get(&hash).is_none());
        assert_eq!(raw_exchange(restarted, &submit), rendered);
        assert_eq!(fresh.get(&hash).as_deref(), Some(&rendered));
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn the_memo_evicts_oldest_first_and_never_stores_an_oversize_reply() {
        let cache_dir = temp_cache_dir("evict");
        std::fs::remove_dir_all(&cache_dir).ok();
        // Each 1000-byte document makes a reply of about 1.2 kB: two fit
        // the budget, three do not, and a 4000-byte one never does.
        let (addr, replies) = serve_over(&cache_dir, jobs::default_executor(), 3000);
        let entries: Vec<(String, String, String)> = [
            (602, 'a', 1000),
            (603, 'b', 1000),
            (604, 'c', 1000),
            (605, 'd', 4000),
        ]
        .into_iter()
        .map(|(validators, fill, len)| {
            let body = partition_request(validators);
            let document = fill.to_string().repeat(len);
            let hash = seed_entry(&cache_dir, &body, document.clone(), None);
            (post_request("/v1/jobs", &body), document, hash)
        })
        .collect();
        let hit = |i: usize| {
            let (submit, document, _) = &entries[i];
            let raw = raw_exchange(addr, submit);
            assert_eq!(&hit_document(&raw), document);
            raw
        };
        let held = |keys: &[usize]| -> Vec<bool> {
            keys.iter()
                .map(|&i| replies.get(&entries[i].2).is_some())
                .collect()
        };

        hit(0);
        hit(1);
        assert_eq!(held(&[0, 1, 2]), [true, true, false]);
        hit(2);
        assert_eq!(held(&[0, 1, 2]), [false, true, true]);
        // The evicted entry still hits, rendered again from disk.
        hit(0);
        assert_eq!(held(&[0, 1, 2]), [true, false, true]);

        // Served, twice and identically, but never stored, and it
        // evicts nothing.
        let oversize = hit(3);
        assert!(oversize.len() > 3000);
        assert_eq!(hit(3), oversize);
        assert_eq!(held(&[0, 2, 3]), [true, true, false]);
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn memo_hits_count_as_cache_hits() {
        // The registry is process-global and other tests hit it too, so
        // many memo hits must each add one: the count cannot be reached
        // by the one rendered hit plus every other test's.
        const MEMO_HITS: u64 = 40;
        let cache_dir = temp_cache_dir("memo-hits");
        std::fs::remove_dir_all(&cache_dir).ok();
        let (addr, replies) = serve_over(&cache_dir, jobs::default_executor(), 1 << 20);
        let body = partition_request(606);
        let hash = seed_entry(&cache_dir, &body, "counted\n".into(), None);
        let hits = || scrape(addr, "ethpos_server_cache_hits_total");
        let before = hits();
        for _ in 0..=MEMO_HITS {
            let (status, reply) = post(addr, "/v1/jobs", &body);
            assert_eq!(status, 200, "{reply}");
        }
        assert!(replies.get(&hash).is_some());
        let counted = hits() - before;
        // One rendered hit, then the memo hits.
        assert!(counted > MEMO_HITS, "{counted}");
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn idle_sockets_delay_healthz_by_one_timeout_at_most() {
        let (addr, cache_dir) = start("idle", jobs::default_executor());
        let dropped = "ethpos_server_dropped_connections_total{reason=\"timeout\"}";
        let timeouts = || scrape(addr, dropped);
        let before = timeouts();
        // One more silent client than there are handlers: every handler
        // waits on one, and the last queues ahead of the probe.
        let mut idle: Vec<TcpStream> = (0..=server::HANDLERS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let sent = Instant::now();
        let mut probe = TcpStream::connect(addr).expect("connect");
        probe
            .set_read_timeout(Some(3 * server::SOCKET_TIMEOUT))
            .expect("client timeout");
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send");
        let mut reply = String::new();
        probe.read_to_string(&mut reply).expect("healthz answers");
        let waited = sent.elapsed();
        assert!(reply.ends_with("\r\n\r\nok\n"), "{reply}");
        assert!(
            waited < server::SOCKET_TIMEOUT + server::SOCKET_TIMEOUT / 2,
            "{waited:?}"
        );

        // The server hung up on each silent client it had accepted, and
        // counted every one.
        for stream in &mut idle[..server::HANDLERS] {
            stream
                .set_read_timeout(Some(3 * server::SOCKET_TIMEOUT))
                .expect("client timeout");
            assert_eq!(stream.read(&mut [0; 1]).expect("closed"), 0);
        }
        let counted = timeouts() - before;
        assert!(counted >= server::HANDLERS as u64, "{counted}");
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn concurrent_identical_hits_all_get_the_memoized_reply() {
        let cache_dir = temp_cache_dir("concurrent");
        std::fs::remove_dir_all(&cache_dir).ok();
        let (addr, replies) = serve_over(&cache_dir, jobs::default_executor(), 1 << 20);
        let body = partition_request(607);
        let hash = seed_entry(&cache_dir, &body, "hit \"many\"\n".repeat(4000), None);
        let submit = post_request("/v1/jobs", &body);
        let clients = 4 * server::HANDLERS;
        let barrier = Barrier::new(clients);
        // The first round races the renders of a cold entry, the second
        // reads the memo.
        for _ in 0..2 {
            let hits: Vec<Vec<u8>> = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..clients)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            raw_exchange(addr, &submit)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|client| client.join().expect("client"))
                    .collect()
            });
            let memoized = replies.get(&hash).expect("memoized");
            assert!(hits.iter().all(|hit| hit == memoized.as_ref()));
        }
        std::fs::remove_dir_all(&cache_dir).ok();
    }

    #[test]
    fn a_client_hanging_up_mid_reply_leaves_the_handlers_serving() {
        let cache_dir = temp_cache_dir("hang-up");
        std::fs::remove_dir_all(&cache_dir).ok();
        let (addr, _) = serve_over(&cache_dir, jobs::default_executor(), 1 << 20);
        // 8 MiB: more than the kernel buffers for a peer that stops
        // reading, so each write is still under way at the hang-up.
        let document = "a long document line\n".repeat(400_000);
        let hash = seed_entry(&cache_dir, &partition_request(608), document.clone(), None);
        let fetch = format!("GET /v1/artifacts/{hash} HTTP/1.1\r\n\r\n");
        for _ in 0..server::HANDLERS {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(fetch.as_bytes()).expect("send");
            stream.read_exact(&mut [0; 1024]).expect("reply starts");
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(3 * server::SOCKET_TIMEOUT))
            .expect("client timeout");
        stream.write_all(fetch.as_bytes()).expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("answered");
        let raw = String::from_utf8(raw).expect("utf-8");
        assert!(
            raw.starts_with("HTTP/1.1 200 OK\r\n"),
            "{:?}",
            raw.lines().next()
        );
        assert!(raw.ends_with(&format!("\r\n\r\n{document}")));
        std::fs::remove_dir_all(&cache_dir).ok();
    }
}

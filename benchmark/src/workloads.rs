//! The seven workloads as sessions: set up once, then run rounds.
//!
//! A *round* is the workload's fixed ordered op list; an *op* is one
//! request carried to a verified document. Engine workloads drive
//! `JobRequest::{parse, request_hash, set_threads, execute}` — the one
//! execution path the CLI and the server share — on two worker threads.
//! Server workloads speak real HTTP/1.1 over loopback to an in-process
//! `Server::bind` + `serve()` thread whose jobs get one worker thread,
//! so client + handler + runner never keep more than two threads busy.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Duration;

use ethpos_core::JobRequest;
use ethpos_server::{ArtifactCache, Server, ServerConfig};

use crate::client;
use crate::oracle::{digest, Verifier};
use crate::paths::ScratchDir;
use crate::requests::{self, Hit, Op, Template};
use crate::spans::Recorder;

/// Worker threads of every direct `execute`.
pub const ENGINE_THREADS: usize = 2;
/// Worker threads the server hands each job.
pub const SERVER_JOB_THREADS: usize = 1;
/// Pause between two polls of a running job.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Hits of the `server_hit` warm-up beyond the fully decoded ones.
const WARMUP_HITS: usize = 250;

/// A workload after set-up: ready to run rounds.
pub trait Session {
    /// Runs round `round` (0-based within the phase that calls it) and
    /// returns the number of ops it carried out.
    fn round(&mut self, round: u64, rec: &mut Recorder, oracle: &mut Verifier) -> u64;

    /// Checks deferred out of the timed rounds (nothing by default).
    fn finish(&mut self, _oracle: &mut Verifier) {}

    /// The request bodies a round submits (for the `core` parse /
    /// canonicalize / hash probes).
    fn bodies(&self) -> Vec<String>;

    /// Worker threads the jobs of this workload run on.
    fn job_threads(&self) -> usize;
}

/// Parses, hashes, executes and digests one body directly: what
/// `ethpos-cli <mode>` does for a researcher, span by span.
pub fn execute_direct(
    op: &Op,
    id: u64,
    rec: &mut Recorder,
) -> Result<(String, ethpos_core::JobOutput), String> {
    let span = rec.begin("core.parse", id);
    let parsed = JobRequest::parse(&op.body);
    rec.end(span);
    let mut request = parsed.map_err(|e| format!("rejected: {e}"))?;
    let span = rec.begin("core.request_hash", id);
    let address = black_box(request.request_hash());
    rec.end(span);
    request.set_threads(ENGINE_THREADS);
    let span = rec.begin("core.execute", id);
    let output = request.execute();
    rec.end(span);
    Ok((address, output))
}

/// An engine workload: the same ops every round.
#[derive(Debug)]
pub struct EngineSession {
    ops: Vec<Op>,
}

impl EngineSession {
    /// Builds the op list and runs the warm-up list once.
    pub fn set_up(
        round: &[Template],
        warmup: &[Template],
        warmup_rounds: u64,
        rec: &mut Recorder,
        oracle: &mut Verifier,
    ) -> EngineSession {
        let mut warm = EngineSession {
            ops: warmup.iter().map(Template::op).collect(),
        };
        for r in 0..warmup_rounds {
            warm.round(r, rec, oracle);
        }
        EngineSession {
            ops: round.iter().map(Template::op).collect(),
        }
    }
}

impl Session for EngineSession {
    fn round(&mut self, round: u64, rec: &mut Recorder, oracle: &mut Verifier) -> u64 {
        for (i, op) in self.ops.iter().enumerate() {
            let id = round * self.ops.len() as u64 + i as u64;
            let request = rec.begin("request", id);
            match execute_direct(op, id, rec) {
                Ok((_, output)) => {
                    let span = rec.begin("crypto.digest", id);
                    let hex = digest(output.document.as_bytes());
                    rec.end(span);
                    oracle.check(op.label, &op.body, hex, None);
                }
                Err(why) => {
                    oracle.judge(op.label, Err(why));
                }
            }
            rec.end(request);
        }
        self.ops.len() as u64
    }

    fn bodies(&self) -> Vec<String> {
        self.ops.iter().map(|op| op.body.clone()).collect()
    }

    fn job_threads(&self) -> usize {
        ENGINE_THREADS
    }
}

/// An in-process server on an ephemeral loopback port, serving from a
/// scratch cache directory that is removed with it. `serve()` never
/// returns, so its thread lives until the process exits.
#[derive(Debug)]
pub struct LiveServer {
    /// The bound address.
    pub addr: SocketAddr,
    _scratch: ScratchDir,
}

impl LiveServer {
    /// Opens the cache, lets `prefill` commit artifacts into it, then
    /// binds and starts serving.
    pub fn start(prefill: impl FnOnce(&ArtifactCache)) -> LiveServer {
        let scratch = ScratchDir::new("cache");
        let cache = ArtifactCache::open(scratch.path()).expect("open scratch cache");
        prefill(&cache);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: scratch.path().to_string_lossy().into_owned(),
            threads: SERVER_JOB_THREADS,
            queue_depth: 64,
        };
        let server = Server::bind(&config).expect("bind loopback server");
        let addr = server.local_addr().expect("bound address");
        std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || server.serve())
            .expect("spawn serve thread");
        LiveServer {
            addr,
            _scratch: scratch,
        }
    }
}

/// `server_hit`: every POST is answered from the cache.
#[derive(Debug)]
pub struct HitSession {
    server: LiveServer,
    seed: u64,
    labels: Vec<&'static str>,
    spellings: Vec<Vec<String>>,
    /// The complete reply body per artifact (a hit's reply depends on
    /// the request's address only, so every spelling gets the same),
    /// kept at warm-up after each spelling's reply was decoded and its
    /// document checked against the direct execute. Timed hits compare
    /// raw bytes: equal replies carry equal documents, and the client
    /// spends the round neither decoding nor hashing a megabyte per
    /// large hit (hashing alone was a fifth of the round).
    replies: Vec<String>,
}

impl HitSession {
    /// Executes and commits the eight artifacts, starts the server,
    /// decodes one hit per (artifact, spelling) and warms the read path.
    pub fn set_up(seed: u64, rec: &mut Recorder, oracle: &mut Verifier) -> HitSession {
        let artifacts = requests::hit_artifacts(seed);
        let mut direct = Vec::new();
        let server = LiveServer::start(|cache| {
            for (i, template) in artifacts.iter().enumerate() {
                let op = template.op();
                let (address, output) = execute_direct(&op, i as u64, rec)
                    .unwrap_or_else(|why| panic!("prefill {}: {why}", op.label));
                cache.store(&address, &output).expect("prefill commit");
                direct.push(digest(output.document.as_bytes()));
            }
        });
        let spellings = requests::hit_spellings(seed, &artifacts);
        let labels: Vec<&'static str> = artifacts.iter().map(|t| t.op().label).collect();
        let mut replies = Vec::new();
        for ((label, spelled), direct_hex) in labels.iter().zip(&spellings).zip(&direct) {
            let mut verified = String::new();
            for body in spelled {
                let reply = client::post(server.addr, "/v1/jobs", body);
                let verdict = match &reply {
                    Ok(r) if r.status == 200 && r.body.starts_with("{\"cached\":true") => {
                        match client::string_field(&r.body, "document") {
                            Some(document) => {
                                let hex = digest(document.as_bytes());
                                oracle.check(label, body, hex, Some(direct_hex));
                                None
                            }
                            None => Some("hit carries no document".to_string()),
                        }
                    }
                    Ok(r) if r.status == 200 => {
                        Some("prefilled request was not a cache hit".to_string())
                    }
                    Ok(r) => Some(format!("HTTP {}", r.status)),
                    Err(e) => Some(format!("socket: {e}")),
                };
                if let Some(why) = verdict {
                    oracle.judge(label, Err(why));
                }
                if let (true, Ok(r)) = (verified.is_empty(), reply) {
                    verified = r.body;
                }
            }
            replies.push(verified);
        }
        let session = HitSession {
            server,
            seed,
            labels,
            spellings,
            replies,
        };
        let warm: Vec<Hit> = requests::hit_round(seed, u64::MAX, session.labels.len())
            .into_iter()
            .take(WARMUP_HITS)
            .collect();
        session.hits(&warm, 0, rec, oracle);
        session
    }

    fn hits(&self, hits: &[Hit], first_id: u64, rec: &mut Recorder, oracle: &mut Verifier) {
        for (i, hit) in hits.iter().enumerate() {
            let id = first_id + i as u64;
            let label = self.labels[hit.artifact];
            let request = rec.begin("request", id);
            let span = rec.begin("server.http_exchange", id);
            let reply = client::post(
                self.server.addr,
                "/v1/jobs",
                &self.spellings[hit.artifact][hit.spelling],
            );
            rec.end(span);
            let verdict = match reply {
                Ok(r) if r.status == 200 && r.body == self.replies[hit.artifact] => Ok(()),
                Ok(r) if r.status == 200 => {
                    Err("reply bytes differ from the reply verified at warm-up".to_string())
                }
                Ok(r) => Err(format!("HTTP {}", r.status)),
                Err(e) => Err(format!("socket: {e}")),
            };
            oracle.judge(label, verdict);
            rec.end(request);
        }
    }
}

impl Session for HitSession {
    fn round(&mut self, round: u64, rec: &mut Recorder, oracle: &mut Verifier) -> u64 {
        let hits = requests::hit_round(self.seed, round, self.labels.len());
        self.hits(&hits, round * hits.len() as u64, rec, oracle);
        hits.len() as u64
    }

    fn bodies(&self) -> Vec<String> {
        self.spellings.iter().flatten().cloned().collect()
    }

    fn job_threads(&self) -> usize {
        SERVER_JOB_THREADS
    }
}

/// What one miss cost the client.
#[derive(Debug, Clone, PartialEq)]
pub struct MissOutcome {
    /// The served document's digest, or why there is none.
    pub document: Result<String, String>,
    /// `GET /v1/jobs/<id>` requests until the job settled.
    pub polls: u64,
}

/// Submits `body`, polls the job every [`POLL_INTERVAL`] until it
/// settles, and digests the document of the final status reply.
pub fn submit_and_poll(addr: SocketAddr, body: &str, id: u64, rec: &mut Recorder) -> MissOutcome {
    let mut polls = 0;
    let mut run = || -> Result<String, String> {
        let span = rec.begin("server.submit", id);
        let reply = client::post(addr, "/v1/jobs", body);
        rec.end(span);
        let reply = reply.map_err(|e| format!("socket: {e}"))?;
        if reply.status != 202 {
            return Err(format!("HTTP {} on a never-seen request", reply.status));
        }
        let poll = client::string_field(&reply.body, "poll").ok_or("202 without a poll path")?;
        loop {
            let span = rec.begin("server.job_wait", id);
            std::thread::sleep(POLL_INTERVAL);
            rec.end(span);
            let span = rec.begin("server.poll", id);
            let status = client::get(addr, &poll);
            rec.end(span);
            polls += 1;
            let status = status.map_err(|e| format!("socket: {e}"))?;
            if status.status != 200 {
                return Err(format!("HTTP {} polling {poll}", status.status));
            }
            let state = client::string_field(&status.body, "status");
            if matches!(state.as_deref(), Some("queued" | "running")) {
                continue;
            }
            let span = rec.begin("harness.decode", id);
            let document = client::string_field(&status.body, "document");
            rec.end(span);
            return match (state.as_deref(), document) {
                (Some("done"), Some(document)) => {
                    let span = rec.begin("crypto.digest", id);
                    let hex = digest(document.as_bytes());
                    rec.end(span);
                    Ok(hex)
                }
                (Some("done"), None) => Err("done without a document".into()),
                (state, _) => Err(format!(
                    "job ended {}: {}",
                    state.unwrap_or("?"),
                    client::string_field(&status.body, "error").unwrap_or_default()
                )),
            };
        }
    };
    let document = run();
    MissOutcome { document, polls }
}

/// `server_miss`: every submission is a request the cache has never
/// seen.
#[derive(Debug)]
pub struct MissSession {
    server: LiveServer,
    seed: u64,
    next_round: u64,
    /// Served digests awaiting their direct-execute cross-check.
    deferred: Vec<(Op, String)>,
}

impl MissSession {
    /// Starts a server on an empty cache and runs round 0 as warm-up.
    pub fn set_up(seed: u64, rec: &mut Recorder, oracle: &mut Verifier) -> MissSession {
        let mut session = MissSession {
            server: LiveServer::start(|_| {}),
            seed,
            next_round: 0,
            deferred: Vec::new(),
        };
        session.round(0, rec, oracle);
        session
    }
}

impl Session for MissSession {
    fn round(&mut self, _round: u64, rec: &mut Recorder, oracle: &mut Verifier) -> u64 {
        // Rounds are numbered by the session, not the phase: a seed is
        // never submitted twice in one run.
        let round = self.next_round;
        self.next_round += 1;
        let ops = requests::miss_round(self.seed, round);
        let count = ops.len() as u64;
        for (i, op) in ops.into_iter().enumerate() {
            let id = round * count + i as u64;
            let request = rec.begin("request", id);
            let outcome = submit_and_poll(self.server.addr, &op.body, id, rec);
            rec.end(request);
            match outcome.document {
                Ok(hex) if requests::miss_slot_is_cross_checked(i) => {
                    self.deferred.push((op, hex));
                }
                Ok(hex) => {
                    oracle.check(op.label, &op.body, hex, None);
                }
                Err(why) => {
                    oracle.judge(op.label, Err(why));
                }
            }
        }
        count
    }

    fn finish(&mut self, oracle: &mut Verifier) {
        let mut off = Recorder::new(false);
        for (op, served) in self.deferred.drain(..) {
            match execute_direct(&op, 0, &mut off) {
                Ok((_, output)) => {
                    let direct = digest(output.document.as_bytes());
                    oracle.check(op.label, &op.body, served, Some(&direct));
                }
                Err(why) => {
                    oracle.judge(op.label, Err(why));
                }
            }
        }
    }

    fn bodies(&self) -> Vec<String> {
        requests::miss_round(self.seed, self.next_round)
            .into_iter()
            .map(|op| op.body)
            .collect()
    }

    fn job_threads(&self) -> usize {
        SERVER_JOB_THREADS
    }
}

/// Sets `workload` up once: builds its requests from `seed`, starts and
/// prefills what it needs, runs its warm-up.
///
/// # Panics
///
/// Panics on a name that is not in the catalog.
pub fn set_up(
    workload: &str,
    seed: u64,
    rec: &mut Recorder,
    oracle: &mut Verifier,
) -> Box<dyn Session> {
    // Most engine workloads warm up on their own round.
    let own = |round: Vec<Template>, rounds: u64| (round.clone(), round, rounds);
    let (warmup, round, warmup_rounds) = match workload {
        "paper_1m" => own(requests::paper_1m(seed), 5),
        "churn_leak" => (
            requests::churn_leak_warmup(seed),
            requests::churn_leak(seed),
            1,
        ),
        "search_frontier" => own(requests::search_frontier(seed), 1),
        "bouncing_mc" => own(requests::bouncing_mc(seed), 1),
        "chaos_campaign" => own(requests::chaos_campaign(seed), 1),
        "server_hit" => return Box::new(HitSession::set_up(seed, rec, oracle)),
        "server_miss" => return Box::new(MissSession::set_up(seed, rec, oracle)),
        other => panic!("unknown workload `{other}`"),
    };
    Box::new(EngineSession::set_up(
        &round,
        &warmup,
        warmup_rounds,
        rec,
        oracle,
    ))
}

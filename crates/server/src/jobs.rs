//! The bounded job queue and its single runner thread.
//!
//! One runner, not a pool: a job already parallelizes internally over
//! the deterministic `ethpos_sim::ChunkPool`, so running two
//! million-validator campaigns concurrently would only make both slower
//! and double peak memory. The queue in front is bounded
//! ([`SubmitOutcome::Full`] → HTTP 429) and **coalescing**: a request
//! whose hash is already queued or running joins the existing job
//! instead of enqueueing a duplicate — concurrent identical submissions
//! cost one execution, then everyone hits the cache.
//!
//! The runner wraps execution in `catch_unwind`: a panicking job is
//! recorded as [`JobStatus::Error`] and the runner keeps serving (the
//! registry side of that story is `ethpos_obs`'s poison recovery).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ethpos_core::{JobOutput, JobRequest};

use crate::cache::ArtifactCache;

/// Job identifier, monotonically assigned from 1.
pub(crate) type JobId = u64;

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobStatus {
    /// Waiting for the runner.
    Queued,
    /// Executing now.
    Running,
    /// Executed and committed to the cache.
    Done,
    /// Execution failed (panicked); the message is the payload.
    Error(String),
}

impl JobStatus {
    /// Wire id for the status endpoint.
    pub(crate) fn id(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Error(_) => "error",
        }
    }
}

/// What the status endpoint knows about one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobSnapshot {
    /// The job id.
    pub id: JobId,
    /// Request kind (`experiment`, `sweep`, …).
    pub kind: &'static str,
    /// The artifact address (the canonical request hash).
    pub hash: String,
    /// Current lifecycle state.
    pub status: JobStatus,
}

/// Outcome of a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SubmitOutcome {
    /// A fresh job was enqueued.
    Queued(JobId),
    /// An identical request is already queued or running; this is its
    /// job.
    Coalesced(JobId),
    /// The queue is at capacity; retry later (HTTP 429).
    Full,
}

struct Table {
    next_id: JobId,
    records: BTreeMap<JobId, JobSnapshot>,
    /// hash → job currently queued or running, the coalescing index.
    in_flight: HashMap<String, JobId>,
    queue: VecDeque<(JobId, JobRequest)>,
}

/// The shared queue: submissions from connection threads, consumption
/// by the runner.
pub(crate) struct JobQueue {
    table: Mutex<Table>,
    ready: Condvar,
    depth: usize,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("depth", &self.depth)
            .finish()
    }
}

impl JobQueue {
    /// A queue admitting at most `depth` waiting jobs.
    pub(crate) fn new(depth: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            table: Mutex::new(Table {
                next_id: 1,
                records: BTreeMap::new(),
                in_flight: HashMap::new(),
                queue: VecDeque::new(),
            }),
            ready: Condvar::new(),
            depth,
        })
    }

    /// Connection threads and the runner both survive each other's
    /// panics; see `ethpos_obs::Registry::lock_families` for the
    /// soundness argument (single-step mutations only).
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits a request under its hash, coalescing duplicates.
    pub(crate) fn submit(&self, request: JobRequest, hash: String) -> SubmitOutcome {
        let mut table = self.lock();
        if let Some(&id) = table.in_flight.get(&hash) {
            return SubmitOutcome::Coalesced(id);
        }
        if table.queue.len() >= self.depth {
            return SubmitOutcome::Full;
        }
        let id = table.next_id;
        table.next_id += 1;
        table.records.insert(
            id,
            JobSnapshot {
                id,
                kind: request.kind(),
                hash: hash.clone(),
                status: JobStatus::Queued,
            },
        );
        table.in_flight.insert(hash, id);
        table.queue.push_back((id, request));
        self.ready.notify_one();
        SubmitOutcome::Queued(id)
    }

    /// Looks a job up for the status endpoint.
    pub(crate) fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        self.lock().records.get(&id).cloned()
    }

    /// Blocks until a job is available and claims it.
    fn next_job(&self) -> (JobId, JobRequest) {
        let mut table = self.lock();
        loop {
            if let Some((id, request)) = table.queue.pop_front() {
                if let Some(record) = table.records.get_mut(&id) {
                    record.status = JobStatus::Running;
                }
                return (id, request);
            }
            table = self.ready.wait(table).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks a job finished and clears its coalescing slot — from here
    /// on, identical requests hit the cache (or, after an error, retry
    /// fresh).
    fn finish(&self, id: JobId, status: JobStatus) {
        let mut table = self.lock();
        if let Some(record) = table.records.get_mut(&id) {
            let hash = record.hash.clone();
            record.status = status;
            table.in_flight.remove(&hash);
        }
    }
}

/// How the runner turns a request into output. Production is
/// [`JobRequest::execute`]; tests inject failures here.
pub(crate) type Executor = Box<dyn Fn(&JobRequest) -> JobOutput + Send>;

/// Spawns the runner thread: claim → execute (panic-fenced) → commit →
/// publish. `threads` is the worker budget handed to every job.
pub(crate) fn spawn_runner(
    queue: Arc<JobQueue>,
    cache: ArtifactCache,
    threads: usize,
    executor: Executor,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("ethpos-job-runner".into())
        .spawn(move || loop {
            let (id, mut request) = queue.next_job();
            request.set_threads(threads);
            let hash = request.request_hash();
            let result = catch_unwind(AssertUnwindSafe(|| executor(&request)));
            let status = match result {
                Ok(output) => match cache.store(&hash, &output) {
                    Ok(()) => {
                        ethpos_obs::global()
                            .counter(
                                "ethpos_server_jobs_completed_total",
                                "Jobs executed and committed to the artifact cache.",
                                &[],
                            )
                            .inc();
                        JobStatus::Done
                    }
                    Err(e) => JobStatus::Error(format!("artifact store failed: {e}")),
                },
                Err(panic) => JobStatus::Error(panic_message(panic)),
            };
            if matches!(status, JobStatus::Error(_)) {
                ethpos_obs::global()
                    .counter(
                        "ethpos_server_jobs_failed_total",
                        "Jobs that panicked or failed to commit.",
                        &[],
                    )
                    .inc();
            }
            queue.finish(id, status);
        })
        .expect("spawn job runner")
}

/// The production executor.
pub(crate) fn default_executor() -> Executor {
    Box::new(|request| request.execute())
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    fn tiny_request(seed: u64) -> (JobRequest, String) {
        let body = format!(r#"{{"kind": "partition", "validators": 400, "seed": {seed}}}"#);
        let request = JobRequest::parse(&body).expect("parses");
        let hash = request.request_hash();
        (request, hash)
    }

    /// A fresh cache and its root, for the test to remove.
    fn temp_cache(tag: &str) -> (ArtifactCache, PathBuf) {
        let root = std::env::temp_dir().join(format!("ethpos-jobs-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        (ArtifactCache::open(&root).expect("open cache"), root)
    }

    fn wait_until(queue: &JobQueue, id: JobId, want: &str) -> JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let snap = queue.snapshot(id).expect("job exists");
            if snap.status.id() == want {
                return snap;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want}, at {:?}",
                snap.status
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn identical_submissions_coalesce_and_fill_rejects() {
        let queue = JobQueue::new(2);
        let (first, first_hash) = tiny_request(1);
        let id = match queue.submit(first.clone(), first_hash.clone()) {
            SubmitOutcome::Queued(id) => id,
            other => panic!("{other:?}"),
        };
        // Same hash again: the existing job, not a second slot.
        assert_eq!(
            queue.submit(first, first_hash),
            SubmitOutcome::Coalesced(id)
        );
        assert_eq!(queue.lock().queue.len(), 1);
        let (second, second_hash) = tiny_request(2);
        assert!(matches!(
            queue.submit(second, second_hash),
            SubmitOutcome::Queued(_)
        ));
        let (third, third_hash) = tiny_request(3);
        assert_eq!(queue.submit(third, third_hash), SubmitOutcome::Full);
    }

    #[test]
    fn runner_executes_commits_and_clears_coalescing() {
        let queue = JobQueue::new(8);
        let (cache, root) = temp_cache("runner");
        let _runner = spawn_runner(
            Arc::clone(&queue),
            cache.clone(),
            1,
            Box::new(|_| JobOutput {
                document: "deterministic bytes\n".into(),
                stats: Some("{}\n".into()),
            }),
        );
        let (request, hash) = tiny_request(4);
        let id = match queue.submit(request.clone(), hash.clone()) {
            SubmitOutcome::Queued(id) => id,
            other => panic!("{other:?}"),
        };
        let done = wait_until(&queue, id, "done");
        assert_eq!(done.hash, hash);
        assert_eq!(
            cache.load_document(&hash).as_deref(),
            Some("deterministic bytes\n")
        );
        // The slot is free: resubmitting enqueues a fresh job (the HTTP
        // layer checks the cache first, so this only happens on a miss).
        assert!(matches!(
            queue.submit(request, hash),
            SubmitOutcome::Queued(_)
        ));
        std::fs::remove_dir_all(root).ok();
    }

    #[test]
    fn panicking_job_reports_error_and_runner_survives() {
        let queue = JobQueue::new(8);
        let (cache, root) = temp_cache("panic");
        let _runner = spawn_runner(
            Arc::clone(&queue),
            cache.clone(),
            1,
            Box::new(|request| {
                if request.kind() == "partition" {
                    panic!("injected fault");
                }
                JobOutput {
                    document: "survived\n".into(),
                    stats: None,
                }
            }),
        );
        let (doomed, doomed_hash) = tiny_request(5);
        let id = match queue.submit(doomed, doomed_hash.clone()) {
            SubmitOutcome::Queued(id) => id,
            other => panic!("{other:?}"),
        };
        let failed = wait_until(&queue, id, "error");
        assert_eq!(failed.status, JobStatus::Error("injected fault".into()));
        assert!(!cache.contains(&doomed_hash), "no cache write on panic");
        // The runner thread is still alive and serves the next job.
        let sweep = JobRequest::parse(r#"{"kind": "sweep"}"#).expect("parses");
        let sweep_hash = sweep.request_hash();
        let id = match queue.submit(sweep, sweep_hash) {
            SubmitOutcome::Queued(id) => id,
            other => panic!("{other:?}"),
        };
        wait_until(&queue, id, "done");
        std::fs::remove_dir_all(root).ok();
    }
}

//! A bounded, generic job queue for a resident service: submissions are
//! admitted up to a capacity (back-pressure instead of unbounded memory),
//! worker threads claim jobs in FIFO order, and a finished job stays
//! queryable until it ages out of the retention window — *every* side of
//! the queue is bounded, so a resident server holds at most
//! `capacity + workers + retention` jobs however long it runs.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Finished jobs (and their outputs) kept queryable, oldest evicted
/// first. Generous for any real polling client — a result only
/// disappears after this many *newer* jobs have finished.
pub const DEFAULT_FINISHED_RETENTION: usize = 1024;

/// A job's identity, unique within one [`JobQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState<O> {
    /// Admitted, waiting for a worker.
    Queued,
    /// Claimed by a worker, executing.
    Running,
    /// Finished successfully with its output.
    Done(O),
    /// Finished with an error message (including captured panics).
    Failed(String),
    /// Cancelled at its deadline before finishing — a terminal state
    /// distinct from [`Failed`](JobState::Failed) so clients can tell
    /// "your spec is broken" from "your job was too slow".
    TimedOut(String),
}

impl<O> JobState<O> {
    /// The lifecycle stage as a lowercase string (the wire format).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::TimedOut(_) => "timed_out",
        }
    }
}

/// How a job run failed — the worker's typed verdict, mapped onto the
/// matching terminal [`JobState`] (and HTTP status at the service
/// layer: `Failed` → 500, `TimedOut` → 504).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job errored; the message is surfaced to the client.
    Error(String),
    /// The job hit its deadline and was cancelled cooperatively.
    TimedOut(String),
}

impl From<String> for JobFailure {
    fn from(message: String) -> Self {
        JobFailure::Error(message)
    }
}

impl From<&str> for JobFailure {
    fn from(message: &str) -> Self {
        JobFailure::Error(message.to_string())
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Error(message) => write!(f, "{message}"),
            JobFailure::TimedOut(message) => write!(f, "timed out: {message}"),
        }
    }
}

/// Aggregate queue counters, as reported by `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Jobs admitted and waiting.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs finished successfully (lifetime total).
    pub done: u64,
    /// Jobs finished with an error (lifetime total, panics included).
    pub failed: u64,
    /// Jobs cancelled at their deadline (lifetime total).
    pub timed_out: u64,
    /// Jobs whose run panicked — isolated by `catch_unwind` and counted
    /// inside `failed`, broken out here so a panicking spec is visible
    /// on `/metrics` (lifetime total).
    pub panicked: u64,
    /// Submissions refused because the queue was full (lifetime total).
    pub rejected: u64,
}

impl QueueStats {
    /// Whether no job is waiting or executing.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.running == 0
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue holds `capacity` pending jobs already.
    QueueFull {
        /// The configured pending-job capacity.
        capacity: usize,
    },
    /// The queue is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue full ({capacity} pending jobs)")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

struct QueueState<I, O> {
    pending: VecDeque<(JobId, I)>,
    jobs: HashMap<JobId, JobState<O>>,
    /// Terminal jobs in completion order — the eviction queue bounding
    /// how many finished outputs stay resident.
    finished: VecDeque<JobId>,
    next_id: u64,
    done: u64,
    failed: u64,
    timed_out: u64,
    panicked: u64,
    rejected: u64,
    shutdown: bool,
}

/// The shared bounded queue. Cheap to clone; all clones view one queue.
pub struct JobQueue<I, O> {
    shared: Arc<Shared<I, O>>,
}

impl<I, O> Clone for JobQueue<I, O> {
    fn clone(&self) -> Self {
        JobQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

struct Shared<I, O> {
    state: Mutex<QueueState<I, O>>,
    work_ready: Condvar,
    job_finished: Condvar,
    capacity: usize,
    retention: usize,
}

impl<I, O: Clone> JobQueue<I, O> {
    /// A queue admitting at most `capacity` pending (not yet claimed)
    /// jobs, retaining the last [`DEFAULT_FINISHED_RETENTION`] finished
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a queue that admits nothing can only
    /// reject.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        JobQueue::bounded_with_retention(capacity, DEFAULT_FINISHED_RETENTION)
    }

    /// As [`bounded`](JobQueue::bounded) with an explicit finished-job
    /// retention window.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `retention` is zero (a finished job must
    /// at least survive its submitter's next status poll).
    #[must_use]
    pub fn bounded_with_retention(capacity: usize, retention: usize) -> Self {
        assert!(capacity > 0, "job queue needs capacity for at least 1 job");
        assert!(
            retention > 0,
            "job queue needs retention for at least 1 job"
        );
        JobQueue {
            shared: Arc::new(Shared {
                state: Mutex::new(QueueState {
                    pending: VecDeque::new(),
                    jobs: HashMap::new(),
                    finished: VecDeque::new(),
                    next_id: 1,
                    done: 0,
                    failed: 0,
                    timed_out: 0,
                    panicked: 0,
                    rejected: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                job_finished: Condvar::new(),
                capacity,
                retention,
            }),
        }
    }

    /// Admits a job, returning its id — or back-pressure when the pending
    /// queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::ShuttingDown`]
    /// after [`shutdown`](JobQueue::shutdown).
    pub fn submit(&self, input: I) -> Result<JobId, SubmitError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.pending.len() >= self.shared.capacity {
            state.rejected += 1;
            return Err(SubmitError::QueueFull {
                capacity: self.shared.capacity,
            });
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.pending.push_back((id, input));
        state.jobs.insert(id, JobState::Queued);
        drop(state);
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// The current state of a job, or `None` for an unknown id.
    #[must_use]
    pub fn status(&self, id: JobId) -> Option<JobState<O>> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Blocks until the job leaves the queued/running states or `timeout`
    /// passes, returning its state at that point: the terminal state as
    /// soon as the job finishes, the still-pending state once the timeout
    /// is spent, and `None` for an unknown (or meanwhile evicted) id.
    #[must_use]
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobState<O>> {
        let start = Instant::now();
        let mut state = self.lock();
        loop {
            let job = state.jobs.get(&id)?;
            let left = timeout.saturating_sub(start.elapsed());
            if !matches!(job, JobState::Queued | JobState::Running) || left.is_zero() {
                return Some(job.clone());
            }
            state = self
                .shared
                .job_finished
                .wait_timeout(state, left)
                .expect("job queue poisoned")
                .0;
        }
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            queued: state.pending.len(),
            running: state
                .jobs
                .values()
                .filter(|s| matches!(s, JobState::Running))
                .count(),
            done: state.done,
            failed: state.failed,
            timed_out: state.timed_out,
            panicked: state.panicked,
            rejected: state.rejected,
        }
    }

    /// Stops admitting work and wakes every blocked worker. Already-claimed
    /// jobs finish; pending jobs are still handed out until drained, so a
    /// graceful shutdown completes everything that was admitted.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        self.shared.job_finished.notify_all();
    }

    /// A worker loop: claims jobs FIFO and records `run`'s verdict, until
    /// shutdown *and* a drained queue. Call from as many threads as the
    /// service wants simulation workers.
    ///
    /// A panicking `run` does **not** kill the worker: the unwind is
    /// caught, the panic message becomes the job's
    /// [`Failed`](JobState::Failed) state, and the loop claims the next
    /// job — one poisoned spec can never take a worker slot (or the
    /// drain) down with it.
    pub fn run_worker(&self, run: impl Fn(JobId, I) -> Result<O, JobFailure>) {
        loop {
            let claimed = {
                let mut state = self.lock();
                loop {
                    if let Some((id, input)) = state.pending.pop_front() {
                        state.jobs.insert(id, JobState::Running);
                        break Some((id, input));
                    }
                    if state.shutdown {
                        break None;
                    }
                    state = self
                        .shared
                        .work_ready
                        .wait(state)
                        .expect("job queue poisoned");
                }
            };
            let Some((id, input)) = claimed else { return };
            // `AssertUnwindSafe`: on panic the closure's captures are
            // dropped with the unwind; the queue itself is only touched
            // again under its (panic-free) lock below.
            let verdict = catch_unwind(AssertUnwindSafe(|| run(id, input)));
            let mut state = self.lock();
            match verdict {
                Ok(Ok(output)) => {
                    state.done += 1;
                    state.jobs.insert(id, JobState::Done(output));
                }
                Ok(Err(JobFailure::Error(message))) => {
                    state.failed += 1;
                    state.jobs.insert(id, JobState::Failed(message));
                }
                Ok(Err(JobFailure::TimedOut(message))) => {
                    state.timed_out += 1;
                    state.jobs.insert(id, JobState::TimedOut(message));
                }
                Err(payload) => {
                    state.failed += 1;
                    state.panicked += 1;
                    let message =
                        format!("job panicked: {}", crate::fault::panic_message(&*payload));
                    state.jobs.insert(id, JobState::Failed(message));
                }
            }
            // Bound the finished side: evict the oldest terminal jobs so a
            // resident server's memory does not grow with lifetime request
            // count (lifetime `done`/`failed` totals survive eviction).
            state.finished.push_back(id);
            while state.finished.len() > self.shared.retention {
                if let Some(evicted) = state.finished.pop_front() {
                    state.jobs.remove(&evicted);
                }
            }
            drop(state);
            self.shared.job_finished.notify_all();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<I, O>> {
        self.shared.state.lock().expect("job queue poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wait bound no test should reach.
    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn jobs_flow_queued_running_done_in_fifo_order() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(8);
        let a = queue.submit(1).unwrap();
        let b = queue.submit(2).unwrap();
        assert_eq!(queue.status(a), Some(JobState::Queued));
        assert_eq!(queue.stats().queued, 2);

        let worker = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.run_worker(|_, n| Ok(n * 10)))
        };
        assert_eq!(queue.wait(a, LONG), Some(JobState::Done(10)));
        assert_eq!(queue.wait(b, LONG), Some(JobState::Done(20)));
        let stats = queue.stats();
        assert_eq!((stats.done, stats.failed), (2, 0));
        assert!(stats.is_idle());
        queue.shutdown();
        worker.join().unwrap();
        assert_eq!(queue.status(JobId(999)), None);
    }

    /// Regression test for unbounded finished-job retention: a resident
    /// service must not accumulate one `Done(report)` per lifetime
    /// request. The retention window evicts oldest-first while keeping
    /// recent results and the lifetime counters.
    #[test]
    fn finished_jobs_age_out_of_the_retention_window() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded_with_retention(16, 3);
        let ids: Vec<JobId> = (0..8).map(|n| queue.submit(n).unwrap()).collect();
        queue.shutdown();
        queue.run_worker(|_, n| Ok(n));
        // Only the 3 most recent results survive; older ids are unknown.
        for old in &ids[..5] {
            assert_eq!(queue.status(*old), None, "{old} should have aged out");
        }
        for (offset, recent) in ids[5..].iter().enumerate() {
            assert_eq!(
                queue.status(*recent),
                Some(JobState::Done(5 + offset as u32))
            );
        }
        // Lifetime counters are not eviction-scoped.
        assert_eq!(queue.stats().done, 8);
        assert!(queue.stats().is_idle());
    }

    #[test]
    fn capacity_gives_back_pressure_and_counts_rejections() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(2);
        queue.submit(1).unwrap();
        queue.submit(2).unwrap();
        assert_eq!(queue.submit(3), Err(SubmitError::QueueFull { capacity: 2 }));
        assert_eq!(queue.stats().rejected, 1);
        queue.shutdown();
        assert_eq!(queue.submit(4), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn failures_are_recorded_and_shutdown_drains_pending_jobs() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(16);
        let ids: Vec<JobId> = (0..6).map(|n| queue.submit(n).unwrap()).collect();
        // Shut down *before* workers start: every admitted job must still
        // run to completion (graceful drain).
        queue.shutdown();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let queue = queue.clone();
                std::thread::spawn(move || {
                    queue.run_worker(|_, n| {
                        std::thread::sleep(Duration::from_millis(1));
                        if n % 2 == 0 {
                            Ok(n)
                        } else {
                            Err(format!("odd {n}").into())
                        }
                    });
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = queue.stats();
        assert_eq!((stats.done, stats.failed), (3, 3));
        assert!(stats.is_idle());
        assert_eq!(queue.status(ids[1]), Some(JobState::Failed("odd 1".into())));
        assert_eq!(queue.wait(ids[2], LONG), Some(JobState::Done(2)));
    }

    /// Panic isolation: a panicking job becomes `Failed` with the panic
    /// message captured, the worker survives to run the next job, and
    /// the panic is counted separately on the stats.
    #[test]
    fn a_panicking_job_fails_without_killing_the_worker() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(8);
        let bad = queue.submit(13).unwrap();
        let good = queue.submit(2).unwrap();
        queue.shutdown();
        queue.run_worker(|_, n| {
            assert!(n != 13, "unlucky number {n}");
            Ok(n)
        });
        assert_eq!(
            queue.status(bad),
            Some(JobState::Failed(
                "job panicked: unlucky number 13".to_string()
            ))
        );
        assert_eq!(queue.status(good), Some(JobState::Done(2)));
        let stats = queue.stats();
        assert_eq!((stats.done, stats.failed, stats.panicked), (1, 1, 1));
        assert!(stats.is_idle());
    }

    /// The deadline verdict: `TimedOut` is terminal (wait returns it),
    /// named distinctly on the wire, and counted apart from failures.
    #[test]
    fn timed_out_jobs_are_a_distinct_terminal_state() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(8);
        let slow = queue.submit(1).unwrap();
        let fine = queue.submit(2).unwrap();
        let worker = {
            let queue = queue.clone();
            std::thread::spawn(move || {
                queue.run_worker(|_, n| {
                    if n == 1 {
                        Err(JobFailure::TimedOut("deadline 0.5s exceeded".to_string()))
                    } else {
                        Ok(n)
                    }
                });
            })
        };
        let state = queue.wait(slow, LONG).unwrap();
        assert_eq!(state, JobState::TimedOut("deadline 0.5s exceeded".into()));
        assert_eq!(state.name(), "timed_out");
        assert_eq!(queue.wait(fine, LONG), Some(JobState::Done(2)));
        let stats = queue.stats();
        assert_eq!((stats.done, stats.failed, stats.timed_out), (1, 0, 1));
        queue.shutdown();
        worker.join().unwrap();
    }

    /// A worker that runs each job only once the test sends on the
    /// returned channel.
    fn gated_worker(
        queue: &JobQueue<u32, u32>,
    ) -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let queue = queue.clone();
        let worker = std::thread::spawn(move || {
            queue.run_worker(|_, n| {
                gate.recv().expect("test dropped the gate");
                Ok(n + 1)
            });
        });
        (release, worker)
    }

    #[test]
    fn wait_returns_the_terminal_state_as_soon_as_the_job_finishes() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(8);
        let id = queue.submit(4).unwrap();
        let (release, worker) = gated_worker(&queue);
        let waiter = {
            let queue = queue.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                (queue.wait(id, LONG), start.elapsed())
            })
        };
        // Most likely the waiter blocks before the job runs; the
        // assertions hold in either order.
        std::thread::sleep(Duration::from_millis(20));
        release.send(()).unwrap();
        let (state, waited) = waiter.join().unwrap();
        assert_eq!(state, Some(JobState::Done(5)));
        assert!(waited < LONG / 3, "the wait outlived its job: {waited:?}");
        queue.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn wait_returns_the_pending_state_once_the_timeout_passes() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(8);
        let id = queue.submit(4).unwrap();
        let bound = Duration::from_millis(30);
        // No worker yet: the job stays queued through the whole wait.
        let start = Instant::now();
        assert_eq!(queue.wait(id, bound), Some(JobState::Queued));
        assert!(start.elapsed() >= bound, "{:?}", start.elapsed());
        assert_eq!(queue.wait(id, Duration::ZERO), Some(JobState::Queued));

        // Claimed but held: the wait times out on a running job too.
        let other = queue.submit(6).unwrap();
        let (release, worker) = gated_worker(&queue);
        while queue.status(id) != Some(JobState::Running) {
            std::thread::yield_now();
        }
        let start = Instant::now();
        assert_eq!(queue.wait(id, bound), Some(JobState::Running));
        assert!(start.elapsed() >= bound, "{:?}", start.elapsed());
        release.send(()).unwrap();
        release.send(()).unwrap();
        assert_eq!(queue.wait(other, LONG), Some(JobState::Done(7)));
        assert_eq!(queue.status(id), Some(JobState::Done(5)));
        queue.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn wait_returns_none_for_an_unknown_id() {
        let queue: JobQueue<u32, u32> = JobQueue::bounded(8);
        queue.submit(1).unwrap();
        let start = Instant::now();
        assert_eq!(queue.wait(JobId(999), LONG), None);
        assert!(start.elapsed() < LONG / 3, "{:?}", start.elapsed());
    }
}

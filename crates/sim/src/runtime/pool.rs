//! A hand-rolled work-stealing executor for task DAGs, with *resident*
//! worker threads.
//!
//! The build environment has no access to `crossbeam`/`rayon`, so this
//! module implements the classic scheme locally with std primitives: one
//! double-ended queue per worker, owners popping LIFO from the back (hot
//! caches), thieves stealing FIFO from the front (the oldest, usually
//! largest subtrees). Tasks are identified by index into a dependency
//! graph; completing a task decrements its successors' pending counts and
//! enqueues the ones that reach zero on the completing worker's own deque.
//!
//! # Ownership model: resident workers, caller first
//!
//! A pool built with [`WorkStealingPool::new`] *owns* its worker threads:
//! they are spawned once at construction, park on a pool-level condvar
//! between jobs, and are joined when the pool drops. Each
//! [`WorkStealingPool::run_dag`] call is a *job*, and the calling thread
//! runs it alone first: no job is published, no lock besides its own
//! deque's is taken, nobody is notified. Phase-1 results are a pure
//! function of their inputs, so who runs a task is invisible to every
//! output; a DAG of cheap tasks therefore costs what its tasks cost.
//!
//! The caller reads the clock after its first task and then every
//! `FORK_CHECK_EVERY` (4) tasks. Once the job has run for `FORK_AFTER`,
//! the tasks left would (at the mean pace so far) run for at least
//! `FORK_AFTER` more, and a ready task is waiting, it *forks*:
//! it deals the ready tasks round-robin onto the participants' deques,
//! publishes the job under the pool lock (bumping a job epoch so
//! sleeping workers cannot miss it), carries on as worker 0, and blocks
//! until every resident worker that entered the job has left it again.
//! That rendezvous is what lets the job closure borrow the caller's
//! stack — the borrow provably outlives every access — at the price of
//! one small `unsafe` type-erasure where the job crosses the thread
//! boundary (see `Job`). The residents run one job at a time: a caller
//! that wants to fork while another caller's job holds them (`try_lock`
//! on the submit lock fails) keeps running alone and retries at its next
//! check. Published jobs are counted ([`WorkStealingPool::forks`], and
//! the `pool.forks` runtime counter when telemetry is installed).
//!
//! [`WorkStealingPool::run_dag_while`] is the other way in: it publishes
//! its job at once, runs a closure on the calling thread while the
//! residents run the DAG, then joins the DAG as worker 0 and meets the
//! residents at the same rendezvous. A server uses it to commit one
//! tick's frames while the residents run the next frames' kernels. When
//! there are no residents to publish to (a single-worker pool, a
//! one-task DAG, residents busy with another caller's job) the closure
//! runs first and the DAG after it, caller first as in `run_dag`.
//!
//! Keeping the workers resident removes the dominant fixed cost of the
//! serving hot path: a multi-stream server executes one kernel DAG per
//! tick, and spawning `workers − 1` OS threads for every tick costs tens
//! of microseconds each — more than a small frame's kernels. The
//! spawn-per-call baseline lives in bench code only (`bench_smoke`'s
//! `serve` section gates the resident pool against a fresh pool per DAG).
//!
//! Idle workers *park* rather than spin, at both levels: between jobs a
//! resident worker blocks on the pool condvar, and within a job a worker
//! with no runnable task blocks on the job's own condvar after a short
//! bounded spin. Both wakeup protocols are epoch-based — every event a
//! sleeper may wait for bumps an epoch counter under the respective mutex
//! before notifying — which makes lost wakeups impossible without timed
//! waits. Waking a parked resident and meeting it again at the
//! rendezvous is the handoff a fork pays; `FORK_AFTER` is set from its
//! measured cost, so a job forks only once it has already run longer
//! than a handoff takes.
//!
//! # Telemetry
//!
//! Instrumentation is paid per job, not per task: each worker counts its
//! tasks, steals and parks locally and adds them once when it leaves the
//! job, and files one `job` span on its own lane covering its time inside
//! the job. Its busy time is that span minus the time it was parked (two
//! clock reads per job, plus two per park).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use fgqos_telemetry::{Counter, SpanRecorder, Telemetry, DEFAULT_SPAN_CAPACITY};

/// A fixed-width work-stealing pool executing dependency DAGs of indexed
/// tasks.
///
/// # Example
///
/// ```
/// use fgqos_sim::runtime::WorkStealingPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// // Diamond: 0 -> {1, 2} -> 3.
/// let succs = vec![vec![1, 2], vec![3], vec![3], vec![]];
/// let indegree = vec![0, 1, 1, 2];
/// let ran = AtomicUsize::new(0);
/// WorkStealingPool::new(4).run_dag(&indegree, &succs, |_i| {
///     ran.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(ran.load(Ordering::Relaxed), 4);
/// ```
pub struct WorkStealingPool {
    workers: usize,
    /// Resident worker threads; `None` for single-worker pools (which
    /// run inline).
    resident: Option<Resident>,
    /// Observe-only instrumentation; `None` (free) until
    /// [`WorkStealingPool::set_telemetry`] installs handles.
    metrics: Option<PoolMetrics>,
}

/// Runtime-class pool instrumentation: steal/park/task/fork counters,
/// per-worker busy time, and the span recorder feeding the Chrome
/// trace export. All of it is schedule-dependent by nature, so every
/// metric registers as [`fgqos_telemetry::Stability::Runtime`].
struct PoolMetrics {
    steals: Counter,
    parks: Counter,
    tasks: Counter,
    /// Jobs published to the resident workers.
    forks: Counter,
    /// Per-worker busy time in microseconds, indexed by worker id.
    busy_us: Vec<Counter>,
    /// Per-worker busy time in nanoseconds: `busy_us` advances by the
    /// whole microseconds this total crosses, so no job's sub-µs
    /// remainder is lost.
    busy_ns: Vec<AtomicU64>,
    spans: SpanRecorder,
}

impl PoolMetrics {
    fn add_busy(&self, worker: usize, ns: u64) {
        let before = self.busy_ns[worker].fetch_add(ns, Ordering::Relaxed);
        self.busy_us[worker].add((before + ns) / 1000 - before / 1000);
    }
}

/// One worker's instrumentation for one job, kept in locals and added to
/// the shared counters, with its `job` span, once when the worker leaves
/// the job.
#[derive(Default)]
struct Tally {
    tasks: u64,
    steals: u64,
    parks: u64,
    /// When the worker entered the job; `None` without telemetry.
    entered: Option<Instant>,
    parked: Duration,
}

impl Tally {
    fn enter(metrics: Option<&PoolMetrics>) -> Self {
        Tally {
            entered: metrics.map(|_| Instant::now()),
            ..Tally::default()
        }
    }

    fn flush(self, metrics: Option<&PoolMetrics>, worker: usize) {
        let Some(m) = metrics else {
            return;
        };
        m.tasks.add(self.tasks);
        m.steals.add(self.steals);
        m.parks.add(self.parks);
        let inside = m.spans.record(worker, "job", "pool", self.entered);
        let busy = inside.unwrap_or_default().saturating_sub(self.parked);
        m.add_busy(worker, busy.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

/// The owned side of a resident pool: shared handoff state plus the
/// worker join handles (threads `1..workers`; the submitter is worker 0).
struct Resident {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// State shared between a resident pool's owner and its worker threads.
struct PoolShared {
    /// Held by the caller whose job the residents serve, from its fork to
    /// its rendezvous: the resident workers execute one job at a time.
    /// Callers only `try_lock` it, so none ever waits here.
    submit: Mutex<()>,
    state: Mutex<PoolState>,
    /// Workers wait here for a new job epoch or shutdown.
    job_cv: Condvar,
    /// The submitter waits here for every entered worker to leave the job.
    idle_cv: Condvar,
    /// Jobs published so far, counted with or without telemetry.
    forks: AtomicU64,
}

struct PoolState {
    /// Bumped once per published job; a worker consumes an epoch at most
    /// once, so a job is never entered twice by the same worker.
    epoch: u64,
    job: Option<Job>,
    /// Resident workers currently inside `job.enter`.
    active: usize,
    shutdown: bool,
}

/// A type-erased job: a pointer to the submitting call's stack-allocated
/// `DagRun` plus the monomorphized entry that knows its real type. Only
/// workers with index `< participants` enter (the DAG may be narrower
/// than the pool).
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    enter: unsafe fn(*const (), usize),
    participants: usize,
}

// SAFETY: `data` points at the submitting thread's `DagRun`, which that
// thread keeps alive for the whole job: every path that `publish`es the
// job reaches `join`, which runs as worker 0, then clears the job slot
// and blocks until `active == 0` — i.e. until every worker that
// dereferenced `data` has returned from `enter`. `run_dag_while` catches
// a panic of its closure and resumes it only after `join`, so not even
// an unwind leaves the pointee early. No access can outlive it, so
// moving the pointer to the worker threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// Monomorphized job entry: recovers the concrete `DagRun` type and runs
/// the work-stealing worker loop on it.
///
/// # Safety
///
/// `data` must point to a live `DagRun<'_, F>` of exactly this `F`, and
/// must remain valid until this call returns (guaranteed by the
/// `join` rendezvous described on [`Job`]).
#[allow(unsafe_code)]
unsafe fn enter_job<F: Fn(usize) + Sync>(data: *const (), w: usize) {
    // SAFETY: the caller guarantees `data` is a live `DagRun<'_, F>` for
    // the duration of this call; see the function's safety contract.
    let dag: &DagRun<'_, F> = unsafe { &*data.cast() };
    let mut tally = Tally::enter(dag.metrics);
    dag.worker(w, &mut tally);
    tally.flush(dag.metrics, w);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poisoning cannot occur: every task panic is caught inside
    // `DagRun::worker`, and nothing else panics while holding a lock.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl PoolShared {
    /// The loop of one resident worker thread (index `me >= 1`): wait for
    /// a job epoch, enter the job if participating, repeat until
    /// shutdown.
    fn worker_loop(&self, me: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut s = lock(&self.state);
                loop {
                    if s.shutdown {
                        return;
                    }
                    if s.epoch != seen {
                        // Consume this epoch exactly once, whether or not
                        // we participate (a job narrower than the pool
                        // leaves high-index workers parked).
                        seen = s.epoch;
                        if let Some(job) = s.job {
                            if me < job.participants {
                                s.active += 1;
                                break job;
                            }
                        }
                        continue;
                    }
                    s = self
                        .job_cv
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            // SAFETY: `active` was incremented under the state lock while
            // the job slot still held this job, so the submitter cannot
            // return from `run_dag` (and invalidate `job.data`) before we
            // decrement it below.
            #[allow(unsafe_code)]
            unsafe {
                (job.enter)(job.data, me);
            }
            let mut s = lock(&self.state);
            s.active -= 1;
            if s.active == 0 {
                self.idle_cv.notify_all();
            }
        }
    }
}

impl WorkStealingPool {
    /// A pool owning `workers` resident worker threads (clamped to at
    /// least 1). The calling thread participates in every job as worker
    /// 0, so `workers − 1` threads are spawned; a single-worker pool
    /// spawns none and runs every DAG inline.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let resident = (workers > 1).then(|| {
            let shared = Arc::new(PoolShared {
                submit: Mutex::new(()),
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                }),
                job_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                forks: AtomicU64::new(0),
            });
            let handles = (1..workers)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("fgqos-pool-{w}"))
                        .spawn(move || shared.worker_loop(w))
                        .expect("spawn pool worker")
                })
                .collect();
            Resident { shared, handles }
        });
        WorkStealingPool {
            workers,
            resident,
            metrics: None,
        }
    }

    /// Install observe-only instrumentation: steal/park/task/fork
    /// counters, per-worker busy time, and a span recorder (one lane per
    /// worker plus one for the coordinating thread) that `telemetry`
    /// exports as a Chrome trace. A disabled `telemetry` clears any previous
    /// instrumentation — the hot path then pays a single `None` check.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            self.metrics = None;
            return;
        }
        let spans = SpanRecorder::new(self.workers + 1, DEFAULT_SPAN_CAPACITY);
        telemetry.install_spans(spans.clone());
        self.metrics = Some(PoolMetrics {
            steals: telemetry.runtime_counter("pool.steals"),
            parks: telemetry.runtime_counter("pool.parks"),
            tasks: telemetry.runtime_counter("pool.tasks"),
            forks: telemetry.runtime_counter("pool.forks"),
            busy_us: (0..self.workers)
                .map(|w| telemetry.runtime_counter(&format!("pool.worker.{w}.busy_us")))
                .collect(),
            busy_ns: (0..self.workers).map(|_| AtomicU64::new(0)).collect(),
            spans,
        });
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs this pool has handed to its resident workers so far — the
    /// `pool.forks` count, kept with or without telemetry. Always 0 on a
    /// single-worker pool.
    #[must_use]
    pub fn forks(&self) -> u64 {
        self.resident
            .as_ref()
            .map_or(0, |res| res.shared.forks.load(Ordering::Relaxed))
    }

    /// Executes every task of a dependency DAG exactly once, respecting
    /// the edges: task `i` runs only after all its predecessors.
    ///
    /// `indegree[i]` is the number of direct predecessors of task `i`;
    /// `succs[i]` lists its direct successors. `run` is invoked once per
    /// task index, possibly concurrently from several workers; all writes
    /// made by a predecessor's `run` happen-before its successors' `run`.
    /// The calling thread runs the DAG alone, and hands it to the
    /// resident workers only once the fork rule in the module docs says
    /// the handoff pays. A single-worker pool never forks. Concurrent
    /// calls on one pool may run at once; the resident workers serve one
    /// of them at a time.
    ///
    /// # Panics
    ///
    /// Panics if `indegree` and `succs` disagree in length, if the edge
    /// counts are inconsistent, or if the graph is cyclic (some tasks
    /// could never become ready — rejected before any task runs). A
    /// panic inside `run` is propagated to the caller after the other
    /// workers have drained; the resident workers survive it.
    pub fn run_dag<F: Fn(usize) + Sync>(&self, indegree: &[usize], succs: &[Vec<usize>], run: F) {
        if let Some(dag) = self.dag_run(indegree, succs, &run) {
            self.run_caller_first(&dag);
        }
    }

    /// Runs `meanwhile` on the calling thread while the resident workers
    /// run the DAG, then joins the DAG as worker 0; returns what
    /// `meanwhile` returned once every task ran. The job is published at
    /// once, with no caller-first phase: the caller has its own work.
    ///
    /// With nobody to publish to — a single-worker pool, a DAG of one
    /// task, or residents serving another caller's job — `meanwhile`
    /// runs first and the DAG after it, as [`WorkStealingPool::run_dag`]
    /// runs it. Either way `meanwhile` and the tasks see the same
    /// inputs, so which of them runs first changes no output of pure
    /// tasks. `meanwhile` must not wait on a task of this DAG.
    ///
    /// # Panics
    ///
    /// As [`WorkStealingPool::run_dag`] for the DAG. A panic in
    /// `meanwhile` is caught until the job is drained and every resident
    /// has left it, then resumed; it takes precedence over a task panic.
    pub fn run_dag_while<F, G, R>(
        &self,
        indegree: &[usize],
        succs: &[Vec<usize>],
        run: F,
        meanwhile: G,
    ) -> R
    where
        F: Fn(usize) + Sync,
        G: FnOnce() -> R,
    {
        let Some(dag) = self.dag_run(indegree, succs, &run) else {
            return meanwhile();
        };
        let residents = (self.resident.as_ref())
            .filter(|_| dag.deques.len() > 1)
            .and_then(|res| try_submit(res).map(|guard| (res, guard)));
        let Some((res, _submit)) = residents else {
            let out = meanwhile();
            self.run_caller_first(&dag);
            return out;
        };
        publish(res, &dag);
        // The residents read `dag` until `join` returns: a panic must not
        // unwind past it.
        let out = catch_unwind(AssertUnwindSafe(meanwhile));
        let mut tally = Tally::enter(dag.metrics);
        join(res, &dag, &mut tally);
        tally.flush(dag.metrics, 0);
        match out {
            Ok(out) => {
                dag.check();
                out
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Validates a DAG and sets up its run with every root on worker 0's
    /// deque; `None` for an empty DAG.
    fn dag_run<'a, F: Fn(usize) + Sync>(
        &'a self,
        indegree: &[usize],
        succs: &'a [Vec<usize>],
        run: &'a F,
    ) -> Option<DagRun<'a, F>> {
        let n = indegree.len();
        assert_eq!(n, succs.len(), "indegree/succs length mismatch");
        let edge_sum: usize = succs.iter().map(Vec::len).sum();
        assert_eq!(
            edge_sum,
            indegree.iter().sum::<usize>(),
            "edge counts inconsistent"
        );
        if n == 0 {
            return None;
        }
        // Reject cyclic graphs up front (Kahn peel over a scratch copy):
        // workers park until `done == total`, so a cycle discovered
        // mid-run would hang them forever instead of failing.
        {
            let mut indeg = indegree.to_vec();
            let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut seen = 0usize;
            while let Some(i) = ready.pop() {
                seen += 1;
                for &s in &succs[i] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(s);
                    }
                }
            }
            assert_eq!(
                seen,
                n,
                "cyclic task graph: {} of {n} tasks can never become ready",
                n - seen
            );
        }
        let workers = self.workers.min(n);
        let dag = DagRun {
            pending: indegree.iter().map(|&d| AtomicUsize::new(d)).collect(),
            succs,
            done: AtomicUsize::new(0),
            total: n,
            poisoned: AtomicBool::new(false),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleepers: AtomicUsize::new(0),
            park_epoch: Mutex::new(0),
            park_cv: Condvar::new(),
            run,
            metrics: self.metrics.as_ref(),
        };
        dag.deque(0).extend((0..n).filter(|&i| indegree[i] == 0));
        Some(dag)
    }

    /// Runs `dag` caller first, then re-raises a task panic.
    fn run_caller_first<F: Fn(usize) + Sync>(&self, dag: &DagRun<'_, F>) {
        let mut tally = Tally::enter(dag.metrics);
        self.run_alone(dag, &mut tally);
        tally.flush(dag.metrics, 0);
        dag.check();
    }

    /// Runs `dag` on the calling thread alone. On a resident pool it
    /// reads the clock after the first task and then every
    /// `FORK_CHECK_EVERY` tasks; when [`worth_forking`] agrees,
    /// a ready task is waiting and the residents are free, it forks and
    /// finishes the job as worker 0.
    fn run_alone<F: Fn(usize) + Sync>(&self, dag: &DagRun<'_, F>, tally: &mut Tally) {
        let fork_to = (self.resident.as_ref())
            .filter(|_| dag.deques.len() > 1)
            .map(|res| (res, Instant::now()));
        let mut ran = 0usize;
        loop {
            // Nobody else runs tasks yet, so an empty deque means the DAG
            // is done (the cycle check guarantees progress).
            let Some(task) = dag.deque(0).pop_back() else {
                return;
            };
            if !dag.execute(0, task, tally) {
                return;
            }
            ran += 1;
            let Some((res, started)) = fork_to else {
                continue;
            };
            if !(ran - 1).is_multiple_of(FORK_CHECK_EVERY) {
                continue;
            }
            if worth_forking(started.elapsed(), ran, dag.total - ran) && !dag.deque(0).is_empty() {
                if let Some(_submit) = try_submit(res) {
                    // The fork: hand the rest of `dag` to the residents
                    // and finish it as worker 0.
                    publish(res, dag);
                    join(res, dag, tally);
                    return;
                }
            }
        }
    }
}

/// Takes the residents for one job, or `None` while another caller's
/// job holds them. Callers never wait here.
fn try_submit(res: &Resident) -> Option<MutexGuard<'_, ()>> {
    match res.shared.submit.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Hands `dag` to the resident workers: deals the waiting tasks onto the
/// participants' deques and publishes the job. The caller holds the
/// submit lock and must [`join`] before `dag` goes out of scope.
fn publish<F: Fn(usize) + Sync>(res: &Resident, dag: &DagRun<'_, F>) {
    let participants = dag.deques.len();
    // Deal the waiting tasks as a fresh job's roots would be dealt.
    let ready = std::mem::take(&mut *dag.deque(0));
    for (j, task) in ready.into_iter().enumerate() {
        dag.deque(j % participants).push_back(task);
    }
    {
        let mut s = lock(&res.shared.state);
        s.epoch += 1;
        s.job = Some(Job {
            data: std::ptr::from_ref(dag).cast(),
            enter: enter_job::<F>,
            participants,
        });
        res.shared.job_cv.notify_all();
    }
    res.shared.forks.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = dag.metrics {
        m.forks.incr();
    }
}

/// Finishes a published `dag` as worker 0. Returns only after the job
/// slot is cleared and every entered worker has left — the rendezvous
/// that makes the borrowed `DagRun` outlive all accesses (see [`Job`]).
fn join<F: Fn(usize) + Sync>(res: &Resident, dag: &DagRun<'_, F>, tally: &mut Tally) {
    dag.worker(0, tally);
    // The DAG is finished (or poisoned): entered workers are on their
    // way out, workers that never woke must no longer enter.
    let mut s = lock(&res.shared.state);
    s.job = None;
    while s.active > 0 {
        s = res
            .shared
            .idle_cv
            .wait(s)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

impl Clone for WorkStealingPool {
    /// Clones the configuration, not the threads: the clone is a fresh
    /// pool of the same width with its own resident workers.
    fn clone(&self) -> Self {
        Self::new(self.workers)
    }
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("workers", &self.workers)
            .field("resident", &self.resident.is_some())
            .finish()
    }
}

impl Drop for WorkStealingPool {
    /// Clean shutdown: flag, wake every parked worker, join them all.
    fn drop(&mut self) {
        if let Some(res) = self.resident.take() {
            {
                let mut s = lock(&res.shared.state);
                s.shutdown = true;
                res.shared.job_cv.notify_all();
            }
            for h in res.handles {
                let _ = h.join();
            }
        }
    }
}

/// Shared state of one `run_dag` call.
struct DagRun<'a, F> {
    pending: Vec<AtomicUsize>,
    succs: &'a [Vec<usize>],
    done: AtomicUsize,
    total: usize,
    poisoned: AtomicBool,
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Workers currently parked (or about to park) on `park_cv`. Lets the
    /// release fast path skip the mutex entirely while everyone is busy.
    sleepers: AtomicUsize,
    /// Wakeup epoch: bumped under the lock by every event a parked worker
    /// may be waiting for (task release, poison, completion).
    park_epoch: Mutex<u64>,
    park_cv: Condvar,
    run: &'a F,
    /// Observe-only instrumentation (borrowed from the pool for the
    /// duration of this job; `None` keeps the hot path branch-cheap).
    metrics: Option<&'a PoolMetrics>,
}

/// How long a job runs on the caller alone before it may fork. A fork
/// pays one handoff: notify the parked residents, wait for one to be
/// scheduled, and meet every entered resident again at the rendezvous.
/// On a 2-core x86-64 host that handoff cost 9 µs at the median (10 µs
/// at p90) over 10,000 jobs of 2 no-op tasks published to the residents
/// at once, each following 50 µs of caller work so the resident had
/// parked again.
/// Twice that keeps a job from forking before the handoff could pay
/// for itself, and a longer job loses at most this much to the late
/// fork. The same bound applies to the work a job has left: a job about
/// to finish is not worth a handoff however long it already ran.
const FORK_AFTER: Duration = Duration::from_micros(20);

/// Whether a caller-first job that ran `ran` tasks in `elapsed`, with
/// `left` still to run, should fork: it has run for `FORK_AFTER`, and at
/// its mean pace so far the tasks left need at least `FORK_AFTER` more.
fn worth_forking(elapsed: Duration, ran: usize, left: usize) -> bool {
    elapsed >= FORK_AFTER
        && elapsed.as_nanos() * left as u128 >= FORK_AFTER.as_nanos() * ran as u128
}

/// Tasks a caller-first run executes between two clock reads, so cheap
/// tasks do not pay a clock read each. The first read follows the first
/// task, so one slow root forks at once; a job of slow tasks forks at
/// most this many tasks late.
const FORK_CHECK_EVERY: usize = 4;

/// Failed `find_task` probes before a worker gives up its core and parks.
/// Releases typically land within a task's span of its siblings, so a
/// short spin catches them without a syscall; anything longer means the
/// DAG is genuinely narrow and the core is better spent elsewhere.
const SPINS_BEFORE_PARK: u32 = 32;

impl<F: Fn(usize) + Sync> DagRun<'_, F> {
    /// Re-raises a task panic once the run is over.
    fn check(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("a task panicked inside WorkStealingPool::run_dag");
        }
        debug_assert_eq!(self.done.load(Ordering::Acquire), self.total);
    }

    fn deque(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        // Poisoning cannot occur: nothing panics while a deque is held.
        self.deques[w]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Owner pops LIFO from its own back; thieves steal FIFO from the
    /// victim's front.
    fn find_task(&self, me: usize, tally: &mut Tally) -> Option<usize> {
        if let Some(t) = self.deque(me).pop_back() {
            return Some(t);
        }
        let k = self.deques.len();
        for off in 1..k {
            if let Some(t) = self.deque((me + off) % k).pop_front() {
                tally.steals += 1;
                return Some(t);
            }
        }
        None
    }

    /// Whether the run is over (successfully or by poisoning).
    ///
    /// SeqCst, matching the SeqCst `sleepers` traffic: the `wake()` fast
    /// path may only skip the lock when "I finished the last task" and "a
    /// worker registered as sleeper" are totally ordered against each
    /// other, so one of the two sides always observes the other.
    fn finished(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst) || self.done.load(Ordering::SeqCst) == self.total
    }

    /// Whether any deque currently holds a task.
    fn has_work(&self) -> bool {
        (0..self.deques.len()).any(|w| !self.deque(w).is_empty())
    }

    /// Wakes parked workers after publishing an event they wait on. The
    /// epoch bump happens under the lock, so a worker that recorded the
    /// pre-bump epoch either sees the new state in its re-check or
    /// observes the bump and retries — a wakeup cannot fall between.
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            // Nobody is parked or committing to park: a worker that
            // registers after this load re-checks the deques/finish flag
            // before waiting, so it cannot miss the event either.
            return;
        }
        let mut epoch = self
            .park_epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *epoch += 1;
        self.park_cv.notify_all();
    }

    /// Blocks until a new task may be available or the run finished.
    fn park(&self, tally: &mut Tally) {
        tally.parks += 1;
        let parked_at = tally.entered.map(|_| Instant::now());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut epoch = self
            .park_epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seen = *epoch;
        // Re-check while registered: any release that happened before we
        // acquired the lock is visible in the deques or the finish flag;
        // any release after it will bump the epoch and notify.
        while !self.finished() && !self.has_work() && *epoch == seen {
            epoch = self
                .park_cv
                .wait(epoch)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(epoch);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if let Some(t) = parked_at {
            tally.parked += t.elapsed();
        }
    }

    /// Runs `task` on worker `me` and releases its ready successors onto
    /// `me`'s deque. Returns `false` if the task panicked, which poisons
    /// the run.
    fn execute(&self, me: usize, task: usize, tally: &mut Tally) -> bool {
        if catch_unwind(AssertUnwindSafe(|| (self.run)(task))).is_err() {
            self.poisoned.store(true, Ordering::SeqCst);
            self.wake();
            return false;
        }
        tally.tasks += 1;
        for &s in &self.succs[task] {
            // The AcqRel decrement publishes this task's writes to
            // whichever worker later runs the released successor.
            if self.pending[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.deque(me).push_back(s);
                self.wake();
            }
        }
        if self.done.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            self.wake();
        }
        true
    }

    /// The work-stealing loop of worker `me` inside a published job.
    fn worker(&self, me: usize, tally: &mut Tally) {
        let mut idle_spins = 0u32;
        loop {
            if self.finished() {
                // Wake the others so they observe completion/poisoning
                // instead of sleeping on it.
                self.wake();
                return;
            }
            let Some(task) = self.find_task(me, tally) else {
                // Nothing to do yet: another worker is still releasing
                // successors. Spin briefly, then park — a blocked worker
                // costs nothing, which is what lets several streams
                // share one pool-sized set of cores.
                idle_spins += 1;
                if idle_spins < SPINS_BEFORE_PARK {
                    std::hint::spin_loop();
                } else {
                    idle_spins = 0;
                    self.park(tally);
                }
                continue;
            };
            idle_spins = 0;
            if !self.execute(me, task, tally) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    /// Spins until `FORK_AFTER` has certainly passed.
    fn spin_past_fork_after() {
        let t0 = Instant::now();
        while t0.elapsed() < 3 * FORK_AFTER {
            std::hint::spin_loop();
        }
    }

    /// Wraps a task body so that the first task to run spins past
    /// `FORK_AFTER` first: the caller-first run then forks at its first
    /// clock check, and the rest of the DAG runs under the residents'
    /// stealing and parking protocol.
    fn forcing_fork(run: impl Fn(usize) + Sync) -> impl Fn(usize) + Sync {
        let first = AtomicBool::new(true);
        move |i| {
            if first.swap(false, Ordering::Relaxed) {
                spin_past_fork_after();
            }
            run(i);
        }
    }

    /// Like [`forcing_fork`], and every later task first waits (bounded)
    /// until tasks of the job have run on two threads: a job that
    /// finishes proves the residents took part.
    fn forcing_fork_onto_residents<'a>(
        seen: &'a Mutex<HashSet<ThreadId>>,
        run: impl Fn(usize) + Sync + 'a,
    ) -> impl Fn(usize) + Sync + 'a {
        let first = AtomicBool::new(true);
        move |i| {
            if first.swap(false, Ordering::Relaxed) {
                spin_past_fork_after();
            } else {
                meet_a_second_thread(seen);
            }
            run(i);
        }
    }

    /// A pool with telemetry installed, so a test can read `pool.forks`.
    fn observed_pool(workers: usize) -> (WorkStealingPool, Telemetry) {
        let t = Telemetry::new();
        let mut pool = WorkStealingPool::new(workers);
        pool.set_telemetry(&t);
        (pool, t)
    }

    fn counter(t: &Telemetry, name: &str) -> u64 {
        t.snapshot().counter(name).unwrap_or(0)
    }

    /// Records the running thread, then waits (bounded) until tasks of
    /// this job have run on at least two threads: a task that returns
    /// proves the residents took part.
    fn meet_a_second_thread(seen: &Mutex<HashSet<ThreadId>>) {
        seen.lock().unwrap().insert(std::thread::current().id());
        let t0 = Instant::now();
        while seen.lock().unwrap().len() < 2 {
            assert!(t0.elapsed() < Duration::from_secs(10), "no resident joined");
            std::thread::yield_now();
        }
    }

    /// A linear chain: strict order must be observed.
    #[test]
    fn chain_runs_in_order() {
        let n = 64;
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let mut indeg = vec![1usize; n];
        indeg[0] = 0;
        let order = Mutex::new(Vec::new());
        let (pool, t) = observed_pool(4);
        pool.run_dag(
            &indeg,
            &succs,
            forcing_fork(|i| {
                order.lock().unwrap().push(i);
            }),
        );
        assert_eq!(counter(&t, "pool.forks"), 1);
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// A wide fan: all tasks run exactly once, across worker counts.
    #[test]
    fn fan_runs_every_task_once() {
        let n = 300;
        let succs = vec![Vec::new(); n];
        let indeg = vec![0usize; n];
        for workers in [1, 2, 5, 16] {
            let (pool, t) = observed_pool(workers);
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run_dag(
                &indeg,
                &succs,
                forcing_fork(|i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }),
            );
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            let forks = u64::from(workers > 1);
            assert_eq!(counter(&t, "pool.forks"), forks, "x{workers}");
        }
    }

    /// Dependencies are respected: each task sees all predecessors done.
    #[test]
    fn diamond_lattice_respects_dependencies() {
        // Grid DAG: (r, c) -> (r+1, c) and (r, c+1); 8x8.
        let (rows, cols) = (8usize, 8usize);
        let idx = |r: usize, c: usize| r * cols + c;
        let n = rows * cols;
        let mut succs = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for r in 0..rows {
            for c in 0..cols {
                if r + 1 < rows {
                    succs[idx(r, c)].push(idx(r + 1, c));
                    indeg[idx(r + 1, c)] += 1;
                }
                if c + 1 < cols {
                    succs[idx(r, c)].push(idx(r, c + 1));
                    indeg[idx(r, c + 1)] += 1;
                }
            }
        }
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let violations = AtomicUsize::new(0);
        let (pool, t) = observed_pool(8);
        pool.run_dag(
            &indeg,
            &succs,
            forcing_fork(|i| {
                let (r, c) = (i / cols, i % cols);
                let ok = (r == 0 || done[idx(r - 1, c)].load(Ordering::Acquire))
                    && (c == 0 || done[idx(r, c - 1)].load(Ordering::Acquire));
                if !ok {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                done[i].store(true, Ordering::Release);
            }),
        );
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    /// Predecessor writes are visible to successors (happens-before).
    #[test]
    fn predecessor_writes_are_visible() {
        let n = 128;
        // 0 -> every other task.
        let mut succs = vec![Vec::new(); n];
        succs[0] = (1..n).collect();
        let mut indeg = vec![1usize; n];
        indeg[0] = 0;
        let cell = AtomicU64::new(0);
        let misses = AtomicUsize::new(0);
        let (pool, t) = observed_pool(6);
        pool.run_dag(
            &indeg,
            &succs,
            forcing_fork(|i| {
                if i == 0 {
                    cell.store(0xDEAD_BEEF, Ordering::Relaxed);
                } else if cell.load(Ordering::Relaxed) != 0xDEAD_BEEF {
                    misses.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert_eq!(misses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkStealingPool::new(0); // clamps to 1
        assert_eq!(pool.workers(), 1);
        let caller = std::thread::current().id();
        let same_thread = AtomicBool::new(false);
        pool.run_dag(&[0], &[vec![]], |_| {
            same_thread.store(std::thread::current().id() == caller, Ordering::Relaxed);
        });
        assert!(same_thread.load(Ordering::Relaxed));
    }

    #[test]
    fn empty_dag_is_a_noop() {
        WorkStealingPool::new(3).run_dag(&[], &[], |_| panic!("no tasks"));
    }

    #[test]
    fn cyclic_graphs_are_rejected_before_running_anything() {
        // 0 -> {1 <-> 2}: task 0 is ready but 1/2 form a cycle. Must
        // panic up front, not run task 0 and hang.
        let ran = AtomicBool::new(false);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            WorkStealingPool::new(2).run_dag(&[0, 2, 1], &[vec![1], vec![2], vec![1]], |_| {
                ran.store(true, Ordering::Relaxed)
            });
        }));
        assert!(err.is_err());
        assert!(!ran.load(Ordering::Relaxed));
    }

    /// A task panic inside a forked job propagates to the caller — and
    /// the resident workers survive it: the same pool executes a clean
    /// forked DAG afterwards.
    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let (pool, t) = observed_pool(2);
        let started = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag(
                &[0, 0],
                &[vec![], vec![]],
                forcing_fork(|_| {
                    // The second task to run runs after the fork.
                    if started.fetch_add(1, Ordering::Relaxed) == 1 {
                        panic!("boom");
                    }
                }),
            );
        }));
        assert!(err.is_err());
        assert_eq!(counter(&t, "pool.forks"), 1);
        let ran = AtomicUsize::new(0);
        pool.run_dag(
            &[0, 0, 0],
            &[vec![], vec![], vec![]],
            forcing_fork(|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        assert_eq!(counter(&t, "pool.forks"), 2);
    }

    /// Alternating narrow/wide stages: during every narrow stage all but
    /// one worker must park, and the following wide stage must wake them
    /// all. Exercises the park/wake protocol under oversubscription far
    /// beyond a single frame's width.
    #[test]
    fn repeated_narrow_wide_transitions_run_to_completion() {
        let stages = 20usize;
        let width = 16usize;
        // Stage 2s: one gate task; stage 2s+1: `width` fan tasks. Each
        // fan task depends on the gate; the next gate depends on the
        // whole fan.
        let per_stage = 1 + width;
        let n = stages * per_stage;
        let gate = |s: usize| s * per_stage;
        let mut succs = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for s in 0..stages {
            for f in 0..width {
                succs[gate(s)].push(gate(s) + 1 + f);
                indeg[gate(s) + 1 + f] += 1;
                if s + 1 < stages {
                    succs[gate(s) + 1 + f].push(gate(s + 1));
                    indeg[gate(s + 1)] += 1;
                }
            }
        }
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let (pool, t) = observed_pool(8);
        pool.run_dag(
            &indeg,
            &succs,
            forcing_fork(|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// Concurrent forking `run_dag` calls on one pool value: the residents
    /// serve one job at a time, a caller that finds them busy keeps
    /// running alone, and every call still executes its whole DAG — the
    /// regime of several threads sharing one server pool.
    #[test]
    fn independent_runs_do_not_interfere() {
        let (pool, t) = observed_pool(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let pool = &pool;
                let total = &total;
                s.spawn(move || {
                    let n = 64;
                    let succs: Vec<Vec<usize>> = (0..n)
                        .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
                        .collect();
                    let mut indeg = vec![1usize; n];
                    indeg[0] = 0;
                    pool.run_dag(
                        &indeg,
                        &succs,
                        forcing_fork(|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 3 * 64);
        assert!((1..=3).contains(&counter(&t, "pool.forks")));
    }

    /// Many forked jobs back to back on one resident pool: the epoch
    /// handoff must not miss or double-run a job even when workers race
    /// the submitter's job-slot clear. (A job forks only with a second
    /// task waiting, so every job has at least two.)
    #[test]
    fn repeated_jobs_reuse_the_resident_workers() {
        let (pool, t) = observed_pool(4);
        for round in 0..200 {
            let n = 2 + round % 7;
            let succs = vec![Vec::new(); n];
            let indeg = vec![0usize; n];
            let ran = AtomicUsize::new(0);
            pool.run_dag(
                &indeg,
                &succs,
                forcing_fork(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            );
            assert_eq!(ran.load(Ordering::Relaxed), n);
        }
        assert_eq!(counter(&t, "pool.forks"), 200);
    }

    /// Narrow jobs leave the spare residents parked; a following wide job
    /// must still reach them through the epoch bump.
    #[test]
    fn narrow_then_wide_jobs_wake_all_residents() {
        let (pool, t) = observed_pool(8);
        for _ in 0..50 {
            let ran = AtomicUsize::new(0);
            pool.run_dag(
                &[0, 0],
                &[vec![], vec![]],
                forcing_fork(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            );
            assert_eq!(ran.load(Ordering::Relaxed), 2);
            let n = 64;
            let succs = vec![Vec::new(); n];
            let indeg = vec![0usize; n];
            let ran = AtomicUsize::new(0);
            pool.run_dag(
                &indeg,
                &succs,
                forcing_fork(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            );
            assert_eq!(ran.load(Ordering::Relaxed), n);
        }
        assert_eq!(counter(&t, "pool.forks"), 100);
    }

    /// Dropping a pool joins its workers; cloning builds fresh ones.
    #[test]
    fn drop_and_clone_are_clean() {
        let pool = WorkStealingPool::new(3);
        let clone = pool.clone();
        assert_eq!(clone.workers(), 3);
        drop(pool);
        let ran = AtomicUsize::new(0);
        clone.run_dag(&[0, 0], &[vec![], vec![]], |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    /// Telemetry counts every task, files one `job` span per worker per
    /// job on that worker's lane, and registers everything as
    /// runtime-class (excluded from the deterministic stable view).
    #[test]
    fn telemetry_counts_tasks_and_exports_spans() {
        let diamond = (vec![0, 1, 1, 2], vec![vec![1, 2], vec![3], vec![3], vec![]]);
        let flat = (vec![0; 400], vec![Vec::new(); 400]);
        for (indegree, succs) in [&diamond, &flat] {
            let n = indegree.len() as u64;
            let (mut pool, t) = observed_pool(2);
            // Holding the residents keeps the job on the caller even where
            // 400 no-op tasks outlast `FORK_AFTER` (a debug build).
            let res = pool.resident.as_ref().expect("two workers have residents");
            let held = try_submit(res).expect("no other job holds them");
            pool.run_dag(indegree, succs, |_| {});
            drop(held);
            let snap = t.snapshot();
            assert_eq!(snap.counter("pool.tasks"), Some(n));
            assert_eq!(snap.counter("pool.forks"), Some(0));
            assert!(snap.counter("pool.steals").is_some());
            assert!(snap.counter("pool.parks").is_some());
            assert!(
                snap.stable_view().is_empty(),
                "pool metrics are runtime-class"
            );
            let spans = t.spans().events();
            assert_eq!(spans.len(), 1, "one span for {n} tasks");
            assert_eq!(
                (spans[0].name, spans[0].cat, spans[0].tid),
                ("job", "pool", 0)
            );
            assert_eq!(t.spans().dropped(), 0);

            // Disabling clears the instrumentation.
            pool.set_telemetry(&Telemetry::disabled());
            pool.run_dag(indegree, succs, |_| {});
            assert_eq!(snap.counter("pool.tasks"), Some(n), "snapshot is a copy");
            assert_eq!(t.snapshot().counter("pool.tasks"), Some(n));
        }

        // A job that forks: each participating worker files its one span
        // on its own lane.
        let (pool, t) = observed_pool(2);
        let seen = Mutex::new(HashSet::new());
        let n = 32;
        pool.run_dag(
            &vec![0; n],
            &vec![Vec::new(); n],
            forcing_fork_onto_residents(&seen, |_| {}),
        );
        assert_eq!(pool.forks(), 1);
        assert_eq!(counter(&t, "pool.tasks"), n as u64);
        let spans = t.spans().events();
        assert!(spans.iter().all(|s| (s.name, s.cat) == ("job", "pool")));
        let lanes: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(lanes, [0, 1], "one span per participating worker");
    }

    /// A DAG of cheap tasks never outlasts `FORK_AFTER`: it runs wholly
    /// on the calling thread and publishes no job.
    #[test]
    fn cheap_dag_runs_on_the_caller_without_forking() {
        let (pool, t) = observed_pool(2);
        let caller = std::thread::current().id();
        let elsewhere = AtomicUsize::new(0);
        pool.run_dag(&[0; 8], &vec![Vec::new(); 8], |_| {
            if std::thread::current().id() != caller {
                elsewhere.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(elsewhere.load(Ordering::Relaxed), 0);
        assert_eq!(counter(&t, "pool.forks"), 0);
        assert_eq!(pool.forks(), 0);
        assert_eq!(counter(&t, "pool.tasks"), 8);
    }

    /// Slow tasks outlast `FORK_AFTER`: the job forks exactly once and
    /// its tasks run on at least two threads.
    #[test]
    fn slow_tasks_fork_once_and_use_the_residents() {
        let (pool, t) = observed_pool(2);
        let seen = Mutex::new(HashSet::new());
        let n = 32;
        pool.run_dag(
            &vec![0; n],
            &vec![Vec::new(); n],
            forcing_fork_onto_residents(&seen, |_| {}),
        );
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert_eq!(pool.forks(), 1);
        assert!(seen.into_inner().unwrap().len() >= 2);
        assert_eq!(counter(&t, "pool.tasks"), n as u64);
    }

    /// Writes the caller made while it ran alone are visible to the
    /// tasks the residents run after the fork.
    #[test]
    fn writes_before_the_fork_reach_the_residents() {
        let n = 16;
        let mut succs = vec![Vec::new(); n];
        succs[0] = (1..n).collect();
        let mut indeg = vec![1usize; n];
        indeg[0] = 0;
        let cells: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let misses = AtomicUsize::new(0);
        let seen = Mutex::new(HashSet::new());
        let caller = std::thread::current().id();
        let on_residents = AtomicUsize::new(0);
        let (pool, t) = observed_pool(2);
        pool.run_dag(&indeg, &succs, |i| {
            if i == 0 {
                // Runs before the fork: plain (relaxed) writes, published
                // to the residents only by the fork itself.
                for (k, c) in cells.iter().enumerate() {
                    c.store(k as u64 + 1, Ordering::Relaxed);
                }
                spin_past_fork_after();
                return;
            }
            meet_a_second_thread(&seen);
            if std::thread::current().id() != caller {
                on_residents.fetch_add(1, Ordering::Relaxed);
            }
            if cells[i].load(Ordering::Relaxed) != i as u64 + 1 {
                misses.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert!(on_residents.load(Ordering::Relaxed) > 0);
        assert_eq!(misses.load(Ordering::Relaxed), 0);
    }

    /// A panic while the caller still runs alone propagates without a
    /// fork, and the pool then runs (and forks) a clean DAG.
    #[test]
    fn panic_before_the_fork_propagates_and_pool_survives() {
        let (pool, t) = observed_pool(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag(&[0, 0, 0], &[vec![], vec![], vec![]], |_| {
                panic!("boom");
            });
        }));
        assert!(err.is_err());
        assert_eq!(counter(&t, "pool.forks"), 0);
        let seen = Mutex::new(HashSet::new());
        let ran = AtomicUsize::new(0);
        pool.run_dag(
            &[0; 4],
            &vec![Vec::new(); 4],
            forcing_fork_onto_residents(&seen, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        assert_eq!(counter(&t, "pool.forks"), 1);
    }

    /// A caller that wants to fork while another caller's job holds the
    /// residents keeps running alone and still finishes its DAG.
    #[test]
    fn caller_finishes_alone_while_another_job_holds_the_residents() {
        let (pool, t) = observed_pool(2);
        let seen = Mutex::new(HashSet::new());
        let holding = AtomicBool::new(false);
        let released = AtomicBool::new(false);
        let wait_for = |flag: &AtomicBool| {
            let t0 = Instant::now();
            while !flag.load(Ordering::Acquire) {
                assert!(t0.elapsed() < Duration::from_secs(10), "flag never set");
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let holder = std::thread::current().id();
            let (pool, seen, holding, released) = (&pool, &seen, &holding, &released);
            // Job A forks, then keeps the resident busy until B is done.
            s.spawn(move || {
                let a_caller = std::thread::current().id();
                assert_ne!(a_caller, holder);
                pool.run_dag(
                    &[0; 8],
                    &vec![Vec::new(); 8],
                    forcing_fork_onto_residents(seen, |_| {
                        if std::thread::current().id() != a_caller
                            && !holding.swap(true, Ordering::AcqRel)
                        {
                            wait_for(released);
                        }
                    }),
                );
            });
            wait_for(holding);
            // Job B: slow enough to want a fork, but the residents are
            // A's, so it runs wholly on this thread.
            let others = AtomicUsize::new(0);
            let n = 8;
            pool.run_dag(
                &vec![0; n],
                &vec![Vec::new(); n],
                forcing_fork(|_| {
                    if std::thread::current().id() != holder {
                        others.fetch_add(1, Ordering::Relaxed);
                    }
                    spin_past_fork_after();
                }),
            );
            assert_eq!(others.load(Ordering::Relaxed), 0);
            released.store(true, Ordering::Release);
        });
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert_eq!(counter(&t, "pool.tasks"), 16);
    }

    /// Waits (bounded) until `flag` is set.
    fn wait_for(flag: &AtomicBool) {
        let t0 = Instant::now();
        while !flag.load(Ordering::Acquire) {
            assert!(t0.elapsed() < Duration::from_secs(10), "flag never set");
            std::thread::yield_now();
        }
    }

    /// On a resident pool, `run_dag_while` publishes its DAG at once: a
    /// task runs on a resident while the closure is still running.
    #[test]
    fn run_dag_while_runs_tasks_on_a_resident_during_the_closure() {
        let (pool, t) = observed_pool(2);
        let caller = std::thread::current().id();
        let on_resident = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let n = 16;
        let seen_inside = pool.run_dag_while(
            &vec![0; n],
            &vec![Vec::new(); n],
            |_| {
                if std::thread::current().id() != caller {
                    on_resident.store(true, Ordering::Release);
                }
                ran.fetch_add(1, Ordering::Relaxed);
            },
            || {
                // Returns only once a resident ran a task.
                wait_for(&on_resident);
                std::thread::current().id() == caller
            },
        );
        assert!(seen_inside, "the closure runs on the caller");
        assert_eq!(ran.load(Ordering::Relaxed), n);
        assert_eq!(counter(&t, "pool.forks"), 1);
        assert_eq!(counter(&t, "pool.tasks"), n as u64);
    }

    /// A single-worker pool runs the closure first, then the whole DAG,
    /// both on the calling thread.
    #[test]
    fn run_dag_while_on_one_worker_runs_the_closure_then_the_dag() {
        let pool = WorkStealingPool::new(1);
        let caller = std::thread::current().id();
        let log = Mutex::new(Vec::new());
        let succs = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let out = pool.run_dag_while(
            &[0, 1, 1, 2],
            &succs,
            |i| {
                assert_eq!(std::thread::current().id(), caller);
                log.lock().unwrap().push(Some(i));
            },
            || {
                assert_eq!(std::thread::current().id(), caller);
                log.lock().unwrap().push(None);
                7
            },
        );
        assert_eq!(out, 7);
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 5);
        assert_eq!(log[0], None, "the closure runs first");
        assert_eq!(log[1], Some(0));
        assert_eq!(log[4], Some(3));
        assert_eq!(pool.forks(), 0);
    }

    /// A panic in the closure waits for the published job: every task
    /// still runs, the residents leave, and then the closure's panic
    /// resumes. The pool survives it.
    #[test]
    fn run_dag_while_drains_the_job_before_resuming_a_closure_panic() {
        let (pool, t) = observed_pool(2);
        let caller = std::thread::current().id();
        let started = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let n = 32;
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag_while(
                &vec![0; n],
                &vec![Vec::new(); n],
                |_| {
                    if std::thread::current().id() != caller {
                        started.store(true, Ordering::Release);
                    }
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_micros(50) {
                        std::hint::spin_loop();
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                },
                || {
                    wait_for(&started);
                    panic!("meanwhile");
                },
            )
        }))
        .expect_err("the closure's panic resumes");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"meanwhile"));
        assert_eq!(ran.load(Ordering::Relaxed), n, "the job was drained");
        assert_eq!(counter(&t, "pool.forks"), 1);
        let again = AtomicUsize::new(0);
        pool.run_dag(&[0; 4], &vec![Vec::new(); 4], |_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 4);
    }

    /// A task that panics on a resident while the closure runs: the
    /// closure still completes, then the task panic propagates, and the
    /// pool survives it.
    #[test]
    fn run_dag_while_propagates_a_task_panic_after_the_closure() {
        let (pool, t) = observed_pool(2);
        let caller = std::thread::current().id();
        let panicked = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag_while(
                &[0; 8],
                &vec![Vec::new(); 8],
                |_| {
                    if std::thread::current().id() != caller
                        && !panicked.swap(true, Ordering::AcqRel)
                    {
                        panic!("task");
                    }
                },
                || {
                    wait_for(&panicked);
                    finished.store(true, Ordering::Release);
                },
            );
        }))
        .expect_err("the task panic propagates");
        assert!(finished.load(Ordering::Acquire), "the closure completed");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"a task panicked inside WorkStealingPool::run_dag")
        );
        assert_eq!(counter(&t, "pool.forks"), 1);
        let seen = Mutex::new(HashSet::new());
        let ran = AtomicUsize::new(0);
        pool.run_dag(
            &[0; 4],
            &vec![Vec::new(); 4],
            forcing_fork_onto_residents(&seen, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    /// The fork rule wants both a job that ran for `FORK_AFTER` and
    /// enough work left to outlast another one.
    #[test]
    fn fork_rule_weighs_time_run_and_work_left() {
        let us = Duration::from_micros;
        assert!(worth_forking(us(60), 1, 1), "one slow task, one to go");
        assert!(worth_forking(us(20), 12, 880), "a pixel frame");
        assert!(!worth_forking(us(19), 12, 880), "not yet");
        assert!(!worth_forking(us(21), 69, 3), "nearly done");
    }

    /// Busy time is accounted per job in nanoseconds, so sub-µs tasks
    /// add up instead of truncating to zero each.
    #[test]
    fn sub_microsecond_tasks_add_up_to_busy_time() {
        let (pool, t) = observed_pool(2);
        let n = 1000;
        pool.run_dag(&vec![0; n], &vec![Vec::new(); n], |_| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_nanos(300) {
                std::hint::spin_loop();
            }
        });
        let busy = counter(&t, "pool.worker.0.busy_us") + counter(&t, "pool.worker.1.busy_us");
        // 1,000 tasks of at least 300 ns each; each worker's total is
        // floored to whole µs once.
        assert!(busy >= 298, "busy {busy} µs");
    }
}

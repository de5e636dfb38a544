//! The micro-batching window: coalescing in-flight single queries.
//!
//! Workers handling `POST /query` do not evaluate; they park the query in
//! the batcher's pending list and block on a per-query outcome slot. A
//! dedicated batcher thread wakes on the first arrival, sleeps for the
//! configured window ([`crate::ServeConfig::batch_window`]) so concurrent
//! requests pile on, then takes the whole list and executes it as **one**
//! [`BatchPlan`] through `execute_batch` — so concurrent same-constraint
//! requests prepare once and share grouped traversals, exactly as they do
//! for explicit `POST /batch` requests.
//!
//! Every batch snapshots the [`crate::IndexSlot`] once; all its answers are
//! stamped with that snapshot's generation, which is what lets clients
//! prove an `/admin/reload` never produced a torn batch (half old index,
//! half new).
//!
//! A worker abandons its slot when the request deadline passes (the
//! batcher still fulfills the slot later; nobody is listening — the `Arc`
//! keeps it sound) and answers the preformatted `504`.

use crate::lock_recover;
use crate::metrics::{Counter, ServerMetrics};
use crate::obs::ServeObs;
use crate::swap::{Epoch, IndexSlot};
use rlc_core::{BatchPlan, Query, QueryError};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One answered query: the evaluation outcome plus the generation stamp of
/// the epoch it was answered under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAnswer {
    /// The evaluation result (`Err` for constraint rejections).
    pub answer: Result<bool, QueryError>,
    /// Generation of the index snapshot that produced the answer.
    pub generation: u64,
}

/// The rendezvous slot one submitted query waits on.
#[derive(Default)]
struct OutcomeSlot {
    done: Mutex<Option<BatchAnswer>>,
    ready: Condvar,
}

impl OutcomeSlot {
    fn fulfill(&self, answer: BatchAnswer) {
        *lock_recover(&self.done) = Some(answer);
        self.ready.notify_all();
    }

    /// Waits for the answer until `deadline`; `None` means the deadline
    /// passed first.
    fn wait_until(&self, deadline: Instant) -> Option<BatchAnswer> {
        let mut done = lock_recover(&self.done);
        loop {
            if let Some(answer) = done.take() {
                return Some(answer);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self
                .ready
                .wait_timeout(done, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            done = guard;
        }
    }
}

/// A query parked in the pending list.
struct Pending {
    query: Query,
    slot: Arc<OutcomeSlot>,
}

/// State shared between submitters and the batcher thread.
struct BatcherState {
    pending: Mutex<Vec<Pending>>,
    arrived: Condvar,
    shutdown: AtomicBool,
}

/// Guard interval for the batcher's idle wait: bounds how long a lost
/// wakeup (or a shutdown raced with a wait) can stall progress.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// The submitting handle workers use (cheaply cloneable).
#[derive(Clone)]
pub struct BatcherClient {
    state: Arc<BatcherState>,
}

impl BatcherClient {
    /// Parks `query` for the next micro-batch and waits for its answer
    /// until `deadline`. `None` means the deadline passed — the caller
    /// answers `504` and walks away; the eventual fulfillment goes nowhere.
    pub fn submit(&self, query: Query, deadline: Instant) -> Option<BatchAnswer> {
        let slot = Arc::new(OutcomeSlot::default());
        {
            let mut pending = lock_recover(&self.state.pending);
            pending.push(Pending {
                query,
                slot: Arc::clone(&slot),
            });
        }
        self.state.arrived.notify_one();
        slot.wait_until(deadline)
    }
}

/// The batcher thread handle, owned by the [`crate::Server`].
pub struct MicroBatcher {
    state: Arc<BatcherState>,
    thread: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the batcher thread. Batches snapshot `slot` and account into
    /// `metrics` and `obs` (window/execute latency; sampled batches leave
    /// EXPLAIN traces in the journal).
    pub fn start(
        window: Duration,
        slot: Arc<IndexSlot>,
        metrics: Arc<ServerMetrics>,
        obs: Arc<ServeObs>,
    ) -> io::Result<(MicroBatcher, BatcherClient)> {
        let state = Arc::new(BatcherState {
            pending: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let thread = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("rlc-serve-batcher".to_owned())
                .spawn(move || batcher_loop(&state, window, &slot, &metrics, &obs))?
        };
        let client = BatcherClient {
            state: Arc::clone(&state),
        };
        Ok((
            MicroBatcher {
                state,
                thread: Some(thread),
            },
            client,
        ))
    }

    /// Stops the batcher after it drains every pending query. Callers must
    /// first stop all submitters (the server joins its workers before
    /// this), so the drain is finite.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.arrived.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The batcher thread: wait for arrivals, give the window a chance to
/// coalesce more, execute the batch on one epoch snapshot, fulfill.
fn batcher_loop(
    state: &BatcherState,
    window: Duration,
    slot: &IndexSlot,
    metrics: &ServerMetrics,
    obs: &ServeObs,
) {
    loop {
        // Phase 1: wait for the first arrival (or an empty-queue shutdown).
        {
            let mut pending = lock_recover(&state.pending);
            loop {
                if !pending.is_empty() {
                    break;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = state
                    .arrived
                    .wait_timeout(pending, IDLE_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
                pending = guard;
            }
        }
        let window_started = Instant::now();
        // Phase 2: the micro-batch window — let concurrent workers pile
        // their queries on before the batch is sealed.
        if !window.is_zero() && !state.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(window);
        }
        let batch: Vec<Pending> = std::mem::take(&mut *lock_recover(&state.pending));
        if batch.is_empty() {
            continue;
        }
        obs.record_batch_window(window_started.elapsed());
        // Phase 3: one epoch snapshot, one BatchPlan, one generation stamp
        // for every answer in the batch.
        let epoch = slot.snapshot();
        let generation = epoch.generation().value();
        let queries: Vec<Query> = batch.iter().map(|p| p.query.clone()).collect();
        let answers = execute_batch(obs, &epoch, &queries, "microbatch");
        metrics.bump(Counter::Microbatches);
        metrics.add(Counter::MicrobatchedQueries, batch.len() as u64);
        for (pending, answer) in batch.into_iter().zip(answers) {
            pending.slot.fulfill(BatchAnswer { answer, generation });
        }
    }
}

/// Executes `queries` as one [`BatchPlan`] on `epoch` and records the
/// execute latency. A batch `obs` samples for EXPLAIN runs through
/// [`BatchPlan::execute_explained`] — identical answers (the differential
/// harness asserts it), plus a plan trace journaled with `origin` and the
/// epoch's generation; every other batch runs through
/// [`BatchPlan::execute`].
pub(crate) fn execute_batch(
    obs: &ServeObs,
    epoch: &Epoch,
    queries: &[Query],
    origin: &str,
) -> Vec<Result<bool, QueryError>> {
    let started = Instant::now();
    let plan = BatchPlan::new(queries);
    let answers = if obs.should_explain() {
        let (answers, mut trace) = epoch.with_engine(|engine| plan.execute_explained(engine));
        trace
            .attr("origin", origin)
            .attr("generation", epoch.generation().value());
        obs.push_trace(trace);
        answers
    } else {
        epoch.with_engine(|engine| plan.execute(engine))
    };
    obs.record_execute(started.elapsed());
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::Epoch;
    use rlc_core::{build_index, BuildConfig, Constraint};
    use rlc_graph::examples::fig2_graph;
    use rlc_graph::{Label, LabeledGraph};

    fn serving_slot(k: usize) -> (Arc<LabeledGraph>, Arc<IndexSlot>) {
        let graph = Arc::new(fig2_graph());
        let (index, _) = build_index(&graph, &BuildConfig::new(k));
        let slot = Arc::new(IndexSlot::new(Epoch::rlc(Arc::clone(&graph), index)));
        (graph, slot)
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    /// Journal-less observability for tests that don't assert on traces.
    fn quiet_obs() -> Arc<ServeObs> {
        Arc::new(ServeObs::new(0, 0))
    }

    #[test]
    fn concurrent_submissions_coalesce_and_answer_correctly() {
        let (graph, slot) = serving_slot(2);
        let metrics = Arc::new(ServerMetrics::new());
        let (batcher, client) = MicroBatcher::start(
            Duration::from_millis(5),
            Arc::clone(&slot),
            Arc::clone(&metrics),
            quiet_obs(),
        )
        .unwrap();
        let queries: Vec<Query> = (0..12u32)
            .map(|i| Query::rlc(i % 6, (i * 5 + 1) % 6, vec![Label(1)]).unwrap())
            .collect();
        let expected: Vec<Result<bool, QueryError>> = {
            let epoch = slot.snapshot();
            epoch.with_engine(|engine| engine.evaluate_batch(&queries))
        };
        let generation = slot.generation_value();
        std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    let client = client.clone();
                    let q = q.clone();
                    scope.spawn(move || client.submit(q, far_deadline()))
                })
                .collect();
            for (handle, expected) in handles.into_iter().zip(&expected) {
                let got = handle.join().unwrap().expect("deadline is far away");
                assert_eq!(&got.answer, expected);
                assert_eq!(got.generation, generation);
            }
        });
        assert!(metrics.get(Counter::Microbatches) >= 1);
        assert_eq!(metrics.get(Counter::MicrobatchedQueries), 12);
        assert!(
            metrics.get(Counter::Microbatches) <= 12,
            "batches never exceed queries"
        );
        batcher.shutdown();
        drop(graph);
    }

    #[test]
    fn rejections_flow_back_as_answers_not_panics() {
        let (_graph, slot) = serving_slot(2);
        let metrics = Arc::new(ServerMetrics::new());
        let (batcher, client) =
            MicroBatcher::start(Duration::ZERO, slot, metrics, quiet_obs()).unwrap();
        // Block of length 3 against k = 2: a deterministic rejection.
        let constraint = Constraint::new(vec![vec![Label(0), Label(1), Label(2)]]).unwrap();
        let answer = client
            .submit(Query::new(0, 5, constraint), far_deadline())
            .expect("deadline is far away");
        assert!(matches!(
            answer.answer,
            Err(QueryError::BlockTooLong { len: 3, k: 2, .. })
        ));
        batcher.shutdown();
    }

    #[test]
    fn sampled_batches_leave_traces_with_identical_answers() {
        let (_graph, slot) = serving_slot(2);
        let metrics = Arc::new(ServerMetrics::new());
        let obs = Arc::new(ServeObs::new(8, 1)); // trace every batch
        let (batcher, client) =
            MicroBatcher::start(Duration::ZERO, Arc::clone(&slot), metrics, Arc::clone(&obs))
                .unwrap();
        let query = Query::rlc(0, 5, vec![Label(1)]).unwrap();
        let expected = slot
            .snapshot()
            .with_engine(|engine| rlc_core::ReachabilityEngine::evaluate(engine, &query));
        let got = client
            .submit(query, far_deadline())
            .expect("deadline is far away");
        assert_eq!(got.answer, expected, "the EXPLAIN path changes nothing");
        batcher.shutdown();
        let traces = obs.journal().last(1);
        assert_eq!(traces.len(), 1, "the sampled batch left its trace");
        assert_eq!(traces[0].find_attr("origin"), Some("microbatch"));
        assert_eq!(
            traces[0].find_attr("generation"),
            Some(format!("{}", slot.generation_value()).as_str())
        );
        for key in ["group", "group_size", "batch_index"] {
            assert!(
                traces[0].find_attr_deep(key).is_some(),
                "per-query nodes carry {key}"
            );
        }
    }

    #[test]
    fn a_passed_deadline_returns_none_immediately() {
        let (_graph, slot) = serving_slot(2);
        let metrics = Arc::new(ServerMetrics::new());
        let (batcher, client) =
            MicroBatcher::start(Duration::from_millis(1), slot, metrics, quiet_obs()).unwrap();
        let query = Query::rlc(0, 5, vec![Label(1)]).unwrap();
        // A deadline already in the past: the submitter must not hang on
        // the window, it answers None (→ 504) right away.
        let started = Instant::now();
        let outcome = client.submit(query, Instant::now() - Duration::from_millis(1));
        assert!(outcome.is_none());
        assert!(started.elapsed() < Duration::from_secs(1));
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let (_graph, slot) = serving_slot(2);
        let metrics = Arc::new(ServerMetrics::new());
        let (batcher, client) = MicroBatcher::start(
            Duration::from_millis(50),
            slot,
            Arc::clone(&metrics),
            quiet_obs(),
        )
        .unwrap();
        // Park a query, then shut down while the batcher is (likely) mid
        // window: the answer must still arrive before shutdown returns.
        let waiter = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.submit(Query::rlc(0, 5, vec![Label(1)]).unwrap(), far_deadline())
            })
        };
        // Give the submission a moment to land in the pending list.
        std::thread::sleep(Duration::from_millis(10));
        batcher.shutdown();
        let answered = waiter.join().unwrap();
        assert!(answered.is_some(), "shutdown drained the pending query");
        assert_eq!(metrics.get(Counter::MicrobatchedQueries), 1);
    }
}

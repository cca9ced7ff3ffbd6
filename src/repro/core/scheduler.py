"""The DAG scheduler: one loop for every backend and DAG shape.

Given stages and their resolved dependencies, :func:`execute_dag`
runs every stage whose dependencies are satisfied.  *When* a stage
may run is decided by one loop over a backend-agnostic
:class:`~repro.core.dag.Frontier`; *where* its attempts run is
delegated to a pluggable :class:`~repro.core.executors.Executor` —
threads by default (right for I/O-bound and GIL-releasing numpy
stages), worker processes for CPU-bound pure-Python stages, or
serial for debugging.  Whatever the backend, orchestration (retries,
backoff, failure policies, commits, events, cache replay) happens on
the parent's threads, so traces, metrics and reports are identical
across backends.

The loop runs in one of two modes.  A *concurrent* run submits every
ready stage to the backend's session at once.  An *inline* run —
a non-``concurrent`` backend such as ``SerialExecutor``, a single
stage, or a chain-shaped DAG, which every legacy wildcard-contract
pipeline resolves to — has at most one stage in flight: it takes the
lowest ready index and runs it in the calling thread, with zero pool
overhead.  Lowest-ready-first over the layer-major stage order is
exactly list order, so an inline run's records, events and abort
bookkeeping follow the pipeline's declaration order.

Execution is *transactional*: each attempt runs against a buffering
:class:`~repro.core.stage._ContractView` and its writes (including
deletions) commit to shared state atomically only on success.  A
failed, retried, skipped, timed-out or cancelled attempt commits
nothing — shared state is exactly what it was before the attempt.

Per-stage failure handling:

* ``retries=N`` re-invokes the stage up to N extra times, sleeping
  an exponentially growing, jittered backoff between attempts,
* then the stage's policy applies: ``fail`` aborts the run (raising
  :class:`StageFailure` carrying the partial report), ``skip``
  records the error and lets the rest of the DAG proceed,
  ``fallback`` runs the stage's fallback callable instead.

Bounded execution:

* ``Stage(timeout=...)`` limits one attempt's wall clock; the view
  raises :class:`StageTimeout` cooperatively at the next state
  access (and the runner re-checks when the attempt returns), after
  which retries / the failure policy apply and the record's status
  becomes ``"timed_out"`` if the policy is ``fail``;
* ``deadline=`` bounds the whole run; when it expires the run is
  cancelled, in-flight attempts abort at their next state access
  with :class:`StageCancelled`, unstarted stages are recorded as
  ``"cancelled"``, and :class:`RunDeadlineExceeded` is raised with
  the partial report and state;
* the first aborting failure likewise cancels every other in-flight
  stage, so nothing keeps mutating state after the run is doomed —
  and concurrent secondary failures are attached to the raised
  :class:`StageFailure` as ``.secondary`` instead of being dropped.

:class:`ContractViolation` is never retried or absorbed by a policy:
a stage touching undeclared state is a programming error, and hiding
it would poison every scheduling decision built on the contract.

Fault injection: a tracer that also exposes an
``inject(stage_name, attempt)`` method (see
:class:`~repro.core.faults.FaultInjector`) is called at the top of
every attempt and may sleep or raise to deterministically simulate
slow, flaky or hung stages.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait

from . import cache as _cache
from . import dag as _dag
from . import executors as _executors
from .events import emit
from .faults import attempt_jitter
from .stage import (
    ContractViolation,
    RunDeadlineExceeded,
    StageCancelled,
    StageFailure,
    StageTimeout,
    _ContractView,
    _RunControl,
)

__all__ = ["execute_dag"]

#: Upper bound on a single backoff sleep, seconds.
BACKOFF_CAP = 2.0


def execute_dag(stages, deps, state, report, *, cache=None, tracer=None,
                deadline=None, copy_on_read=False, metrics=None,
                profiler=None, executor=None, run_id=None,
                cache_keys=None, max_workers=None):
    """Run all stages; mutates ``state`` and ``report`` in place.

    ``executor`` selects the backend (an
    :class:`~repro.core.executors.Executor`, a name, or ``None`` for
    the environment default); ``run_id`` seeds deterministic
    per-attempt jitter.  ``cache_keys`` (one key or ``None`` per
    stage) overrides content-keying entirely — streaming sessions
    pass precomputed replay/execute keys so no fingerprinting of the
    initial state ever happens on the tick path.
    """
    executor = _executors.resolve_executor(executor)
    control = _RunControl(deadline)
    if cache_keys is not None:
        keys = list(cache_keys)
        if len(keys) != len(stages):
            raise ValueError(
                f"cache_keys has {len(keys)} entries for "
                f"{len(stages)} stages")
    else:
        keys = (_cache.stage_keys(stages, deps, state)
                if cache is not None else [None] * len(stages))
    inline = (not executor.concurrent or len(stages) <= 1
              or _dag.is_chain(deps))
    session = executor.begin_run(stages, max_workers=max_workers,
                                 metrics=metrics)
    try:
        run = _StageRunner(stages, state, report, threading.RLock(),
                           cache, keys, tracer, control, session,
                           copy_on_read=copy_on_read, metrics=metrics,
                           profiler=profiler, run_id=run_id,
                           inline=inline)
        frontier = _dag.Frontier(deps)
        ready = frontier.take_ready()
        failures = []
        futures = {}
        while True:
            while ready and not (failures or control.cancelled
                                 or (inline and futures)):
                index = min(ready)
                ready.remove(index)
                run.mark_ready(index)
                future = (_call_inline(run, index) if inline
                          else session.submit(run, index))
                futures[future] = index
            if not futures:
                break
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures.pop(future)
                error = future.exception()
                if error is not None:
                    failures.append(error)
                    # Cancel every other in-flight stage: their next
                    # state access aborts the attempt, and nothing
                    # they did so far was committed.
                    control.cancel(
                        f"stage {stages[index].name!r} aborted the run")
                for j in frontier.complete(index):
                    if not failures and not control.cancelled:
                        frontier.claim(j)
                        ready.append(j)
        # Ready stages an abort kept from starting are claimed but
        # never ran; together with the unclaimed ones they get an
        # audit-trail record each.
        unrun = sorted(ready + frontier.unstarted())
        for j in unrun:
            run.record_cancelled(stages[j], "run aborted")
        if failures:
            primary = failures[0]
            if isinstance(primary, StageFailure):
                primary.secondary = failures[1:]
            raise primary
        if control.cancelled:
            raise RunDeadlineExceeded(
                f"run deadline expired with {len(unrun)} stage(s) "
                "unexecuted", report=report, state=state)
    finally:
        session.finish()


def _call_inline(run, index):
    """Run one stage in the calling thread; a finished future.

    Like a pool worker, it stores any exception — interrupts included
    — in the future; the loop re-raises it after the abort
    bookkeeping.
    """
    future = Future()
    try:
        future.set_result(run(index))
    except BaseException as exc:
        future.set_exception(exc)
    return future


class _StageRunner:
    """Executes one stage: cache lookup, retries, failure policy.

    Also the engine's telemetry source: every attempt, retry, outcome
    and duration is published into the run's
    :class:`~repro.observability.MetricsRegistry` (when given), and a
    :class:`~repro.observability.RunProfiler` (when given) brackets
    each stage with wall/CPU/memory baselines in the worker thread.
    """

    def __init__(self, stages, state, report, lock, cache, keys,
                 tracer, control, session, *, copy_on_read=False,
                 metrics=None, profiler=None, run_id=None, inline=False):
        self._stages = stages
        self.state = state
        self.report = report
        self._lock = lock
        self._cache = cache
        self._keys = keys
        self._tracer = tracer
        self._control = control
        self._session = session
        self._copy_on_read = copy_on_read
        self._inject = getattr(tracer, "inject", None)
        self._profiler = profiler
        self._run_id = "" if run_id is None else str(run_id)
        self._inline = inline
        self._ready = {}
        if metrics is not None:
            self._m_attempts = metrics.counter(
                "engine.stage_attempts_total",
                "Stage execution attempts, including retries")
            self._m_retries = metrics.counter(
                "engine.stage_retries_total",
                "Retry attempts after a failed stage attempt")
            self._m_outcomes = metrics.counter(
                "engine.stage_outcomes_total",
                "Terminal stage outcomes by report status")
            self._m_replays = metrics.counter(
                "engine.stage_cache_replays_total",
                "Stages served from the StageCache instead of running")
            self._m_duration = metrics.histogram(
                "engine.stage_duration_seconds",
                "Stage wall-clock duration across attempts")
            self._m_queue_wait = metrics.histogram(
                "engine.stage_queue_wait_seconds",
                "Delay between a stage becoming ready and starting")
        else:
            self._m_attempts = self._m_retries = None
            self._m_outcomes = self._m_replays = None
            self._m_duration = self._m_queue_wait = None

    # -- telemetry helpers ---------------------------------------------------

    def mark_ready(self, index):
        """Called by the scheduler when a stage's deps are satisfied."""
        with self._lock:
            self._ready[index] = time.perf_counter()

    def _take_queue_wait(self, index):
        with self._lock:
            ready_at = self._ready.pop(index, None)
        if ready_at is None:
            return 0.0
        return max(0.0, time.perf_counter() - ready_at)

    def __call__(self, index):
        stage = self._stages[index]
        queue_wait = self._take_queue_wait(index)
        try:
            self._control.checkpoint(stage.name)
        except StageCancelled:
            reason = self._control.reason or "cancelled"
            self.record_cancelled(stage, reason)
            if reason == "run deadline exceeded":
                raise RunDeadlineExceeded(
                    f"run deadline expired before stage {stage.name!r}",
                    report=self.report, state=self.state)
            return
        if self._m_queue_wait is not None:
            self._m_queue_wait.observe(queue_wait, stage=stage.name)
        token = (self._profiler.stage_begin(stage.name, stage.layer,
                                            queue_wait,
                                            serial=self._inline)
                 if self._profiler is not None else None)
        try:
            self._run_stage(index, stage)
        finally:
            if self._profiler is not None:
                self._profiler.stage_end(token)

    def _run_stage(self, index, stage):
        if self._replay_from_cache(index, stage):
            return
        emit(self._tracer, "stage_start", stage.name, stage.layer)
        attempts = 0
        while True:
            emit(self._tracer, "stage_attempt", stage.name,
                 stage.layer, attempt=attempts)
            if self._m_attempts is not None:
                self._m_attempts.inc(stage=stage.name)
            view = _ContractView(self.state, stage, self._lock,
                                 self._control,
                                 copy_on_read=self._copy_on_read)
            try:
                outcome = self._attempt(index, stage, view, attempts)
            except ContractViolation:
                raise  # programming error: never retried or absorbed
            except StageCancelled:
                self._record_run_cancelled(stage, view, attempts)
                return
            except Exception as exc:
                if attempts < stage.retries:
                    attempts += 1
                    emit(self._tracer, "stage_retry", stage.name,
                         stage.layer, attempt=attempts, error=str(exc))
                    if self._m_retries is not None:
                        self._m_retries.inc(stage=stage.name)
                    self._backoff(stage, attempts)
                    continue
                self._apply_policy(stage, exc, view.elapsed(), attempts)
                return
            self._record_success(index, stage, outcome, view, attempts)
            return

    def _attempt(self, index, stage, view, attempt):
        """One bounded attempt: inject faults, run, enforce timeout.

        A remote attempt ships to the backend's workers and its
        returned delta is grafted into this attempt's view, so
        commit, rollback, retries and cache storage behave exactly as
        for an in-process attempt.
        """
        if self._inject is not None:
            self._inject(stage.name, attempt)
        if self._session.remote(index):
            outcome, delta, deleted = self._session.run_attempt(
                index, stage, self.state, self._lock, self._control,
                attempt)
            view.graft(delta, deleted)
        else:
            outcome = stage.function(view)
        view.check_timeout()
        return outcome

    def _backoff(self, stage, attempt):
        """Jittered exponential pause before the next attempt.

        The jitter factor is derived deterministically from
        (run_id, stage, attempt) — see
        :func:`~repro.core.faults.attempt_jitter` — never from
        process-local RNG state, so reruns of the same run_id back
        off identically on every backend.
        """
        if stage.backoff <= 0:
            return
        delay = min(BACKOFF_CAP, stage.backoff * 2 ** (attempt - 1))
        delay *= attempt_jitter(self._run_id, stage.name, attempt)
        budget = self._control.remaining()
        if budget is not None:
            delay = min(delay, budget)
        if delay > 0:
            time.sleep(delay)

    # -- outcomes ------------------------------------------------------------

    def _record(self, stage, status, summary, seconds, event=None,
                **fields):
        """The one terminal-outcome path: emit ``event`` (a
        ``(kind, data)`` pair, if any), count the outcome, observe the
        duration (cancelled stages have none) and add the record."""
        if event is not None:
            kind, data = event
            emit(self._tracer, kind, stage.name, stage.layer, **data)
        if self._m_outcomes is not None:
            self._m_outcomes.inc(stage=stage.name, status=status)
        if self._m_duration is not None and status != "cancelled":
            self._m_duration.observe(seconds, stage=stage.name)
        with self._lock:
            self.report.add(stage.layer, stage.name, summary, seconds,
                            **{"status": status, **fields})

    def record_cancelled(self, stage, why, seconds=0.0, **fields):
        self._record(stage, "cancelled", f"cancelled: {why}", seconds,
                     ("stage_cancelled", {"reason": why}),
                     error=str(why), **fields)

    def _record_run_cancelled(self, stage, view, attempts):
        reason = self._control.reason or "cancelled"
        self.record_cancelled(stage, reason, view.elapsed(),
                              retries=attempts)
        if reason == "run deadline exceeded":
            raise RunDeadlineExceeded(
                f"run deadline expired during stage {stage.name!r}",
                report=self.report, state=self.state)

    def _replay_from_cache(self, index, stage):
        key = self._keys[index]
        if self._cache is None or key is None:
            return False
        entry = self._cache.get(key)
        if entry is None:
            return False
        started = time.perf_counter()
        delta, deleted = entry.snapshot()
        with self._lock:
            self.state.update(delta)
            for k in deleted:
                self.state.pop(k, None)
        elapsed = time.perf_counter() - started
        if self._m_replays is not None:
            self._m_replays.inc(stage=stage.name)
        self._record(stage, "ok", entry.summary, elapsed,
                     ("cache_hit", {}), cache_hit=True, **entry.details)
        return True

    def _record_success(self, index, stage, outcome, view, attempts):
        summary, details = _split(outcome)
        elapsed = view.elapsed()
        delta, deleted = view.commit()
        key = self._keys[index]
        if self._cache is not None and key is not None:
            self._cache.store(key, summary, details, delta, deleted)
        self._record(stage, "ok", summary, elapsed,
                     ("stage_end", {"seconds": elapsed}),
                     retries=attempts, **dict(details))

    def _apply_policy(self, stage, exc, elapsed, attempts):
        timed_out = isinstance(exc, StageTimeout)
        kind = "stage_timeout" if timed_out else "stage_error"
        emit(self._tracer, kind, stage.name, stage.layer,
             error=str(exc), retries=attempts)
        if stage.on_error == "skip":
            self._record(stage, "skipped", f"skipped: {exc}", elapsed,
                         ("stage_skip", {}), retries=attempts,
                         error=str(exc))
            return
        if stage.on_error == "fallback":
            self._run_fallback(stage, exc, elapsed, attempts)
            return
        status = "timed_out" if timed_out else "failed"
        raise self._fail(stage, status, exc, elapsed, attempts,
                         f"{status.replace('_', ' ')} after "
                         f"{attempts + 1} attempt(s): {exc}") from exc

    def _fail(self, stage, status, exc, seconds, attempts, message,
              event=None):
        """Record a ``fail``-policy outcome; the run-aborting
        :class:`StageFailure` for the caller to raise."""
        self._record(stage, status,
                     f"{status.replace('_', ' ')}: {exc}", seconds,
                     event, retries=attempts, error=str(exc))
        return StageFailure(stage.name, f"stage {stage.name!r} {message}",
                            report=self.report, state=self.state)

    def _run_fallback(self, stage, exc, elapsed, attempts):
        emit(self._tracer, "stage_fallback", stage.name, stage.layer)
        view = _ContractView(self.state, stage, self._lock,
                             self._control,
                             copy_on_read=self._copy_on_read)
        try:
            outcome = stage.fallback(view)
        except ContractViolation:
            raise
        except StageCancelled:
            self._record_run_cancelled(stage, view, attempts)
            return
        except Exception as fallback_exc:
            raise self._fail(
                stage, "failed", fallback_exc, elapsed + view.elapsed(),
                attempts, f"fallback failed: {fallback_exc}",
                ("stage_error", {"error": str(fallback_exc),
                                 "retries": attempts, "fallback": True}),
            ) from fallback_exc
        total = elapsed + view.elapsed()
        view.commit()
        summary, details = _split(outcome)
        self._record(stage, "fallback", summary, total,
                     ("stage_end", {"seconds": total,
                                    "status": "fallback"}),
                     retries=attempts, error=str(exc), **dict(details))


def _split(outcome):
    """A stage's return value as ``(summary, details)``."""
    if isinstance(outcome, tuple):
        return outcome
    return outcome, {}

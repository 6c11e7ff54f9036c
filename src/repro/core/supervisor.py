"""Crash-safe supervised execution of campaign tasks.

:class:`TaskSupervisor` replaces the bare ``ProcessPoolExecutor.map``
harness that a single OOM-killed or hung worker could take down (one
``BrokenProcessPool`` used to discard every completed replica of a
multi-hour sweep).  It schedules tasks individually with
``submit``/``wait``, and supervises them:

* **per-task timeouts** — a hung worker is detected, its pool is killed
  and rebuilt, and the task retried;
* **retry with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`);
* **pool resurrection** — ``BrokenProcessPool`` rebuilds the pool and
  requeues the in-flight tasks instead of raising;
* **graceful degradation** — after ``degrade_after`` consecutive pool
  rebuilds with no completed task, the supervisor falls back to
  in-process sequential execution, where harness faults cannot occur;
* **failure taxonomy** — every failure is classified as one of
  ``crash | timeout | oom | error | poisoned`` (:data:`FAILURE_KINDS`);
* **poison quarantine** — a task that keeps failing past
  ``max_retries`` is quarantined so one pathological grid point cannot
  stall a sweep.

Completed results can be persisted through an ``on_result`` callback,
typically into a :class:`~repro.guard.durable.WriteAheadJournal` — an
append-only, fsynced JSONL log that tolerates torn tails, which is what
makes campaign ``--resume`` after a SIGKILL bit-identical to an
uninterrupted run.

To test the harness honestly, :class:`HarnessFaultInjector` makes
workers crash, hang, or return garbage with configured probability.  It
is env-triggered (the config rides :data:`FAULT_ENV_VAR` into forked
workers) and keyed by ``(seed, task key, attempt)`` so chaos runs are
reproducible; it never fires in the supervisor's own process, so
degraded in-process execution is always safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Optional

from repro.guard.durable import LineAppender

# Re-exported: the journal persists this supervisor's results, and
# perfbench/tracer.py times WriteAheadJournal.append through this module.
from repro.guard.durable import JournalError, WriteAheadJournal  # noqa: F401

#: The failure taxonomy.  ``poisoned`` is terminal (quarantine); the
#: others are retried under the :class:`RetryPolicy`.
FAILURE_KINDS = ("crash", "timeout", "oom", "error", "poisoned")

#: Environment variable carrying the serialized fault-injector config
#: into worker processes.
FAULT_ENV_VAR = "REPRO_HARNESS_FAULTS"

#: Sentinel a sabotaged worker returns instead of a real result; the
#: supervisor rejects it even when no validator is configured.
GARBAGE = "__repro_harness_garbage__"


# -- harness-level fault injection ----------------------------------------------


@dataclass(frozen=True)
class HarnessFaultInjector:
    """Makes *workers* (never the supervisor) misbehave on purpose.

    Each ``(key, attempt)`` pair draws one deterministic uniform from
    ``sha256(seed:key:attempt)`` and compares it against the stacked
    probability thresholds, so a given task attempt always fails the
    same way — chaos tests are exactly reproducible — while retries
    (a new ``attempt``) draw fresh.

    Injection is disabled in the process that created the injector
    (``host_pid``): in-process execution — the ``n_workers=1`` path and
    the degraded sequential fallback — must never sabotage itself.
    """

    crash_prob: float = 0.0     #: worker dies via ``os._exit`` (SIGKILL-like)
    hang_prob: float = 0.0      #: worker sleeps ``hang_s`` (stuck task)
    oom_prob: float = 0.0       #: worker raises :class:`MemoryError`
    error_prob: float = 0.0     #: worker raises :class:`RuntimeError`
    garbage_prob: float = 0.0   #: worker returns :data:`GARBAGE`
    hang_s: float = 3600.0
    seed: int = 0
    host_pid: int = 0
    #: Optional filesystem-fault config for worker processes, as the
    #: dict form of :class:`repro.guard.fsfault.FsFaultConfig` (kept as
    #: a plain dict so the whole injector stays JSON-round-trippable
    #: through :data:`FAULT_ENV_VAR`).  Workers install the fsfault shim
    #: from it on first invocation; the supervisor process never does.
    fs: Optional[dict] = None

    def __post_init__(self) -> None:
        total = (
            self.crash_prob
            + self.hang_prob
            + self.oom_prob
            + self.error_prob
            + self.garbage_prob
        )
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"fault probabilities must sum to <= 1, got {total}")

    def with_host_pid(self) -> "HarnessFaultInjector":
        """Bind the injector to the current (supervisor) process."""
        d = asdict(self)
        d["host_pid"] = os.getpid()
        return HarnessFaultInjector(**d)

    # -- env round-trip (how the config reaches forked workers) ----------------

    def to_env(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_env(cls) -> Optional["HarnessFaultInjector"]:
        raw = os.environ.get(FAULT_ENV_VAR)
        if not raw:
            return None
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                return None
            # Ignore unknown keys so an older worker can parse a config
            # written by a newer supervisor (and vice versa).
            known = {f.name for f in fields(cls)}
            return cls(**{k: v for k, v in data.items() if k in known})
        except (ValueError, TypeError):
            return None

    def fs_config(self):
        """The worker-side :class:`FsFaultConfig`, or ``None``."""
        if not self.fs:
            return None
        from repro.guard.fsfault import FsFaultConfig

        try:
            return FsFaultConfig.from_dict(self.fs)
        except (ValueError, TypeError):
            return None

    # -- the injection itself --------------------------------------------------

    def draw(self, key: str, attempt: int) -> float:
        digest = hashlib.sha256(f"{self.seed}:{key}:{attempt}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault (if any) this attempt draws, without acting on it."""
        u = self.draw(key, attempt)
        edge = 0.0
        for mode, prob in (
            ("crash", self.crash_prob),
            ("hang", self.hang_prob),
            ("oom", self.oom_prob),
            ("error", self.error_prob),
            ("garbage", self.garbage_prob),
        ):
            edge += prob
            if u < edge:
                return mode
        return None

    def maybe_fail(self, key: str, attempt: int) -> Optional[str]:
        """Act out the drawn fault; returns ``"garbage"`` for the caller."""
        if os.getpid() == self.host_pid:
            return None
        mode = self.decide(key, attempt)
        if mode == "crash":
            os._exit(139)
        if mode == "hang":
            time.sleep(self.hang_s)
        if mode == "oom":
            raise MemoryError(f"injected oom for {key} attempt {attempt}")
        if mode == "error":
            raise RuntimeError(f"injected error for {key} attempt {attempt}")
        return mode  # "garbage" or None


def _ensure_worker_fs_faults(injector: "HarnessFaultInjector") -> None:
    """Install the fsfault shim in a *worker* process, exactly once.

    Pooled workers run many tasks; keeping one injector alive across
    them preserves the deterministic op-index stream (and its
    counters).  The supervisor's own process is excluded by the same
    ``host_pid`` guard that protects it from harness faults.
    """
    if not injector.fs or os.getpid() == injector.host_pid:
        return
    from repro.guard import fsfault

    if fsfault.active() is None:
        cfg = injector.fs_config()
        if cfg is not None:
            fsfault.install(fsfault.FsFaultInjector(cfg))


def _invoke(worker_fn: Callable, key: str, attempt: int, payload: Any) -> Any:
    """Worker-side entrypoint: run the harness fault gate, then the task."""
    injector = HarnessFaultInjector.from_env()
    if injector is not None:
        _ensure_worker_fs_faults(injector)
        if injector.maybe_fail(key, attempt) == "garbage":
            return GARBAGE
    return worker_fn(payload)


# -- retry policy ----------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout/quarantine knobs of the supervisor."""

    max_retries: int = 5        #: failed attempts before quarantine
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.5         #: +/- fraction of the backoff randomized
    timeout_s: Optional[float] = None   #: per-task deadline (None = none)
    degrade_after: int = 3      #: consecutive fruitless pool rebuilds

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry ``attempt`` (1-based), jittered."""
        base = self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1)
        base = min(base, self.backoff_max_s)
        if self.jitter <= 0:
            return base
        spread = self.jitter * base
        return max(0.0, base - spread + 2.0 * spread * rng.random())


# -- supervision records ---------------------------------------------------------


@dataclass
class TaskFailure:
    """One classified failure of one task attempt."""

    key: str
    kind: str       #: one of :data:`FAILURE_KINDS`
    attempt: int
    detail: str


@dataclass
class SupervisorStats:
    """Telemetry of one supervised run (kept out of campaign reports)."""

    completed: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    aborted: bool = False       #: clean resumable abort (resource guard / ENOSPC)
    abort_reason: str = ""
    failures: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
    by_kind: dict = field(
        default_factory=lambda: {kind: 0 for kind in FAILURE_KINDS}
    )

    def merge(self, other: "SupervisorStats") -> None:
        self.completed += other.completed
        self.retries += other.retries
        self.pool_rebuilds += other.pool_rebuilds
        self.degraded = self.degraded or other.degraded
        self.aborted = self.aborted or other.aborted
        if not self.abort_reason:
            self.abort_reason = other.abort_reason
        self.failures.extend(other.failures)
        self.quarantined.extend(other.quarantined)
        for kind, n in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + n

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={n}" for k, n in self.by_kind.items() if n)
        return (
            f"completed={self.completed} retries={self.retries} "
            f"rebuilds={self.pool_rebuilds} degraded={self.degraded} "
            f"quarantined={len(self.quarantined)}"
            + (f" aborted={self.abort_reason!r}" if self.aborted else "")
            + (f" [{kinds}]" if kinds else "")
        )


class _SupervisorAbort(RuntimeError):
    """Internal: unwind the supervision loops for a clean resumable abort.

    Raised when the resource guard's ladder reaches its abort stage, or
    when a durable write (``on_result``) fails with an :class:`OSError`
    — every journaled record is already fsynced, so stopping *now*
    leaves a valid journal that ``--resume`` can complete from.
    """


@dataclass
class SupervisorResult:
    """Results keyed by task key; quarantined tasks are absent."""

    results: dict
    stats: SupervisorStats


@dataclass
class _Task:
    key: str
    payload: Any
    attempts: int = 0
    not_before: float = 0.0
    deadline: float = float("inf")


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool, reaping hung/dead workers."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


# -- the supervisor --------------------------------------------------------------


class TaskSupervisor:
    """Run ``worker_fn`` over keyed payloads, surviving worker failure.

    Parameters
    ----------
    worker_fn:
        Module-level (picklable) pure function of one payload.
    n_workers:
        Worker processes; 1 runs in-process sequentially (no pool, no
        harness faults possible).
    retry:
        The :class:`RetryPolicy`; defaults are sensible for campaigns.
    validate:
        Optional predicate on results; a failing result is classified
        ``error`` and retried (this is what catches garbage).
    on_result:
        Called ``on_result(key, result)`` once per *first* completion —
        the write-ahead hook.  Quarantined tasks never reach it.
    on_quarantine:
        Called ``on_quarantine(key, failures)`` when a task is poisoned
        (retries exhausted), with its accumulated :class:`TaskFailure`
        records — the cleanup hook (e.g. discard the task's partial
        snapshots so they cannot seed a future resume).
    fault_injector:
        Optional :class:`HarnessFaultInjector` exported to workers for
        the duration of the run (chaos testing).
    seed:
        Seeds the deterministic backoff jitter.
    obs:
        Optional observability hook (duck-typed; canonically a
        :class:`repro.obs.instrument.SupervisorObs`).  Receives the task
        lifecycle — ``task_started/completed/failed/retried/quarantined``,
        ``pool_rebuilt``, ``degraded`` — plus a ``tick()`` per
        supervision-loop iteration for heartbeat/flush driving.  Hook
        exceptions are deliberately not swallowed here; the canonical
        implementation only mutates in-process counters/spans and
        guards its own I/O.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        n_workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        validate: Optional[Callable[[Any], bool]] = None,
        on_result: Optional[Callable[[str, Any], None]] = None,
        on_quarantine: Optional[Callable[[str, list], None]] = None,
        fault_injector: Optional[HarnessFaultInjector] = None,
        seed: int = 0,
        obs=None,
        guard=None,
        failure_log_path: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.worker_fn = worker_fn
        self.n_workers = n_workers
        self.retry = retry or RetryPolicy()
        self.validate = validate
        self.on_result = on_result
        self.on_quarantine = on_quarantine
        self.fault_injector = fault_injector
        self.obs = obs
        self.guard = guard
        #: optional append-only JSONL of TaskFailure records (crashes,
        #: hangs, garbage, quarantines) for post-mortem forensics; writes
        #: are best-effort — an I/O error disables the log, never the run
        self.failure_log_path = failure_log_path
        self._failure_log: Optional[LineAppender] = None
        self._rng = random.Random(seed)

    # -- public entrypoint -----------------------------------------------------

    def run(self, tasks) -> SupervisorResult:
        """Run ``tasks`` (an iterable of ``(key, payload)``) to completion.

        A resource-guard abort (or an ``OSError`` from the ``on_result``
        durable-write hook) does not raise: the run stops cleanly with
        ``stats.aborted`` set and every already-journaled result intact,
        so the caller can surface a *resumable* exit.
        """
        stats = SupervisorStats()
        results: dict = {}
        queue = deque(_Task(key, payload) for key, payload in tasks)
        if not queue:
            return SupervisorResult(results, stats)
        try:
            if self.n_workers == 1:
                self._run_sequential(queue, results, stats)
            else:
                saved = self._install_fault_env()
                try:
                    self._run_supervised(queue, results, stats)
                finally:
                    self._restore_fault_env(saved)
        except _SupervisorAbort as exc:
            stats.aborted = True
            stats.abort_reason = str(exc)
        finally:
            self._close_failure_log()
        return SupervisorResult(results, stats)

    def _guard_poll(self) -> None:
        """Tick the resource guard; unwind when its ladder says abort."""
        if self.guard is None:
            return
        tick = getattr(self.guard, "tick", None)
        if tick is not None:
            tick()
        if self.guard.abort_requested:
            raise _SupervisorAbort(
                self.guard.abort_reason or "resource guard requested abort"
            )

    def _paused(self) -> bool:
        return self.guard is not None and self.guard.paused

    # -- supervised (process-pool) path ----------------------------------------

    def _run_supervised(self, queue, results, stats) -> None:
        pool = ProcessPoolExecutor(max_workers=self.n_workers)
        inflight: dict = {}
        strikes = 0  # consecutive rebuilds without a completed task
        try:
            while queue or inflight:
                if self.obs is not None:
                    self.obs.tick()
                self._guard_poll()
                now = time.monotonic()
                if self._paused():
                    # Backpressure: stop launching, keep harvesting.  The
                    # ladder bounds total pause time (then escalates to
                    # abort), so this cannot livelock.
                    broken = False
                    if not inflight:
                        time.sleep(0.05)
                        continue
                else:
                    broken = not self._submit_ready(pool, queue, inflight, now)
                if not broken:
                    if not inflight:
                        self._sleep_until_ready(queue, now)
                        continue
                    done, _ = wait(
                        list(inflight),
                        timeout=self._wait_timeout(queue, inflight),
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        task = inflight.pop(fut)
                        kind, detail, value = self._harvest(fut)
                        if kind is None:
                            self._complete(task, value, results, stats)
                            strikes = 0
                        else:
                            broken = broken or kind == "crash"
                            self._charge(task, kind, detail, queue, stats)
                    broken = self._reap_overdue(inflight, queue, stats) or broken
                if broken:
                    pool = self._rebuild(pool, inflight, queue, stats)
                    strikes += 1
                    if strikes >= self.retry.degrade_after:
                        stats.degraded = True
                        if self.obs is not None:
                            self.obs.degraded()
                        break
        finally:
            _kill_pool(pool)
        if queue:  # degraded: finish in-process, where workers can't die
            self._run_sequential(queue, results, stats)

    def _submit_ready(self, pool, queue, inflight, now) -> bool:
        """Top up the pool; returns False when the pool is broken."""
        while len(inflight) < self.n_workers and queue:
            task = self._pop_ready(queue, now)
            if task is None:
                break
            try:
                fut = pool.submit(
                    _invoke, self.worker_fn, task.key, task.attempts + 1,
                    task.payload,
                )
            except (BrokenProcessPool, RuntimeError):
                task.not_before = now
                queue.appendleft(task)
                return False
            if self.retry.timeout_s is not None:
                task.deadline = now + self.retry.timeout_s
            inflight[fut] = task
            if self.obs is not None:
                self.obs.task_started(task.key, task.attempts + 1)
        return True

    @staticmethod
    def _pop_ready(queue, now) -> Optional[_Task]:
        for _ in range(len(queue)):
            task = queue.popleft()
            if task.not_before <= now:
                return task
            queue.append(task)
        return None

    @staticmethod
    def _sleep_until_ready(queue, now) -> None:
        wake = min(task.not_before for task in queue)
        time.sleep(min(max(wake - now, 0.01), 0.5))

    def _wait_timeout(self, queue, inflight) -> float:
        now = time.monotonic()
        horizon = [task.deadline - now for task in inflight.values()]
        horizon += [task.not_before - now for task in queue]
        nearest = min(horizon) if horizon else 0.25
        return min(max(nearest, 0.02), 0.25)

    def _harvest(self, fut):
        """Classify one finished future → (kind|None, detail, value)."""
        try:
            value = fut.result(timeout=0)
        except BrokenProcessPool as exc:
            return "crash", f"worker process died: {exc}", None
        except MemoryError as exc:
            return "oom", str(exc), None
        except Exception as exc:
            return "error", f"{type(exc).__name__}: {exc}", None
        return self._check(value)

    def _check(self, value):
        if isinstance(value, str) and value == GARBAGE:
            return "error", "worker returned garbage", None
        if self.validate is not None and not self.validate(value):
            return "error", "result failed validation", None
        return None, "", value

    def _reap_overdue(self, inflight, queue, stats) -> bool:
        """Time out overdue tasks; hung workers force a pool rebuild."""
        now = time.monotonic()
        overdue = [fut for fut, task in inflight.items() if now >= task.deadline]
        for fut in overdue:
            task = inflight.pop(fut)
            self._charge(
                task, "timeout",
                f"no result within {self.retry.timeout_s}s", queue, stats,
            )
        return bool(overdue)

    def _rebuild(self, pool, inflight, queue, stats) -> ProcessPoolExecutor:
        """Kill the pool, requeue in-flight tasks uncharged, start fresh."""
        now = time.monotonic()
        for fut in list(inflight):
            task = inflight.pop(fut)
            task.not_before = now
            task.deadline = float("inf")
            queue.append(task)
        _kill_pool(pool)
        stats.pool_rebuilds += 1
        if self.obs is not None:
            self.obs.pool_rebuilt()
        return ProcessPoolExecutor(max_workers=self.n_workers)

    # -- sequential (in-process) path ------------------------------------------

    def _run_sequential(self, queue, results, stats) -> None:
        while queue:
            self._guard_poll()
            if self._paused():
                time.sleep(0.05)
                continue
            task = queue.popleft()
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(min(delay, self.retry.backoff_max_s))
            if self.obs is not None:
                self.obs.tick()
                self.obs.task_started(task.key, task.attempts + 1)
            try:
                value = _invoke(
                    self.worker_fn, task.key, task.attempts + 1, task.payload
                )
            except MemoryError as exc:
                self._charge(task, "oom", str(exc), queue, stats)
                continue
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                self._charge(task, "error", detail, queue, stats)
                continue
            kind, detail, value = self._check(value)
            if kind is not None:
                self._charge(task, kind, detail, queue, stats)
                continue
            self._complete(task, value, results, stats)

    # -- bookkeeping shared by both paths --------------------------------------

    def _complete(self, task, value, results, stats) -> None:
        results[task.key] = value
        stats.completed += 1
        if self.obs is not None:
            self.obs.task_completed(task.key)
        if self.on_result is not None:
            try:
                self.on_result(task.key, value)
            except OSError as exc:
                # Durable write failed (disk full, dying device...).
                # Retrying the task cannot help — the task succeeded,
                # the *journal* is what's sick — so stop cleanly.  The
                # unjournaled result is recomputed on resume; replicas
                # are pure functions of their payload, so the resumed
                # report stays bit-identical.
                raise _SupervisorAbort(
                    f"durable write failed for {task.key}: {exc}"
                ) from exc

    def _charge(self, task, kind, detail, queue, stats) -> None:
        task.attempts += 1
        task.deadline = float("inf")
        stats.failures.append(TaskFailure(task.key, kind, task.attempts, detail))
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        self._log_failure(task.key, kind, task.attempts, detail)
        if self.obs is not None:
            self.obs.task_failed(task.key, kind)
        if task.attempts > self.retry.max_retries:
            stats.quarantined.append(task.key)
            stats.by_kind["poisoned"] += 1
            stats.failures.append(
                TaskFailure(
                    task.key, "poisoned", task.attempts,
                    f"quarantined after {task.attempts} failures (last: {kind})",
                )
            )
            self._log_failure(
                task.key, "poisoned", task.attempts,
                f"quarantined after {task.attempts} failures (last: {kind})",
            )
            if self.obs is not None:
                self.obs.task_quarantined(task.key)
            if self.on_quarantine is not None:
                self.on_quarantine(
                    task.key,
                    [f for f in stats.failures if f.key == task.key],
                )
            return
        stats.retries += 1
        delay = self.retry.backoff_delay(task.attempts, self._rng)
        task.not_before = time.monotonic() + delay
        if self.obs is not None:
            self.obs.task_retried(task.key, delay)
        queue.append(task)

    # -- failure log -----------------------------------------------------------

    def _log_failure(self, key: str, kind: str, attempt: int, detail: str) -> None:
        """Best-effort JSONL append of one harness failure."""
        if self.failure_log_path is None:
            return
        if self._failure_log is None:
            self._failure_log = LineAppender(self.failure_log_path)
        self._failure_log.write(
            json.dumps(
                {
                    "t_wall": time.time(),
                    "key": key,
                    "kind": kind,
                    "attempt": attempt,
                    "detail": str(detail),
                },
                sort_keys=True,
            )
        )

    def _close_failure_log(self) -> None:
        # A failed log stays failed: later runs of this supervisor skip it.
        if self._failure_log is not None and not self._failure_log.failed:
            self._failure_log.close()
            self._failure_log = None

    # -- chaos env plumbing ----------------------------------------------------

    def _install_fault_env(self) -> Optional[str]:
        if self.fault_injector is None:
            return None
        saved = os.environ.get(FAULT_ENV_VAR)
        os.environ[FAULT_ENV_VAR] = self.fault_injector.with_host_pid().to_env()
        return saved if saved is not None else ""

    def _restore_fault_env(self, saved: Optional[str]) -> None:
        if self.fault_injector is None:
            return
        if saved:
            os.environ[FAULT_ENV_VAR] = saved
        else:
            os.environ.pop(FAULT_ENV_VAR, None)

"""Concurrent user-transaction execution on worker threads.

The threaded engine puts phase-2 restores on a worker pool; this module
does the same for **user transactions**.  The paper's commit
path was designed for exactly this: per-transaction SLB block chains mean
committing transactions never serialise on a log tail (section 3.2), and
the no-wait two-phase locking policy (section 2.3.2) resolves conflicts
by rolling the loser back instead of blocking it.

:class:`ConcurrentScheduler` keeps the :class:`InterleavedScheduler`
contract — submit replayable generator *scripts*, call :meth:`run`, get
per-script results in submission order — but executes the scripts on a
pool of host worker threads when the database runs a
:class:`~repro.engine.threaded.ThreadedEngine`:

* each worker drives one script at a time through begin → operations →
  commit on its own thread;
* a worker that loses a lock conflict lets the no-wait abort roll the
  transaction back (UNDO), then requeues the script with the same
  staggered backoff the cooperative scheduler uses — expressed in host
  time so sleeping scripts do not occupy a worker;
* a simulated crash (or any other error) on any worker stops the pool
  and re-raises on the calling thread, exactly like the sequential path.

**Determinism contract:** on :class:`~repro.engine.sim.SimEngine` — or
whenever the pool size degenerates to one — :meth:`run` executes the
inherited cooperative round-robin unchanged, so simulation-vs-model
benchmarks and every metered total stay bit-identical to
:class:`InterleavedScheduler`.  Real concurrency is opted into via the
threaded engine plus ``workers > 1`` (default: the engine's worker count,
overridable with ``REPRO_SCHEDULER_WORKERS``).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.engine.threaded import ThreadedEngine
from repro.sim.clock import host_now, host_pause
from repro.txn.scheduler import (
    InterleavedScheduler,
    SchedulerError,
    ScriptResult,
    _RunningScript,
)
from repro.txn.transaction import TxnState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

#: Host seconds per backoff slot.  The cooperative scheduler's backoff is
#: counted in scheduling slots; here a slot is this many host seconds, so
#: ``next_backoff()`` keeps its livelock-avoidance stagger across threads.
BACKOFF_SLOT_SECONDS = 0.0005

#: Idle poll while the run queue is empty but peers may still requeue.
_IDLE_POLL_SECONDS = 0.0002


def _workers_from_env() -> int | None:
    raw = os.environ.get("REPRO_SCHEDULER_WORKERS", "").strip()
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


class ConcurrentScheduler(InterleavedScheduler):
    """Executes transaction scripts on a pool of worker threads.

    Drop-in for :class:`InterleavedScheduler`; see the module docstring
    for the determinism contract.  Counters (``committed``, ``conflicts``,
    ``retries``, ``max_attempts_seen``, per-worker utilisation) accumulate
    across runs and are surfaced through ``Database.stats()["scheduler"]``
    and ``Monitor.snapshot()["scheduler"]``.
    """

    def __init__(
        self,
        db: "Database",
        max_attempts: int = 20,
        workers: int | None = None,
    ):
        super().__init__(db, max_attempts)
        if workers is None:
            workers = _workers_from_env()
        if workers is None:
            engine = db.engine
            workers = engine.workers if isinstance(engine, ThreadedEngine) else 1
        if workers < 1:
            raise SchedulerError("workers must be at least 1")
        self.workers = workers
        self.committed = 0
        self.failed = 0
        self.retries = 0
        self.max_attempts_seen = 0
        self.runs = 0
        self._stats_mutex = threading.Lock()
        self._worker_stats: list[dict] = []
        self._last_elapsed = 0.0
        db.register_scheduler(self)

    # -- sizing -----------------------------------------------------------------

    @property
    def effective_workers(self) -> int:
        """Pool size the next :meth:`run` will actually use.

        Real threads require the threaded engine; on ``SimEngine`` the
        scheduler always degenerates to the deterministic round-robin.
        """
        if not isinstance(self.db.engine, ThreadedEngine):
            return 1
        return self.workers

    # -- running ----------------------------------------------------------------

    def run(self) -> list[ScriptResult]:
        """Execute all submitted scripts to completion.

        Returns per-script results in submission order, like the base
        class.  With one effective worker this *is* the base class run —
        same interleaving, same metered totals.
        """
        started = host_now()
        if self.effective_workers <= 1:
            results = self._run_deterministic()
        else:
            results = self._run_pool(self.effective_workers)
        with self._stats_mutex:
            self.runs += 1
            self._last_elapsed = host_now() - started
        return results

    def _run_deterministic(self) -> list[ScriptResult]:
        busy_start = host_now()
        results = super().run()
        busy = host_now() - busy_start
        with self._stats_mutex:
            for result in results:
                if result.committed:
                    self.committed += 1
                else:
                    self.failed += 1
                self.retries += max(0, result.attempts - 1)
                self.max_attempts_seen = max(self.max_attempts_seen, result.attempts)
            self._worker_stats = [
                {
                    "worker": 0,
                    "scripts": len(results),
                    "committed": sum(1 for r in results if r.committed),
                    "conflicts": sum(max(0, r.attempts - 1) for r in results),
                    "busy_seconds": busy,
                }
            ]
        return results

    def _run_pool(self, workers: int) -> list[ScriptResult]:
        scripts = list(self._scripts)
        queue: deque[_RunningScript] = deque(scripts)
        ready_at: dict[str, float] = {s.name: 0.0 for s in scripts}
        results: dict[str, ScriptResult] = {}
        queue_mutex = threading.Lock()
        stop = threading.Event()
        errors: list[BaseException] = []
        outstanding = len(scripts)
        worker_stats = [
            {"worker": i, "scripts": 0, "committed": 0, "conflicts": 0,
             "busy_seconds": 0.0}
            for i in range(workers)
        ]

        def take() -> tuple[_RunningScript | None, float]:
            """Pop the first ready script, else (None, seconds-to-sleep).

            Returns ``(None, 0.0)`` when the run is over for this worker.
            """
            nonlocal outstanding
            with queue_mutex:
                if stop.is_set() or outstanding == 0:
                    return None, 0.0
                now = host_now()
                wake = None
                for _ in range(len(queue)):
                    candidate = queue.popleft()
                    when = ready_at[candidate.name]
                    if when <= now:
                        return candidate, 0.0
                    queue.append(candidate)
                    wake = when if wake is None else min(wake, when)
                if wake is None:
                    # queue drained but peers still executing: they may
                    # requeue on conflict, so poll briefly
                    return None, _IDLE_POLL_SECONDS
                return None, min(max(wake - now, _IDLE_POLL_SECONDS), 0.05)

        def settle(running: _RunningScript, outcome: str, stats: dict) -> None:
            nonlocal outstanding
            if outcome == "committed":
                with queue_mutex:
                    results[running.name] = ScriptResult(
                        running.name, True, running.attempts, running.txn_ids
                    )
                    outstanding -= 1
                with self._stats_mutex:
                    self.committed += 1
                    self.max_attempts_seen = max(
                        self.max_attempts_seen, running.attempts
                    )
                stats["committed"] += 1
            elif outcome == "retry":
                stats["conflicts"] += 1
                with self._stats_mutex:
                    self.conflicts += 1
                    self.max_attempts_seen = max(
                        self.max_attempts_seen, running.attempts
                    )
                if running.attempts >= running.max_attempts:
                    with queue_mutex:
                        results[running.name] = ScriptResult(
                            running.name, False, running.attempts, running.txn_ids
                        )
                        outstanding -= 1
                    with self._stats_mutex:
                        self.failed += 1
                else:
                    with self._stats_mutex:
                        self.retries += 1
                    running.generator = None
                    running.txn = None
                    pause = running.next_backoff() * BACKOFF_SLOT_SECONDS
                    with queue_mutex:
                        ready_at[running.name] = host_now() + pause
                        queue.append(running)
            # "stopped": a peer failed; the script's transaction was
            # aborted in _drive and its result is irrelevant.

        def worker(index: int) -> None:
            stats = worker_stats[index]
            while not stop.is_set():
                running, sleep_for = take()
                if running is None:
                    if sleep_for <= 0.0:
                        return
                    host_pause(sleep_for)
                    continue
                stats["scripts"] += 1
                busy_start = host_now()
                try:
                    outcome = self._drive(running, stop)
                except BaseException as exc:  # repro-check: ignore[RC04]
                    # ferried to the caller below; simulated crashes
                    # included — first error wins, peers just stop
                    with queue_mutex:
                        errors.append(exc)
                    stop.set()
                    return
                finally:
                    stats["busy_seconds"] += host_now() - busy_start
                settle(running, outcome, stats)

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"repro-txn-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with self._stats_mutex:
            self._worker_stats = worker_stats
        if errors:
            raise errors[0]
        self.db.pump()
        ordered = [results[s.name] for s in scripts]
        self._scripts.clear()
        return ordered

    def _drive(self, running: _RunningScript, stop: threading.Event) -> str:
        """Run one script attempt to a terminal outcome on this thread.

        Steps yield-by-yield (via the inherited ``_step``) so a stop
        requested by a failing peer is honoured between operations and
        chaos crash points can interleave mid-script.
        """
        while True:
            if stop.is_set():
                self._abort_quietly(running)
                return "stopped"
            outcome = self._step(running)
            if outcome != "running":
                return outcome

    def _abort_quietly(self, running: _RunningScript) -> None:
        txn = running.txn
        if txn is not None and txn.state is TxnState.ACTIVE:
            try:
                txn.abort()
            except Exception:  # repro-check: ignore[RC04]
                pass  # best-effort cleanup while unwinding a peer failure

    # -- observability ----------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for ``Database.stats()`` / ``Monitor``.

        Taken under the scheduler's own stats mutex; the monitor calls it
        under the database view lock, so snapshots are consistent against
        a concurrent ``run()``.
        """
        with self._stats_mutex:
            elapsed = self._last_elapsed
            per_worker = []
            for stats in self._worker_stats:
                entry = dict(stats)
                entry["utilisation"] = (
                    min(1.0, entry["busy_seconds"] / elapsed) if elapsed > 0 else 0.0
                )
                per_worker.append(entry)
            return {
                "workers": self.workers,
                "effective_workers": self.effective_workers,
                "runs": self.runs,
                "committed": self.committed,
                "failed": self.failed,
                "conflicts": self.conflicts,
                "retries": self.retries,
                "max_attempts_seen": self.max_attempts_seen,
                "per_worker": per_worker,
            }

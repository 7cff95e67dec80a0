"""The threaded engine: the cooperative engine plus a restore worker pool.

The recovery processor's duties run inline on the calling thread, exactly
as under :class:`~repro.engine.sim.SimEngine`, serialised by the same
recovery-CPU lock, so every metered total matches the cooperative engine.

Restart phase 2 is where genuine concurrency pays: :meth:`restore_map`
fans a restore out over a pool of worker threads.  Phase-2 partition
restores run independent recovery transactions (the paper's section 2.5
notes these are ordinary transactions, so several can run at once), and
media recovery rebuilds its per-partition replay streams the same way.
Simulated device time still aggregates on the shared virtual clock;
wall-clock speedup shows when disks are given a non-zero
``realtime_scale`` (see ``benchmarks/bench_parallel_recovery.py``).
"""

from __future__ import annotations

import threading

from repro.engine.sim import SimEngine


class ThreadedEngine(SimEngine):
    """Cooperative duties; restore fan-outs on a worker pool."""

    name = "threaded"

    def __init__(self, workers: int = 4, thread_prefix: str = "repro"):
        super().__init__()
        if workers < 1:
            raise ValueError("the threaded engine needs at least one worker")
        self.workers = workers
        #: Host-thread name prefix; a sharded deployment gives each node
        #: its own (``repro-shard3``) so stack dumps attribute work.
        self.thread_prefix = thread_prefix

    def restore_map(self, fn, items: list) -> list:
        """Run a restore fan-out on the worker pool, results in input
        order.

        Workers claim items by index; the first error stops the pool and
        is re-raised on the caller once every worker has returned.  One
        worker (or one item) degenerates to the sequential base
        implementation, so SimEngine and ``workers=1`` apply in the
        identical order.
        """
        items = list(items)
        pool_size = min(self.workers, len(items))
        if pool_size <= 1:
            return super().restore_map(fn, items)
        results: list = [None] * len(items)
        state_lock = threading.Lock()
        next_index = [0]
        errors: list[BaseException] = []

        def worker() -> None:
            while True:
                with state_lock:
                    if errors or next_index[0] >= len(items):
                        return
                    index = next_index[0]
                    next_index[0] += 1
                try:
                    results[index] = fn(items[index])
                # Not a swallow: the first error stops the pool and is
                # re-raised on the caller.
                except BaseException as exc:  # repro-check: ignore[RC04]
                    with state_lock:
                        errors.append(exc)
                    return

        threads = [
            threading.Thread(
                target=worker, name=f"{self.thread_prefix}-restore-{i}", daemon=True
            )
            for i in range(pool_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

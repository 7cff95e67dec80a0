"""Cluster-wide fan-out across shard nodes.

Each node of a threaded cluster drives its own
:class:`~repro.engine.threaded.ThreadedEngine`, whose restore pool is
named after the node (``repro-shard3-restore-1`` …), so nodes share no
thread — the shared-nothing property the topology is named for.

:func:`fan_out` is the facade-side complement: it runs one callable per
node on parallel host threads (cluster-wide pump, restart, eager
recovery), which is safe precisely because nodes share no state — each
thread touches exactly one node's locks, clocks, and stable structures.
"""

from __future__ import annotations

import threading
from typing import Callable


def fan_out(jobs: list[Callable[[], object]], parallel: bool = True) -> list:
    """Run one job per node; results in input order.

    ``parallel=False`` (the sim-engine cluster) applies the jobs
    sequentially in order, keeping the deterministic schedule.  With
    threads, the first error stops nothing early — every node's job runs
    to completion so a surviving shard never sees a half-applied cluster
    operation — but the first error is re-raised on the caller.
    """
    if not parallel or len(jobs) <= 1:
        return [job() for job in jobs]
    results: list = [None] * len(jobs)
    errors: list[BaseException] = []
    state_lock = threading.Lock()

    def run(index: int) -> None:
        try:
            results[index] = jobs[index]()
        # Not a swallow: the first error is re-raised on the caller after
        # every node finished its job.
        except BaseException as exc:  # repro-check: ignore[RC04]
            with state_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,), name=f"repro-fanout-{i}", daemon=True)
        for i in range(len(jobs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results

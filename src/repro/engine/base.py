"""The execution-engine interface.

An engine decides *where* the recovery component's duties run.  Every
engine runs the recovery processor's duties inline on the calling
thread; engines differ only in how a restore fan-out is spread over host
threads.  The database and its services call only this interface;
everything engine-specific stays behind it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.common.types import PartitionAddress
from repro.sim.chaos import crash_point, register_crash_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

register_crash_point(
    "engine.restore.before-partition",
    "restart phase 2: a restore worker claimed a partition, rebuild not "
    "yet started (fires on every engine's restore path)",
)


class ExecutionEngine(abc.ABC):
    """Scheduling policy for the recovery processor and restart work."""

    #: Short identifier used by monitoring and benchmarks.
    name: str = "abstract"

    def __init__(self) -> None:
        self.db: "Database | None" = None

    def attach(self, db: "Database") -> None:
        """Bind this engine to its database (called once from wiring)."""
        if self.db is not None and self.db is not db:
            raise RuntimeError("engine is already attached to a database")
        self.db = db

    def _require_db(self) -> "Database":
        if self.db is None:
            raise RuntimeError("engine is not attached to a database")
        return self.db

    # -- scheduling hooks -----------------------------------------------------

    @abc.abstractmethod
    def drain_log(self) -> int:
        """Run the recovery processor until the committed SLB is empty.

        Used at commit barriers, during restart phase 1, and by the main
        CPU's back-pressure stall when the SLB fills.  Returns the number
        of records sorted.
        """

    @abc.abstractmethod
    def pump(self) -> None:
        """Run the between-transactions duties of both processors, in the
        paper's order: sort, acknowledge, checkpoint, acknowledge, then
        one background restore step."""

    def restore_map(self, fn, items: list) -> list:
        """Apply ``fn`` to every item of a restore fan-out, returning the
        results in input order.

        The items are independent, so an engine may run them on a worker
        pool.  The default applies them sequentially on the caller, in
        input order — the deterministic degenerate case.  On failure the
        first error propagates; items not yet started are abandoned (the
        caller owns any retry policy).
        """
        return [fn(item) for item in items]

    def restore_partitions(self, addresses: list[PartitionAddress]) -> int:
        """Restore the given partitions (restart phase 2 bulk path) over
        :meth:`restore_map`.

        Returns how many were actually rebuilt now (already-resident ones
        count zero).  On failure every address that did not finish is
        requeued on the restart coordinator before the error propagates.
        """
        db = self._require_db()
        coordinator = db.restart_coordinator
        if coordinator is None or not addresses:
            return 0
        finished = [False] * len(addresses)

        def restore(job: tuple[int, PartitionAddress]) -> bool:
            position, address = job
            crash_point("engine.restore.before-partition")
            rebuilt = coordinator.recover_partition(address) is not None
            finished[position] = True
            return rebuilt

        try:
            rebuilt = self.restore_map(restore, list(enumerate(addresses)))
        except BaseException:
            coordinator.requeue(
                [a for a, done in zip(addresses, finished) if not done]
            )
            raise
        return sum(rebuilt)

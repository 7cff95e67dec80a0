"""The sharded scheduler: routed script execution with no-wait retry.

Scripts are the same replayable generators the single-node schedulers
run.  Submission carries the declared access list, and the router splits
the batch:

* **single-shard scripts** go to a per-node
  :class:`~repro.txn.concurrent.ConcurrentScheduler` — on a threaded
  cluster every node's pool runs on its own driver thread, so N shards
  genuinely commit in parallel (the bench's scaling axis); on a sim
  cluster the pools run sequentially, keeping the deterministic
  schedule;
* **cross-shard scripts** are driven by a cooperative round-robin over
  :class:`~repro.shard.sharded.DistributedTransaction` branches: a
  no-wait conflict on any branch aborts the whole distributed
  transaction (presumed abort — nothing was logged) and requeues the
  script with the single-node backoff stagger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterator

from repro.common.errors import TransactionAborted
from repro.shard.engine import fan_out
from repro.shard.sharded import DistributedTransaction
from repro.sim.faults import SimulatedCrash
from repro.txn.concurrent import ConcurrentScheduler
from repro.txn.scheduler import SchedulerError, ScriptResult, backoff_stagger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.sharded import ShardedDatabase

#: A cross-shard script: drives a distributed transaction, yielding
#: between operations exactly like a single-node script.
CrossScript = Callable[[DistributedTransaction], Generator[None, None, None]]


class _CrossScript:
    """Book-keeping for one submitted cross-shard script."""

    def __init__(
        self,
        name: str,
        script: CrossScript,
        relations: list[str],
        shard_ids: tuple[int, ...],
        max_attempts: int,
        slot: int,
    ):
        self.name = name
        self.script = script
        self.relations = relations
        self.shard_ids = shard_ids
        self.max_attempts = max_attempts
        self.slot = slot
        self.attempts = 0
        self.gtids: list[str] = []
        self.generator: Iterator[None] | None = None
        self.dtxn: DistributedTransaction | None = None
        self.backoff = 0

    def next_backoff(self) -> int:
        return backoff_stagger(self.attempts, self.slot)

    def start(self, cluster: "ShardedDatabase") -> None:
        self.attempts += 1
        cluster.ensure_recovered(self.relations)
        self.dtxn = DistributedTransaction(
            cluster, cluster._mint_gtid(), self.shard_ids
        )
        cluster.twopc.register(self.dtxn)
        self.gtids.append(self.dtxn.gtid)
        self.generator = iter(self.script(self.dtxn))


class ShardedScheduler:
    """Routes a batch of scripts across the cluster and runs it.

    Keeps the single-node contract: submit, :meth:`run`, per-script
    :class:`~repro.txn.scheduler.ScriptResult` in submission order.
    """

    def __init__(
        self,
        cluster: "ShardedDatabase",
        max_attempts: int = 20,
        workers: int | None = None,
    ):
        if max_attempts < 1:
            raise SchedulerError("max_attempts must be at least 1")
        self.cluster = cluster
        self.max_attempts = max_attempts
        self.workers = workers
        #: Lazily-built per-node pools, reused across runs so their
        #: counters accumulate like a single node's scheduler stats.
        self._node_pools: dict[int, ConcurrentScheduler] = {}
        self._order: list[tuple[str, str]] = []  # (kind, name) in submission order
        self._cross: list[_CrossScript] = []
        self._single_count = 0
        self.cross_runs = 0
        self.cross_committed = 0
        self.cross_failed = 0
        self.cross_conflicts = 0

    # -- submission ---------------------------------------------------------------

    def _pool(self, shard_id: int) -> ConcurrentScheduler:
        pool = self._node_pools.get(shard_id)
        if pool is None:
            pool = ConcurrentScheduler(
                self.cluster.nodes[shard_id].db,
                max_attempts=self.max_attempts,
                workers=self.workers,
            )
            self._node_pools[shard_id] = pool
        return pool

    def submit(
        self, script, relations: list[str], name: str | None = None
    ) -> None:
        """Route one script by its declared access list and queue it."""
        shard_ids = self.cluster.router.route(relations)
        label = name if name is not None else f"script-{len(self._order)}"
        if len(shard_ids) == 1:
            self._pool(shard_ids[0]).submit(script, name=label)
            self._order.append(("single", label))
            self._single_count += 1
        else:
            self._cross.append(
                _CrossScript(
                    label,
                    script,
                    list(relations),
                    shard_ids,
                    self.max_attempts,
                    len(self._cross),
                )
            )
            self._order.append(("cross", label))

    # -- execution ----------------------------------------------------------------

    def run(self) -> list[ScriptResult]:
        """Run the batch: per-node pools first (parallel on a threaded
        cluster), then the cross-shard round-robin.  Results come back in
        submission order regardless of which lane ran a script."""
        results: dict[str, ScriptResult] = {}
        pools = [
            self._node_pools[sid]
            for sid in sorted(self._node_pools)
            if self._node_pools[sid]._scripts
        ]
        pool_results = fan_out(
            [pool.run for pool in pools], parallel=self.cluster.parallel
        )
        for batch in pool_results:
            for result in batch:
                results[result.name] = result
        for result in self._run_cross():
            results[result.name] = result
        ordered = [results[name] for _, name in self._order]
        self._order.clear()
        return ordered

    def _run_cross(self) -> list[ScriptResult]:
        submitted = list(self._cross)
        self._cross.clear()
        results: dict[str, ScriptResult] = {}
        pending = list(submitted)
        while pending:
            still_running: list[_CrossScript] = []
            for running in pending:
                if running.backoff > 0:
                    running.backoff -= 1
                    still_running.append(running)
                    continue
                outcome = self._step(running)
                if outcome == "running":
                    still_running.append(running)
                elif outcome == "retry":
                    self.cross_conflicts += 1
                    if running.attempts >= running.max_attempts:
                        self.cross_failed += 1
                        results[running.name] = ScriptResult(
                            running.name, False, running.attempts
                        )
                    else:
                        running.generator = None
                        running.dtxn = None
                        running.backoff = running.next_backoff()
                        still_running.append(running)
                else:  # committed
                    self.cross_committed += 1
                    results[running.name] = ScriptResult(
                        running.name, True, running.attempts
                    )
            pending = still_running
        if submitted:
            self.cluster.pump()
        self.cross_runs += 1 if submitted else 0
        return [results[s.name] for s in submitted]

    def _step(self, running: _CrossScript) -> str:
        if running.generator is None:
            running.start(self.cluster)
        dtxn = running.dtxn
        assert dtxn is not None
        try:
            next(running.generator)  # type: ignore[arg-type]
            return "running"
        except StopIteration:
            if dtxn.state == "active":
                self.cluster.twopc.commit_distributed(dtxn)
            return "committed"
        except TransactionAborted:
            # One branch lost a no-wait conflict and rolled itself back;
            # presumed abort settles the rest without logging anything.
            self.cluster.twopc.abort_distributed(dtxn)
            return "retry"
        except SimulatedCrash:
            raise
        except BaseException:
            self.cluster.twopc.abort_distributed(dtxn)
            raise

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "single_shard": {
                sid: pool.stats() for sid, pool in sorted(self._node_pools.items())
            },
            "cross_shard": {
                "runs": self.cross_runs,
                "committed": self.cross_committed,
                "failed": self.cross_failed,
                "conflicts": self.cross_conflicts,
            },
        }

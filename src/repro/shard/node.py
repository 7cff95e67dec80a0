"""One shard node: a full Database scoped to its partition subset.

The decomposition the tentpole asks for is deliberately thin: a
:class:`ShardNode` *is* a :class:`~repro.db.database.Database` — with
its own simulated hardware, Stable Log Buffer, Stable Log Tail,
LoggingService, CheckpointService, and RecoveryService — plus the shard
identity and the engine that drives it.  Nothing in the single-node
code paths forks: a node recovers, checkpoints, and logs exactly like a
standalone database, which is what makes kill-one-shard recovery
"recover only that shard's partitions" for free.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.db.database import Database, RecoveryMode
from repro.db.monitor import Monitor
from repro.engine.sim import SimEngine
from repro.engine.threaded import ThreadedEngine
from repro.recovery.restart import RestartCoordinator


class ShardNode:
    """A shard id bound to its database and execution engine."""

    def __init__(
        self,
        shard_id: int,
        config: SystemConfig | None = None,
        engine_kind: str = "sim",
        workers: int = 4,
    ):
        if engine_kind not in ("sim", "threaded"):
            raise ValueError(f"unknown engine kind {engine_kind!r}")
        self.shard_id = shard_id
        self.engine_kind = engine_kind
        if engine_kind == "sim":
            engine = SimEngine()
        else:
            engine = ThreadedEngine(workers, thread_prefix=f"repro-shard{shard_id}")
        self.db = Database(config, engine=engine)
        self.db.shard_id = shard_id
        self.monitor = Monitor(self.db)

    @property
    def label(self) -> str:
        return f"shard{self.shard_id}"

    @property
    def crashed(self) -> bool:
        return self.db.crashed

    # -- lifecycle pass-throughs ---------------------------------------------------

    def pump(self) -> None:
        self.db.pump()

    def crash(self) -> None:
        self.db.crash()

    def restart(self, mode: RecoveryMode = RecoveryMode.ON_DEMAND) -> RestartCoordinator:
        return self.db.restart(mode)

    def recover_everything(self) -> None:
        if self.db.restart_coordinator is not None:
            self.db.restart_coordinator.recover_everything()

    def close(self) -> None:
        self.db.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardNode(shard_id={self.shard_id}, engine={self.engine_kind})"

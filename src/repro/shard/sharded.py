"""The sharded database facade: N shard nodes behind the Database API.

:class:`ShardedDatabase` preserves the public single-node surface —
``create_relation`` / ``table`` / ``transaction`` / ``stats`` /
``snapshot`` / ``crash`` / ``restart`` — while dispatching through a
:class:`~repro.shard.router.ShardRouter`:

* a transaction whose declared access list routes to **one** shard runs
  *unchanged* on that node (same code path as a standalone database,
  which is why ``shards=1`` degenerates digest-identically);
* a transaction touching **several** shards becomes a
  :class:`DistributedTransaction` — one branch per node — committed by
  the presumed-abort :class:`~repro.shard.twopc.TwoPhaseCommit`.

Relations are whole-relation sharded (each relation, with its indexes,
lives on exactly one node), so the paper's predeclared access lists are
a complete routing oracle: declaring relations declares shards.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.db.database import RecoveryMode
from repro.db.relation import Relation, Row
from repro.recovery.oracle import logical_digest
from repro.shard.engine import fan_out
from repro.shard.node import ShardNode
from repro.shard.router import ShardRouter
from repro.shard.twopc import TwoPhaseCommit
from repro.sim.faults import SimulatedCrash
from repro.txn.transaction import Transaction, TxnState


class ShardingError(ReproError):
    """A facade request that violates the sharded topology."""


class DistributedTransaction:
    """One branch transaction per participant shard, committed via 2PC.

    Scripts use it exactly like a plain transaction *through the facade's
    relation handles*: :class:`ShardedRelation` resolves each call to the
    branch on the owning node.  The coordinator is the lowest declared
    shard id.
    """

    def __init__(self, facade: "ShardedDatabase", gtid: str, shard_ids: tuple[int, ...]):
        self.facade = facade
        self.gtid = gtid
        self.shard_ids = tuple(sorted(shard_ids))
        self.coordinator = self.shard_ids[0]
        self.state = "active"
        self.branches: dict[int, Transaction] = {}
        try:
            for sid in self.shard_ids:
                self.branches[sid] = facade.nodes[sid].db.transactions.begin(
                    user_data=f"2pc:{gtid}"
                )
        except BaseException:
            for txn in self.branches.values():
                if txn.state is TxnState.ACTIVE:
                    txn.abort()
            raise

    def branch(self, shard_id: int) -> Transaction:
        try:
            return self.branches[shard_id]
        except KeyError:
            raise ShardingError(
                f"distributed txn {self.gtid} has no branch on shard "
                f"{shard_id}; declare the relation in the access list"
            ) from None

    @property
    def txn_ids(self) -> dict[int, int]:
        return {sid: txn.txn_id for sid, txn in self.branches.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedTransaction(gtid={self.gtid!r}, shards={self.shard_ids}, "
            f"state={self.state})"
        )


class _ResolvingQuery:
    """A :class:`~repro.db.query.Query` that accepts distributed txns.

    Builder calls delegate to the underlying query; terminal calls
    resolve the (possibly distributed) transaction to the owning node's
    branch first.
    """

    def __init__(self, relation: "ShardedRelation"):
        self._relation = relation
        self._query = relation.local.query()

    def where(self, field: str, op: str, value) -> "_ResolvingQuery":
        self._query.where(field, op, value)
        return self

    def select(self, *fields: str) -> "_ResolvingQuery":
        self._query.select(*fields)
        return self

    def explain(self) -> str:
        return self._query.explain()

    def rows(self, txn) -> Iterator[Row]:
        return self._query.rows(self._relation._resolve(txn))

    def execute(self, txn) -> list[dict]:
        return self._query.execute(self._relation._resolve(txn))

    def count(self, txn) -> int:
        return self._query.count(self._relation._resolve(txn))

    def sum(self, txn, field: str) -> int:
        return self._query.sum(self._relation._resolve(txn), field)

    def min(self, txn, field: str):
        return self._query.min(self._relation._resolve(txn), field)

    def max(self, txn, field: str):
        return self._query.max(self._relation._resolve(txn), field)

    def avg(self, txn, field: str):
        return self._query.avg(self._relation._resolve(txn), field)


class ShardedRelation:
    """A relation handle that routes every call to its owning node."""

    def __init__(self, facade: "ShardedDatabase", name: str):
        self.facade = facade
        self.name = name

    @property
    def shard_id(self) -> int:
        return self.facade.router.shard_of(self.name)

    @property
    def node(self) -> ShardNode:
        return self.facade.nodes[self.shard_id]

    @property
    def local(self) -> Relation:
        """The owning node's plain :class:`Relation` handle."""
        return self.node.db.table(self.name)

    def _resolve(self, txn) -> Transaction:
        """The branch (or plain txn) that may touch this relation."""
        if isinstance(txn, DistributedTransaction):
            return txn.branch(self.shard_id)
        if txn.db is not self.node.db:
            raise ShardingError(
                f"transaction on shard {txn.db.shard_id} cannot touch "
                f"relation {self.name!r} on shard {self.shard_id}; declare "
                f"it in the transaction's access list"
            )
        return txn

    # -- delegated DML ------------------------------------------------------------

    def insert(self, txn, row: dict):
        return self.local.insert(self._resolve(txn), row)

    def read(self, txn, address) -> Row:
        return self.local.read(self._resolve(txn), address)

    def update(self, txn, address, changes: dict) -> None:
        return self.local.update(self._resolve(txn), address, changes)

    def delete(self, txn, address) -> None:
        return self.local.delete(self._resolve(txn), address)

    def lookup(self, txn, key_value) -> Row | None:
        return self.local.lookup(self._resolve(txn), key_value)

    def lookup_by(self, txn, index_name: str, key_value) -> list[Row]:
        return self.local.lookup_by(self._resolve(txn), index_name, key_value)

    def range_by(self, txn, index_name: str, low, high) -> list[Row]:
        return self.local.range_by(self._resolve(txn), index_name, low, high)

    def scan(self, txn) -> Iterator[Row]:
        return self.local.scan(self._resolve(txn))

    def count(self, txn) -> int:
        return self.local.count(self._resolve(txn))

    def update_where(self, txn, field: str, op: str, value, changes: dict) -> int:
        return self.local.update_where(self._resolve(txn), field, op, value, changes)

    def delete_where(self, txn, field: str, op: str, value) -> int:
        return self.local.delete_where(self._resolve(txn), field, op, value)

    def query(self) -> _ResolvingQuery:
        return _ResolvingQuery(self)

    @property
    def schema(self):
        return self.local.schema

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedRelation({self.name!r} @ shard {self.shard_id})"


class ShardedDatabase:
    """N shared-nothing shard nodes behind the single-database API."""

    def __init__(
        self,
        shards: int = 1,
        config: SystemConfig | None = None,
        engine: str = "sim",
        workers: int = 4,
        placement: dict[str, int] | None = None,
    ):
        if engine not in ("sim", "threaded"):
            raise ShardingError(f"unknown engine kind {engine!r}")
        self.engine_kind = engine
        self.router = ShardRouter(shards, placement)
        self.nodes = [
            ShardNode(sid, config, engine_kind=engine, workers=workers)
            for sid in range(shards)
        ]
        self.twopc = TwoPhaseCommit(self)
        for node in self.nodes:
            node.db.in_doubt_resolver = self.twopc.resolver_for(node.shard_id)
        self._tables: dict[str, ShardedRelation] = {}  # guarded-by: _mutex
        self._next_gtid = 1  # guarded-by: _mutex
        self._mutex = threading.Lock()

    # -- topology -----------------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self.nodes)

    def node(self, shard_id: int) -> ShardNode:
        return self.nodes[shard_id]

    @property
    def parallel(self) -> bool:
        """Whether cluster-wide operations may fan out on host threads."""
        return self.engine_kind == "threaded"

    # -- DDL ----------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema,
        primary_key: str,
        primary_index: str = "hash",
        shard: int | None = None,
    ) -> ShardedRelation:
        """Create a relation on its home shard (pinned or stable-hashed)."""
        sid = self.router.assign(name, shard)
        self.nodes[sid].db.create_relation(
            name, schema, primary_key, primary_index
        )
        handle = ShardedRelation(self, name)
        with self._mutex:
            self._tables[name] = handle
        return handle

    def create_index(
        self, index_name: str, relation_name: str, field: str, kind: str = "ttree"
    ) -> None:
        """Indexes live with their relation on the owning node."""
        sid = self.router.shard_of(relation_name)
        self.nodes[sid].db.create_index(index_name, relation_name, field, kind)

    def drop_index(self, index_name: str) -> None:
        for node in self.nodes:
            if any(d.name == index_name for d in node.db.catalog.indexes()):
                node.db.drop_index(index_name)
                return
        raise ShardingError(f"no shard owns index {index_name!r}")

    def drop_relation(self, name: str) -> None:
        sid = self.router.shard_of(name)
        self.nodes[sid].db.drop_relation(name)
        self.router.unassign(name)
        with self._mutex:
            self._tables.pop(name, None)

    def table(self, name: str) -> ShardedRelation:
        with self._mutex:
            handle = self._tables.get(name)
        if handle is None:
            self.nodes[self.router.shard_of(name)].db.catalog.relation(name)
            handle = ShardedRelation(self, name)
            with self._mutex:
                self._tables.setdefault(name, handle)
        return handle

    # -- transactions -------------------------------------------------------------

    def _mint_gtid(self) -> str:
        with self._mutex:
            gtid = f"g{self._next_gtid}"
            self._next_gtid += 1
        return gtid

    def transaction(
        self, *, pump: bool = True, relations: list[str] | None = None
    ):
        """``with cluster.transaction(relations=[...]) as txn:``

        The declared access list routes the transaction.  One shard: the
        owning node's ordinary transaction scope, unchanged.  Several:
        a :class:`DistributedTransaction` committed via 2PC on success,
        rolled back everywhere on exception.  An empty declaration pins
        the transaction to shard 0 (the ``shards=1`` degenerate home).
        """
        shard_ids = self.router.route(relations or [])
        if len(shard_ids) == 1:
            return self.nodes[shard_ids[0]].db.transaction(
                pump=pump, relations=relations
            )
        return self._distributed_scope(shard_ids, relations or [], pump)

    def ensure_recovered(self, relations: list[str]) -> None:
        """Predeclared recovery (paper method 1), per owning node."""
        for name in relations:
            node = self.nodes[self.router.shard_of(name)]
            if node.db.restart_coordinator is not None:
                node.db.restart_coordinator.recover_relation(name)

    @contextlib.contextmanager
    def _distributed_scope(
        self, shard_ids: tuple[int, ...], relations: list[str], pump: bool
    ):
        self.ensure_recovered(relations)
        dtxn = DistributedTransaction(self, self._mint_gtid(), shard_ids)
        self.twopc.register(dtxn)
        try:
            yield dtxn
        except SimulatedCrash:
            # Machine-crash contract: no abort machinery; crash_shard()'s
            # pending sweep and restart resolution settle the branches.
            raise
        except BaseException:
            self.twopc.abort_distributed(dtxn)
            raise
        self.twopc.commit_distributed(dtxn)
        if pump:
            for sid in shard_ids:
                self.nodes[sid].db.pump()

    # -- cluster-wide duties ------------------------------------------------------

    def pump(self) -> None:
        """Every node's between-transactions duties (parallel when threaded)."""
        fan_out([node.pump for node in self.nodes], parallel=self.parallel)

    # -- crash / restart ----------------------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """One node dies: lose its main memory, settle in-flight 2PC."""
        if not self.nodes[shard_id].crashed:
            self.nodes[shard_id].crash()
        self.twopc.on_shard_crashed(shard_id)

    def crash(self) -> None:
        """Whole-cluster power failure."""
        for node in self.nodes:
            if not node.crashed:
                node.crash()
        for node in self.nodes:
            self.twopc.on_shard_crashed(node.shard_id)

    def restart_shard(
        self, shard_id: int, mode: RecoveryMode = RecoveryMode.ON_DEMAND
    ):
        """Restart one node; its in-doubt chains resolve against the
        (stable, still-readable) coordinator decision tables."""
        return self.nodes[shard_id].restart(mode)

    def restart(self, mode: RecoveryMode = RecoveryMode.ON_DEMAND) -> None:
        """Restart every crashed node (parallel when threaded)."""
        crashed = [node for node in self.nodes if node.crashed]
        fan_out(
            [lambda n=node: n.restart(mode) for node in crashed],
            parallel=self.parallel,
        )

    def recover_everything(self) -> None:
        fan_out(
            [node.recover_everything for node in self.nodes], parallel=self.parallel
        )

    @property
    def crashed_shards(self) -> list[int]:
        return [node.shard_id for node in self.nodes if node.crashed]

    def digests(self) -> dict[int, str]:
        """Per-shard logical digests (requires full residency everywhere)."""
        return {node.shard_id: logical_digest(node.db) for node in self.nodes}

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregated counters plus the per-shard breakdown."""
        per_shard = {node.shard_id: node.db.stats() for node in self.nodes}
        return {
            "engine": self.engine_kind,
            "shards": {
                "count": self.shards,
                "router": self.router.stats(),
                "per_shard": per_shard,
            },
            "twopc": self.twopc.stats(),
            "transactions_committed": sum(
                s["transactions_committed"] for s in per_shard.values()
            ),
            "transactions_aborted": sum(
                s["transactions_aborted"] for s in per_shard.values()
            ),
            "clock_seconds": max(s["clock_seconds"] for s in per_shard.values()),
        }

    def snapshot(self) -> dict:
        """Monitor-style snapshot: per-node snapshots (each under its own
        view lock) plus cluster aggregates."""
        per_shard = {node.shard_id: node.monitor.snapshot() for node in self.nodes}
        return {
            "shards": {"count": self.shards, "router": self.router.stats()},
            "twopc": self.twopc.stats(),
            "per_shard": per_shard,
        }

    def report(self) -> str:
        lines = [f"=== sharded cluster: {self.shards} nodes " + "=" * 24]
        twopc = self.twopc.stats()
        lines.append(
            f"2pc                 {twopc['distributed_committed']} committed / "
            f"{twopc['distributed_aborted']} aborted / "
            f"{twopc['pending']} in flight"
        )
        for node in self.nodes:
            lines.append(f"--- node {node.shard_id} " + "-" * 40)
            lines.append(node.monitor.report())
        return "\n".join(lines)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedDatabase(shards={self.shards}, engine={self.engine_kind})"

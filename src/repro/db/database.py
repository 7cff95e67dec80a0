"""The Database: wiring of the MM-DBMS recovery architecture.

One object owns the simulated hardware (clock, two CPUs, stable memories,
duplexed log disks, checkpoint disk), the volatile database (segments,
partitions, locks, catalogs), and the recovery component (Stable Log
Buffer, Stable Log Tail, recovery processor, checkpoint manager, restart
coordinator).  The behaviour lives in three narrow services — the
:class:`~repro.db.logging_service.LoggingService` (main-CPU log path),
the :class:`~repro.db.checkpoint_service.CheckpointService` (per-CPU
checkpoint halves), and the
:class:`~repro.db.recovery_service.RecoveryService` (restart state
machine) — scheduled by an :class:`~repro.engine.ExecutionEngine`.

Scheduling: the recovery CPU's duties run when :meth:`Database.pump` is
called — the transaction manager's between-transactions moment of paper
section 2.4 — and transparently when the SLB fills (back-pressure).
``transaction()`` scopes pump on exit by default, so ordinary usage needs
no explicit pumping.  Under the default
:class:`~repro.engine.sim.SimEngine` everything is cooperative and
deterministic; the :class:`~repro.engine.threaded.ThreadedEngine` runs
the same duties inline and restores partitions concurrently on a worker
pool during restart phase 2 (see ``docs/ENGINES.md``).

Crash semantics: :meth:`crash` discards everything volatile (partitions,
lock tables, active transactions, catalog caches, index objects) and keeps
everything stable (SLB, SLT, disks).  :meth:`restart` drains the stable
log, recovers the catalogs, and then recovers partitions either eagerly
(:attr:`RecoveryMode.EAGER`) or on demand with background sweeping
(:attr:`RecoveryMode.ON_DEMAND`), exactly the two-phase restart of paper
section 2.5.
"""

from __future__ import annotations

import json
import threading

from repro.catalog.catalog import (
    Catalog,
    IndexDescriptor,
    PartitionInfo,
    RelationDescriptor,
)
from repro.catalog.schema import Schema
from repro.checkpoint.disk_queue import CheckpointDiskQueue
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.protocol import CheckpointQueue
from repro.common.config import SystemConfig
from repro.common.errors import (
    CatalogError,
    ConfigurationError,
    RecoveryError,
    StorageError,
)
from repro.common.types import PartitionAddress, SegmentKind
from repro.concurrency.locks import LockManager, LockMode
from repro.db.checkpoint_service import CheckpointService
from repro.db.logging_service import CATALOG_LOCATIONS_KEY, LoggingService
from repro.db.recovery_service import RecoveryMode, RecoveryService
from repro.db.relation import Relation
from repro.engine import ExecutionEngine, engine_from_env
from repro.index.linear_hash import LinearHashIndex
from repro.index.node_store import NodeStore
from repro.index.ttree import TTreeIndex
from repro.recovery.condenser import Condenser
from repro.recovery.processor import RecoveryProcessor
from repro.recovery.restart import RestartCoordinator
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuMeter
from repro.sim.disk import DuplexedDisk, SimulatedDisk
from repro.sim.faults import RetryPolicy
from repro.sim.stable_memory import StableMemory
from repro.sim.faults import SimulatedCrash
from repro.storage.memory_manager import MemoryManager
from repro.storage.partition import Partition
from repro.txn.manager import TransactionManager
from repro.txn.registry import ScriptRegistry
from repro.txn.transaction import Transaction, TxnState
from repro.txn.twopc import TwoPCStats
from repro.wal.audit import AuditLog
from repro.wal.log_disk import LogDisk
from repro.wal.records import RedoRecord
from repro.wal.slb import StableLogBuffer
from repro.wal.slt import StableLogTail

__all__ = [
    "CATALOG_LOCATIONS_KEY",
    "Database",
    "MAIN_CPU_MIPS",
    "RecoveryMode",
]

MAIN_CPU_MIPS = 6.0


class Database:
    """A main-memory DBMS with the paper's recovery architecture."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        engine: ExecutionEngine | None = None,
    ):
        self.config = config if config is not None else SystemConfig()
        #: Serialises partition installs against monitoring snapshots so
        #: :class:`~repro.db.monitor.Monitor` reads a consistent view
        #: while restore workers install partitions concurrently.
        self.view_lock = threading.RLock()
        self._build_hardware()
        self._build_volatile()
        self._build_recovery_component()
        self.logging = LoggingService(self)
        self.checkpoint_service = CheckpointService(self)
        self.recovery_service = RecoveryService(self)
        self.engine = engine if engine is not None else engine_from_env()
        self.engine.attach(self)
        self.crashed = False
        self.restart_coordinator: RestartCoordinator | None = None
        #: Totals of the most recent whole-database media restore
        #: (:func:`~repro.recovery.media.restore_after_checkpoint_media_failure`);
        #: ``None`` until one has run.
        self.last_media_restore: dict | None = None
        #: Plan statistics of the most recent command replay
        #: (:func:`~repro.recovery.replay_plan.replay_live_commands`);
        #: ``None`` until a restart has run one.
        self.last_command_replay: dict | None = None
        #: Registered transaction scripts (docs/LOGGING.md).  Volatile —
        #: the application re-registers at boot — but versions are
        #: mirrored in stable memory to fence schema drift at replay.
        self.scripts = ScriptRegistry(self.slb)
        #: Optional hook invoked as ``observer(txn)`` the instant a
        #: transaction becomes durable (used by the recovery oracle).
        self.commit_observer = None
        #: The most recent :class:`~repro.txn.concurrent.ConcurrentScheduler`
        #: attached via :meth:`register_scheduler`; surfaces its counters in
        #: :meth:`stats` and ``Monitor.snapshot()``.
        self.scheduler = None
        #: Shard identity when this database is one node of a
        #: :class:`~repro.shard.ShardedDatabase` (``None`` standalone).
        self.shard_id: int | None = None
        #: 2PC counters for this node (prepares, phase-2 outcomes,
        #: decisions logged here, in-doubt resolutions at restart).
        self.twopc = TwoPCStats()
        #: In-doubt resolver consulted by restart for prepared chains.
        #: Duck-typed: ``decide(prepare) -> "commit" | "abort"`` and
        #: ``acknowledge(prepare, verdict)`` after the verdict applied.
        #: ``None`` means presumed abort (a standalone database has no
        #: coordinator to ask, so every in-doubt chain rolls back).
        self.in_doubt_resolver = None

    # -- construction ------------------------------------------------------------

    def _build_hardware(self) -> None:
        config = self.config
        self.clock = VirtualClock()
        self.main_cpu = CpuMeter("main", MAIN_CPU_MIPS, self.clock, config.analysis)
        self.recovery_cpu = CpuMeter(
            "recovery", config.analysis.p_recovery_mips, self.clock, config.analysis
        )
        self.slb_memory = StableMemory("slb", config.slb_capacity)
        self.slt_memory = StableMemory("slt", config.slt_capacity)
        log_pair = DuplexedDisk(
            SimulatedDisk("log-primary", config.log_disk, self.clock),
            SimulatedDisk("log-mirror", config.log_disk, self.clock),
        )
        retry_policy = RetryPolicy(budget=config.io_retry_budget)
        self.log_disk = LogDisk(
            log_pair,
            config.log_window_pages,
            config.log_window_grace_pages,
            cache_pages=config.log_page_cache_pages,
            retry_policy=retry_policy,
        )
        self.checkpoint_disk = CheckpointDiskQueue(
            SimulatedDisk("checkpoint", config.checkpoint_disk, self.clock),
            config.checkpoint_slots,
            retry_policy=retry_policy,
        )

    def _build_volatile(self) -> None:
        self.memory = MemoryManager(self.config.partition_size)
        self.locks = LockManager()
        self.catalog = Catalog(self.memory)
        self._relations: dict[str, Relation] = {}
        self._index_objects: dict[str, TTreeIndex | LinearHashIndex] = {}
        #: Guards the two handle caches above: concurrent-scheduler workers
        #: resolve tables and index objects simultaneously, and a torn
        #: check-then-insert would hand two threads distinct index objects
        #: over the same segment.  Leaf lock; handle construction that may
        #: recover segments runs outside it.
        self._handles_mutex = threading.RLock()

    def _build_recovery_component(self) -> None:
        config = self.config
        self.slb = StableLogBuffer(self.slb_memory, config.log_block_size)
        self.slt = StableLogTail(self.slt_memory, config)
        self.checkpoint_queue = CheckpointQueue(self.slb)
        self.recovery_processor = RecoveryProcessor(
            self.recovery_cpu,
            self.slb,
            self.slt,
            self.log_disk,
            self.checkpoint_queue,
            config,
        )
        self.recovery_processor.bind_slot_free(self.checkpoint_disk.free)
        self.audit = AuditLog(self.slb_memory, self.log_disk, config.log_page_size)
        self.transactions = TransactionManager(self)
        self.checkpoints = CheckpointManager(self)
        self.condenser = Condenser(self)

    # -- transaction plumbing (called by Transaction) ----------------------------------

    def append_log(self, txn_id: int, record: RedoRecord) -> None:
        """Write a REDO record to the SLB (see :class:`LoggingService`)."""
        self.logging.append_log(txn_id, record)

    def on_transaction_finished(self, txn: Transaction) -> None:
        self.transactions.finished(txn)

    def on_partition_allocated(self, partition: Partition, txn: Transaction) -> None:
        """A segment grew: give the partition its SLT bin and catalog it."""
        if self.slt.has_partition(partition.address):
            # Command replay re-executing the allocating script: the bin
            # survived the crash, so reuse it instead of re-registering.
            partition.bin_index = self.slt.bin_index_of(partition.address)
        else:
            partition.bin_index = self.slt.register_partition(partition.address)
        segment_id = partition.address.segment
        number = partition.address.partition
        if segment_id == self.catalog.segment.segment_id:
            self.catalog.own_partition_slots.setdefault(number, None)
            self.publish_catalog_locations()
            return
        descriptor = self.catalog.descriptor_for_segment(segment_id)
        if number not in descriptor.partitions:
            descriptor.partitions[number] = PartitionInfo(number)
            self.catalog.update(descriptor, txn)

    def publish_catalog_locations(self) -> None:
        """Duplicate the catalog partition address list into both stable
        areas (see :class:`LoggingService`)."""
        self.logging.publish_catalog_locations()

    # -- scheduling (delegated to the execution engine) -----------------------------------

    def pump(self) -> None:
        """Run the between-transactions duties of both processors."""
        self.engine.pump()

    def transaction(
        self, *, pump: bool = True, relations: list[str] | None = None
    ):
        """``with db.transaction() as txn:`` — commit on success, abort on
        exception, then run the between-transactions pump.

        ``relations`` implements the paper's predeclared access (section
        2.5 method 1): the named relations — and their indexes — are
        recovered in their entirety *before* the transaction starts, so
        it can never stall on a missing partition mid-flight.  Without
        it, references recover partitions on demand (method 2).
        """
        import contextlib

        @contextlib.contextmanager
        def _scope():
            if relations and self.restart_coordinator is not None:
                for name in relations:
                    self.restart_coordinator.recover_relation(name)
            with self.transactions.scope() as txn:
                yield txn
            if pump:
                self.pump()

        return _scope()

    # -- scripted transactions (docs/LOGGING.md) -----------------------------------------------

    def register_script(self, name, fn, *, relations, version: str = "1"):
        """Register a command-loggable transaction script (see
        :class:`~repro.txn.registry.ScriptRegistry`)."""
        return self.scripts.register(name, fn, relations=relations, version=version)

    def run_script(
        self,
        name: str,
        *args,
        logging: str | None = None,
        pump: bool = True,
    ):
        """Run a registered script as one transaction, logged per mode.

        ``logging`` overrides ``config.logging_mode`` for this call:
        ``"value"`` logs after-images as usual; ``"command"`` logs one
        compact TxnCommand record instead; ``"adaptive"`` executes under
        value logging and converts at commit when the after-image bytes
        reach ``config.adaptive_log_threshold``.  Shard nodes always run
        value-logged — their transactions may be drafted into 2PC, which
        local re-execution cannot replay.

        Command and adaptive runs take exclusive relation locks on the
        script's whole declared list up front (sorted by segment id), the
        isolation that makes replay re-execution deterministic.  ``args``
        must round-trip through JSON.  Returns the script's return value.
        """
        info = self.scripts.get(name)
        mode = logging if logging is not None else self.config.logging_mode
        if mode not in ("value", "command", "adaptive"):
            raise ConfigurationError(
                "logging must be 'value', 'command', or 'adaptive'"
            )
        if self.shard_id is not None:
            mode = "value"
        if self.restart_coordinator is not None:
            for relation_name in info.relations:
                self.restart_coordinator.recover_relation(relation_name)
        command = None
        if mode != "value":
            command = (info.name, info.version, json.dumps(list(args)).encode("utf-8"))
        txn = self.transactions.begin(
            logging_mode=mode,
            command=command,
            declared_relations=info.relations,
        )
        try:
            if command is not None:
                for relation_name in sorted(
                    info.relations, key=lambda n: self.catalog.relation(n).segment_id
                ):
                    txn.lock_relation(
                        self.catalog.relation(relation_name).segment_id,
                        LockMode.EXCLUSIVE,
                    )
            result = info.fn(txn, *args)
        except SimulatedCrash:
            # as in TransactionManager.scope: a crash is not an abort
            raise
        except BaseException:
            if txn.state is TxnState.ACTIVE:
                txn.abort()
            raise
        if txn.state is TxnState.ACTIVE:
            txn.commit()
        if pump:
            self.pump()
        return result

    # -- DDL -----------------------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema: list[tuple[str, str]] | Schema,
        primary_key: str,
        primary_index: str = "hash",
    ) -> Relation:
        """Create a relation plus its primary-key index.

        ``primary_index`` picks the structure: ``"hash"`` (point lookups)
        or ``"ttree"`` (ordered).
        """
        if self.catalog.has_relation(name):
            raise CatalogError(f"relation {name!r} already exists")
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        schema.position(primary_key)  # validate
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            segment = self.memory.create_segment(SegmentKind.RELATION, name)
            descriptor = RelationDescriptor(
                name=name,
                segment_id=segment.segment_id,
                schema=schema,
                primary_key=primary_key,
            )
            self.catalog.store_new(descriptor, txn)
            self._create_index_in_txn(
                txn, f"{name}__pk", name, primary_key, primary_index
            )
        self.pump()
        relation = Relation(self, name)
        self._relations[name] = relation
        return relation

    def create_index(
        self, index_name: str, relation_name: str, field: str, kind: str = "ttree"
    ) -> None:
        """Create a secondary index and backfill it from existing tuples."""
        # DDL fence: replaying a command logged before this index existed
        # would re-maintain the index on top of the value-logged backfill.
        self.checkpoints.settle_relation(relation_name)
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            self._create_index_in_txn(txn, index_name, relation_name, field, kind)
            relation = self.table(relation_name)
            descriptor = self.catalog.index(index_name)
            index = self.index_object(descriptor, txn)
            for row in relation.scan(txn):
                index.insert(row[field], row.address)
        self.pump()

    def _create_index_in_txn(
        self, txn: Transaction, index_name: str, relation_name: str, field: str, kind: str
    ) -> None:
        if kind not in ("ttree", "hash"):
            raise CatalogError(f"unknown index kind {kind!r}")
        relation_descriptor = self.catalog.relation(relation_name)
        relation_descriptor.schema.position(field)  # validate
        segment = self.memory.create_segment(SegmentKind.INDEX, index_name)
        descriptor = IndexDescriptor(
            name=index_name,
            relation_name=relation_name,
            segment_id=segment.segment_id,
            kind=kind,
            key_field=field,
        )
        self.catalog.store_new(descriptor, txn)
        store = NodeStore(segment, txn)
        if kind == "ttree":
            index: TTreeIndex | LinearHashIndex = TTreeIndex(store)
        else:
            index = LinearHashIndex(store)
        descriptor.anchor = index.anchor
        self.catalog.update(descriptor, txn)
        relation_descriptor.index_names.append(index_name)
        self.catalog.update(relation_descriptor, txn)
        self._index_objects[index_name] = index

    def drop_index(self, index_name: str) -> None:
        """Drop a secondary index (primary-key indexes cannot be dropped)."""
        descriptor = self.catalog.index(index_name)
        if index_name.endswith("__pk"):
            raise CatalogError("primary-key indexes cannot be dropped")
        # DDL fence: live commands expect this index among their barrier
        # targets at replay; settle them before changing the shape.
        self.checkpoints.settle_relation(descriptor.relation_name)
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            txn.lock_relation(descriptor.segment_id, LockMode.EXCLUSIVE)
            relation_descriptor = self.catalog.relation(descriptor.relation_name)
            relation_descriptor.index_names.remove(index_name)
            self.catalog.update(relation_descriptor, txn)
            self.catalog.drop(descriptor, txn)
        # physical release only after the drop is durable: an aborted or
        # crashed drop must leave the stable recovery state intact
        self._release_segment(descriptor)
        self._index_objects.pop(index_name, None)
        self.pump()

    def drop_relation(self, name: str) -> None:
        """Drop a relation, its indexes, and all of their partitions."""
        # DDL fence: a live command declaring this relation would have
        # nothing to re-execute against at replay.
        self.checkpoints.settle_relation(name)
        descriptor = self.catalog.relation(name)
        index_descriptors = list(self.catalog.indexes_of(name))
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            txn.lock_relation(descriptor.segment_id, LockMode.EXCLUSIVE)
            for index_descriptor in index_descriptors:
                self.catalog.drop(index_descriptor, txn)
            self.catalog.drop(descriptor, txn)
        for index_descriptor in index_descriptors:
            self._release_segment(index_descriptor)
            self._index_objects.pop(index_descriptor.name, None)
        self._release_segment(descriptor)
        self._relations.pop(name, None)
        self.pump()

    def _release_segment(self, descriptor) -> None:
        """Free a dropped object's partitions: SLT bins, checkpoint
        images, and the in-memory segment.  Runs after the catalog drop
        committed."""
        for number, info in sorted(descriptor.partitions.items()):
            address = PartitionAddress(descriptor.segment_id, number)
            if self.slt.has_partition(address):
                # A condense chain's shadow slot is referenced only by the
                # bin; free it before the bin disappears with the drop.
                stale = self.slt.clear_condense_state(
                    self.slt.bin_index_of(address)
                )
                if stale is not None:
                    self.checkpoint_disk.free(stale)
                self.slt.drop_partition(address)
            if info.checkpoint_slot is not None:
                self.checkpoint_disk.free(info.checkpoint_slot)
        if descriptor.segment_id in self.memory:
            self.memory.drop_segment(descriptor.segment_id)

    # -- handles -----------------------------------------------------------------------------------

    def table(self, name: str) -> Relation:
        self.catalog.relation(name)  # raise early if unknown
        with self._handles_mutex:
            if name not in self._relations:
                self._relations[name] = Relation(self, name)
            return self._relations[name]

    def index_object(
        self, descriptor: IndexDescriptor, txn: Transaction | None
    ) -> TTreeIndex | LinearHashIndex:
        """The live index structure for a descriptor, bound to ``txn``'s
        change sink for this call (the binding is thread-local, so
        concurrent workers sharing one cached index object each log and
        lock through their own transaction)."""
        index = self._index_objects.get(descriptor.name)
        if index is None:
            self.ensure_segment_resident(descriptor.segment_id)
            segment = self.memory.segment(descriptor.segment_id)
            store = NodeStore(segment)
            if descriptor.anchor is None:
                raise CatalogError(f"index {descriptor.name!r} has no anchor")
            if descriptor.kind == "ttree":
                built: TTreeIndex | LinearHashIndex = TTreeIndex(
                    store, anchor=descriptor.anchor
                )
            else:
                built = LinearHashIndex(store, anchor=descriptor.anchor)
            with self._handles_mutex:
                index = self._index_objects.setdefault(descriptor.name, built)
        index.store.sink = txn
        return index

    def reload_index_mirrors(self, segment_ids: set[int]) -> None:
        """Flag cached index objects whose segments just rolled back.

        An abort (or statement rollback) restores index component *bytes*
        through UNDO records, but a cached ``TTreeIndex`` /
        ``LinearHashIndex`` also mirrors its anchor in decoded form
        (bucket directory, split pointer, root address, item count).
        Called by the transaction layer after applying UNDO; each flagged
        index re-decodes the mirror from the restored bytes at the start
        of its next serialised operation.
        """
        if not segment_ids:
            return
        with self._handles_mutex:
            stale = [
                index
                for index in self._index_objects.values()
                if index.store.segment.segment_id in segment_ids
            ]
        for index in stale:
            index.mark_mirror_stale()

    # -- residency / demand recovery --------------------------------------------------------------------

    def ensure_partition(self, address: PartitionAddress) -> Partition:
        """Resolve a partition, recovering it on demand after a crash.

        Section 2.5's rule is enforced here: a transaction must not hold a
        latch across a recovery wait — it would stall every other
        transaction for the duration of a disk read.
        """
        segment = self.memory.segment(address.segment)
        if segment.is_resident(address.partition):
            return segment.get(address.partition)
        if self.restart_coordinator is None:
            return segment.get(address.partition)  # raises the right error
        self.slb.block_latch.assert_unheld("on-demand partition recovery")
        self.checkpoint_disk.map_latch.assert_unheld("on-demand partition recovery")
        self.restart_coordinator.recover_partition(address)
        return segment.get(address.partition)

    def ensure_segment_resident(self, segment_id: int) -> None:
        """Recover every partition of a segment (index segments are used
        whole, so first touch restores them fully)."""
        try:
            segment = self.memory.segment(segment_id)
        except StorageError:
            raise
        missing = segment.missing_partitions()
        if not missing:
            return
        if self.restart_coordinator is None:
            raise RecoveryError(
                f"segment {segment_id} has unrecovered partitions but no "
                f"restart is in progress"
            )
        for number in missing:
            self.restart_coordinator.recover_partition(
                PartitionAddress(segment_id, number)
            )

    # -- crash / restart -----------------------------------------------------------------------------------

    def crash(self) -> None:
        """Lose main memory.  Stable memory and disks survive."""
        self.memory.crash()
        self.locks.crash()
        self.transactions.crash()
        self._relations.clear()
        self._index_objects.clear()
        self.restart_coordinator = None
        self.crashed = True

    def restart(self, mode: RecoveryMode = RecoveryMode.ON_DEMAND) -> RestartCoordinator:
        """Bring the system back: catalogs first, then data per ``mode``."""
        return self.recovery_service.restart(mode)

    # -- lifecycle ------------------------------------------------------------------------------------------

    def close(self) -> None:
        """End the database's session.  Idempotent.  No engine keeps a
        thread between calls, so there is nothing to release; the
        database remains usable for inspection afterwards."""

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- statistics -----------------------------------------------------------------------------------------

    def register_scheduler(self, scheduler) -> None:
        """Attach a concurrent scheduler for observability.

        Called by :class:`~repro.txn.concurrent.ConcurrentScheduler` on
        construction; :meth:`stats` and ``Monitor.snapshot()`` report the
        registered scheduler's committed/conflict/retry counters.
        """
        self.scheduler = scheduler

    def stats(self) -> dict:
        """A status snapshot used by examples and benchmarks."""
        scheduler_stats = self.scheduler.stats() if self.scheduler is not None else None
        return {
            "scheduler": scheduler_stats,
            "engine": self.engine.name,
            "shard_id": self.shard_id,
            "twopc": self.twopc.snapshot(),
            "clock_seconds": self.clock.now,
            "transactions_committed": self.transactions.committed,
            "transactions_aborted": self.transactions.aborted,
            "slb_records_written": self.slb.records_written,
            "slt_records_binned": self.slt.records_binned,
            "log_pages_written": self.log_disk.pages_written,
            "checkpoints_taken": self.checkpoints.checkpoints_taken,
            "condenser": self.condenser.stats_snapshot(),
            "recovery_cpu_instructions": self.recovery_cpu.total_instructions,
            "resident_partitions": self.memory.resident_partition_count(),
            "log_page_cache_hits": self.log_disk.cache_hits,
            "media_restore": self.last_media_restore,
            "logging": self.logging_stats(),
            "transient_io": {
                "log": self.log_disk.io_stats.snapshot(),
                "checkpoint": self.checkpoint_disk.io_stats.snapshot(),
            },
        }

    def logging_stats(self) -> dict:
        """Per-mode logging observability (docs/LOGGING.md): commits and
        stable log bytes per mode, bytes/txn, command-log state, sweep
        counters, and the last restart's replay plan."""
        mode_commits, mode_bytes = self.slb.mode_stats()
        per_txn = {
            mode: mode_bytes.get(mode, 0) / commits
            for mode, commits in mode_commits.items()
            if commits
        }
        return {
            "mode": self.config.logging_mode,
            "mode_commits": mode_commits,
            "mode_bytes": mode_bytes,
            "log_bytes_per_txn": per_txn,
            "command_seq": self.slb.command_seq,
            "live_commands": len(self.slb.live_commands()),
            "sweeps_taken": self.checkpoints.sweeps_taken,
            "commands_settled": self.checkpoints.commands_settled,
            "command_replay": self.last_command_replay,
        }

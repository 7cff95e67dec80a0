"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``repro`` modules from outside:
it replaces class attributes and module-level names while installed and
puts the originals back on :meth:`Tracer.uninstall`, so ``src/`` carries
no tracing code and an untraced run executes the library unmodified.

Every wrapped call records one span ``(parent, name, start, end, ctx,
units)`` in memory, where ``ctx`` is the transaction or restart cycle
the harness was running when the call happened and ``units`` is what the
call handled (records, pages, checkpoints; 1 for a plain call).
Per-layer numbers use self time: a span's duration minus the durations
of its child spans.  The engine runs single-threaded (``SimEngine``), so
spans nest strictly and the children of a span never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

#: (module, attribute path, span name, layer, units).  ``units`` maps a
#: call's result to the number of records, pages or checkpoints it
#: handled; ``None`` means one unit per call.
SPANS = [
    ("repro.db.relation", "Relation.read", "db.read", "db", None),
    ("repro.db.relation", "Relation.update", "db.update", "db", None),
    ("repro.db.relation", "Relation.insert", "db.insert", "db", None),
    ("repro.db.relation", "Relation.lookup", "db.lookup", "db", None),
    ("repro.db.relation", "Relation.range_by", "db.range", "db", None),
    ("repro.txn.transaction", "Transaction.commit", "txn.commit", "txn", None),
    (
        "repro.concurrency.locks",
        "LockManager.acquire",
        "concurrency.acquire",
        "concurrency",
        None,
    ),
    ("repro.wal.slb", "StableLogBuffer.append", "wal.slb_append", "wal", None),
    ("repro.wal.slb", "StableLogBuffer.drain_committed", "wal.slb_drain", "wal", len),
    ("repro.wal.slt", "StableLogTail.deposit", "wal.slt_deposit", "wal", None),
    ("repro.wal.slt", "StableLogTail.seal_page", "wal.seal_page", "wal", None),
    ("repro.wal.log_disk", "LogDisk.append_page", "wal.log_append_page", "wal", None),
    ("repro.wal.log_disk", "LogDisk.read_page", "wal.log_read_page", "wal", None),
    (
        "repro.recovery.processor",
        "RecoveryProcessor.run_until_drained",
        "recovery.sort",
        "recovery",
        int,
    ),
    (
        "repro.recovery.restart",
        "RestartCoordinator.restore_system_state",
        "recovery.phase1",
        "recovery",
        None,
    ),
    (
        "repro.recovery.restart",
        "RestartCoordinator.recover_partition",
        "recovery.partition_restore",
        "recovery",
        lambda stats: 0 if stats is None else 1,
    ),
    (
        "repro.recovery.redo",
        "rebuild_partition",
        "recovery.redo",
        "recovery",
        lambda result: result[1]["records_applied"],
    ),
    (
        "repro.recovery.redo",
        "rebuild_partition_resilient",
        "recovery.redo_resilient",
        "recovery",
        None,
    ),
    ("repro.recovery.condenser", "Condenser.step", "recovery.condense", "recovery", int),
    (
        "repro.recovery.replay_plan",
        "replay_live_commands",
        "recovery.command_replay",
        "recovery",
        lambda stats: stats["commands_replayed"],
    ),
    (
        "repro.checkpoint.manager",
        "CheckpointManager.process_pending",
        "checkpoint.process",
        "checkpoint",
        int,
    ),
    (
        "repro.checkpoint.disk_queue",
        "CheckpointDiskQueue.write_image",
        "checkpoint.image_write",
        "checkpoint",
        None,
    ),
    (
        "repro.checkpoint.disk_queue",
        "CheckpointDiskQueue.read_image",
        "checkpoint.image_read",
        "checkpoint",
        None,
    ),
    ("repro.index.linear_hash", "LinearHashIndex.search", "index.hash_search", "index", None),
    ("repro.index.linear_hash", "LinearHashIndex.insert", "index.hash_insert", "index", None),
    ("repro.index.linear_hash", "LinearHashIndex.delete", "index.hash_delete", "index", None),
    ("repro.index.ttree", "TTreeIndex.search", "index.ttree_search", "index", None),
    ("repro.index.ttree", "TTreeIndex.range_scan", "index.ttree_range", "index", None),
    ("repro.index.ttree", "TTreeIndex.insert", "index.ttree_insert", "index", None),
    ("repro.index.ttree", "TTreeIndex.delete", "index.ttree_delete", "index", None),
    ("repro.engine.sim", "SimEngine.pump", "engine.pump", "engine", None),
]

#: Calls that are only counted, not timed: they are too frequent and too
#: short for a span each.  (module, attribute path, counter name)
COUNTS = [
    ("repro.txn.transaction", "Transaction.lock", "txn.lock"),
    ("repro.wal.records", "RedoRecord.encode", "wal.encode"),
    ("repro.wal.records", "RedoRecord.size_bytes", "wal.encode"),
]

LAYERS = ["db", "txn", "concurrency", "wal", "recovery", "checkpoint", "index", "engine"]


class Tracer:
    """Installs wrappers, records spans, and summarises them."""

    def __init__(self) -> None:
        self.names = [span[2] for span in SPANS]
        self.layer_of = {span[2]: span[3] for span in SPANS}
        #: counter name -> calls (counted-only targets, lock conflicts).
        self.counts: dict[str, int] = {}
        #: Spans in completion order; a slot is reserved at entry so
        #: children can name their parent by index.
        self.spans: list = []
        #: Harness-set tag: the transaction number (> 0) or the restart
        #: cycle (< 0) the current calls belong to.
        self.ctx = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for index, (module, path, name, _, units) in enumerate(SPANS):
            self._patch(module, path, lambda fn, i=index, u=units: self._span(fn, i, u))
        for module, path, name in COUNTS:
            self._patch(module, path, lambda fn, n=name: self._count(fn, n))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(make(original.fget))
            else:
                wrapped = make(original)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # A module-level function is also bound by name in every module
        # that imported it; rebind each of those references.
        original = getattr(module, path)
        wrapped = make(original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, path, None) is original
            ):
                self._originals.append((other, path, original))
                setattr(other, path, wrapped)

    # -- wrappers ----------------------------------------------------------------

    def _span(self, fn, name_id: int, units):
        spans = self.spans
        stack = self._stack
        name = self.names[name_id]
        clock = time.perf_counter
        conflict = name == "concurrency.acquire"

        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration, so it stays open while
            # the consumer holds the generator suspended.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                slot = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(slot)
                start = clock()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    end = clock()
                    # An abandoned generator closes late, out of order.
                    stack.remove(slot)
                    spans[slot] = (parent, name_id, start, end, self.ctx, 1)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[slot] = (parent, name_id, start, end, self.ctx, 0)
                raise
            end = clock()
            stack.pop()
            spans[slot] = (
                parent, name_id, start, end, self.ctx, 1 if units is None else units(result)
            )
            if conflict and result is False:
                self.counts["concurrency.conflicts"] = (
                    self.counts.get("concurrency.conflicts", 0) + 1
                )
            return result

        return wrapper

    def _count(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries --------------------------------------------------------------------

    def totals(self, *, working_only: bool = False) -> dict[str, list[float]]:
        """Per span name: [calls, units, self seconds, inclusive seconds].

        ``working_only`` keeps only spans that handled at least one unit
        (e.g. condenser steps that folded pages, checkpoint polls that
        ran a checkpoint)."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0, 0.0, 0.0] for name in self.names}
        for index, (_, name_id, start, end, _, units) in enumerate(self.spans):
            if working_only and units <= 0:
                continue
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += units
            entry[2] += end - start - child[index]
            entry[3] += end - start
        return totals

    def write(self, path) -> None:
        """Write every span, gzipped JSON, for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(
                {
                    "fields": ["parent", "name", "start_s", "end_s", "ctx", "units"],
                    "names": self.names,
                    "ctx": "transaction number if > 0, restart cycle if < 0",
                    "spans": self.spans,
                },
                out,
                separators=(",", ":"),
            )

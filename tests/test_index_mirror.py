"""The decoded-component mirror of the hash and T-Tree indexes.

Each index keeps ``address -> (blob, decoded content)`` for the
components it read or wrote, and reuses an entry only while the store
still holds that very bytes object.  These tests check that:

* a mirrored component never differs from a fresh decode of the store's
  bytes, through inserts, deletes, splits, overflow chains, rotations,
  transaction aborts, statement rollbacks and refused locks;
* a crash and restart in each recovery mode keeps the digest and counts;
* opening an index reads component headers only, warm searches decode
  nothing, and a rollback costs a decode of the restored components only.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, RecoveryMode, SystemConfig
from repro.common import EntityAddress, SegmentKind
from repro.index import LinearHashIndex, NodeStore, TTreeIndex
from repro.index.base import NULL_ADDRESS
from repro.index.linear_hash import _Bucket
from repro.index.ttree import _TNode
from repro.recovery.oracle import logical_digest
from repro.storage import MemoryManager


class LockRefused(Exception):
    """Stands in for a no-wait lock refusal."""


class UndoSink:
    """A change sink keeping before-images so tests can roll back.

    ``refuse_after`` makes the n-th following ``lock_component`` call
    raise, before the store touches the component (as a no-wait refusal
    does)."""

    def __init__(self, segment):
        self.segment = segment
        self.undo: list[tuple[EntityAddress, bytes | None]] = []
        self.refuse_after: int | None = None

    def lock_component(self, address):
        if self.refuse_after is not None:
            self.refuse_after -= 1
            if self.refuse_after < 0:
                self.refuse_after = None
                raise LockRefused(address)

    def index_node_written(self, address, before, after):
        self.undo.append((address, before))

    def index_node_freed(self, address, before):
        self.undo.append((address, before))

    def partition_allocated(self, partition):
        pass

    def rollback(self, index, mark=0) -> set[EntityAddress]:
        """Restore every component changed since ``mark``, newest first,
        then flag the index as a transaction rollback does.  Returns the
        restored addresses."""
        restored = set()
        for address, before in reversed(self.undo[mark:]):
            partition = self.segment.get(address.partition)
            if before is None:
                partition.delete(address.offset)
            elif address.offset in partition:
                partition.update(address.offset, before)
            else:
                partition.insert_at(address.offset, before)
            restored.add(address)
        del self.undo[mark:]
        index.mark_mirror_stale()
        return restored


def make_index(kind, sink_factory=UndoSink, **params):
    manager = MemoryManager(partition_size=16 * 1024)
    segment = manager.create_segment(SegmentKind.INDEX, "idx")
    sink = sink_factory(segment) if sink_factory else None
    store = NodeStore(segment, sink)
    if kind == "hash":
        index = LinearHashIndex(store, **params)
    else:
        index = TTreeIndex(store, **params)
    if sink is not None:
        sink.undo.clear()
    return index, sink


SMALL = {
    "hash": {"initial_buckets": 2, "bucket_capacity": 2},
    "ttree": {"min_items": 2, "max_items": 3},
}
COMPONENT = {"hash": _Bucket, "ttree": _TNode}


def reachable(index):
    """Addresses of every bucket / tree node reachable from the anchor."""
    if isinstance(index, LinearHashIndex):
        for head in index._directory:
            address = head
            while address != NULL_ADDRESS:
                yield address
                address = index._load(address).overflow
    else:
        pending = [index._root]
        while pending:
            address = pending.pop()
            if address != NULL_ADDRESS:
                yield address
                node = index._load(address)
                pending += (node.left, node.right)


def assert_matches(index, kind, model):
    # items() is serialised: it also applies any pending mirror refresh
    assert sorted(index.items()) == sorted(model)
    assert len(index) == len(model)
    decode = COMPONENT[kind].decode
    live = list(reachable(index))
    for address in live:
        assert index._load(address) == decode(address, index.store.read(address))
    assert index._decoded.keys() <= set(live)  # bounded by the index


key_strategy = st.integers(0, 11)
op_strategy = st.one_of(
    st.tuples(st.just("insert"), key_strategy),
    st.tuples(st.just("delete"), st.integers(0, 1_000)),
)
step_strategy = st.one_of(
    st.tuples(st.just("commit"), st.lists(op_strategy, max_size=6)),
    st.tuples(st.just("abort"), st.lists(op_strategy, min_size=1, max_size=6)),
    st.tuples(
        st.just("statement"),
        st.lists(op_strategy, max_size=4),
        st.lists(op_strategy, min_size=1, max_size=4),
    ),
    st.tuples(st.just("refused"), key_strategy, st.integers(0, 8)),
)


@pytest.mark.parametrize("kind", ["hash", "ttree"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(step_strategy, min_size=1, max_size=25))
def test_mirror_matches_fresh_decode(kind, steps):
    index, sink = make_index(kind, **SMALL[kind])
    model: set[tuple[int, EntityAddress]] = set()
    next_value = [0]

    def run(op, model):
        name, arg = op
        if name == "insert":
            next_value[0] += 1
            item = (arg, EntityAddress(1, 1, next_value[0]))
            index.insert(*item)
            model.add(item)
        elif model:
            item = sorted(model)[arg % len(model)]
            index.delete(*item)
            model.discard(item)

    for step in steps:
        if step[0] == "commit":
            for op in step[1]:
                run(op, model)
            sink.undo.clear()
        elif step[0] == "abort":
            attempt = set(model)
            for op in step[1]:
                run(op, attempt)
            sink.rollback(index)
        elif step[0] == "statement":
            for op in step[1]:
                run(op, model)
            mark = len(sink.undo)
            attempt = set(model)
            for op in step[2]:
                run(op, attempt)
            sink.rollback(index, mark)
            sink.undo.clear()
        else:
            _, key, refuse_after = step
            sink.refuse_after = refuse_after
            attempt = set(model)
            try:
                run(("insert", key), attempt)
            except LockRefused:
                sink.rollback(index)
            else:
                model = attempt
                sink.undo.clear()
            sink.refuse_after = None
        assert_matches(index, kind, model)


@pytest.mark.parametrize("kind", ["hash", "ttree"])
def test_concurrent_workers_keep_the_mirror_exact(kind):
    """More threads than cores insert, search and delete duplicate keys on
    one index with a short switch interval; afterwards every mirrored
    component still matches its bytes and the contents match the model."""
    index, _ = make_index(kind, sink_factory=None, **SMALL[kind])
    workers, per_worker = 6, 60
    errors: list[Exception] = []

    def work(worker):
        try:
            mine = [(i % 17, EntityAddress(1, worker, i)) for i in range(per_worker)]
            for key, value in mine:
                index.insert(key, value)
                assert value in index.search(key)
            for key, value in mine[::2]:
                index.delete(key, value)
                assert value not in index.search(key)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    model = {
        (i % 17, EntityAddress(1, worker, i))
        for worker in range(workers)
        for i in range(1, per_worker, 2)
    }
    assert_matches(index, kind, model)


# -- crash and restart ----------------------------------------------------------------


def small_config():
    return SystemConfig(
        log_page_size=1024,
        update_count_threshold=40,
        log_window_pages=256,
        log_window_grace_pages=16,
    )


def index_lengths(db):
    return {
        descriptor.name: len(db.index_object(descriptor, None))
        for descriptor in db.catalog.indexes()
    }


@pytest.mark.parametrize("mode", list(RecoveryMode))
def test_crash_restart_keeps_digest_and_counts(mode):
    db = Database(small_config())
    rel = db.create_relation(
        "accounts", [("id", "int"), ("branch", "int")], primary_key="id"
    )
    db.create_index("accounts_by_branch", "accounts", "branch", kind="ttree")
    addresses = {}
    with db.transaction() as txn:
        for i in range(120):
            addresses[i] = rel.insert(txn, {"id": i, "branch": i % 7})
    with db.transaction() as txn:
        for i in range(0, 120, 5):
            rel.update(txn, addresses[i], {"branch": 100 + i})  # moves index keys
        for i in range(1, 120, 9):
            rel.delete(txn, addresses.pop(i))
    txn = db.transactions.begin()
    for i in range(200, 260):
        rel.insert(txn, {"id": i, "branch": i % 3})
    txn.abort()
    with db.transaction() as txn:
        with pytest.raises(RuntimeError):
            with txn.statement():
                rel.insert(txn, {"id": 500, "branch": 1})
                raise RuntimeError("statement fails")
        rel.insert(txn, {"id": 501, "branch": 2})
    with db.transaction() as txn:  # warm the mirrors
        for i in addresses:
            assert rel.lookup(txn, i) is not None
        assert len(rel.lookup_by(txn, "accounts_by_branch", 3)) > 0
    lengths = index_lengths(db)
    digest = logical_digest(db)

    db.crash()
    db.restart(mode)
    assert index_lengths(db) == lengths
    rel = db.table("accounts")
    with db.transaction() as txn:
        assert rel.lookup(txn, 500) is None
        assert rel.lookup(txn, 501)["branch"] == 2
        for i in addresses:
            assert rel.lookup(txn, i)["id"] == i
    if db.restart_coordinator is not None:
        db.restart_coordinator.recover_everything()
    assert logical_digest(db) == digest
    for descriptor in db.catalog.indexes():
        db.index_object(descriptor, None).verify_invariants()
    db.close()


# -- cost bounds ----------------------------------------------------------------------


@pytest.fixture()
def decodes(monkeypatch):
    """Addresses passed to ``_Bucket.decode`` / ``_TNode.decode``."""
    calls: list[EntityAddress] = []
    for cls in (_Bucket, _TNode):
        original = cls.decode.__func__

        def counting(klass, address, blob, original=original):
            calls.append(address)
            return original(klass, address, blob)

        monkeypatch.setattr(cls, "decode", classmethod(counting))
    return calls


@pytest.fixture(scope="module")
def big_indexes():
    """A 5,000-key index of each kind, built without a sink."""
    built = {}
    for kind in ("hash", "ttree"):
        index, _ = make_index(kind, sink_factory=None)
        for key in range(5_000):
            index.insert(key, EntityAddress(1, 1, key))
        built[kind] = index
    return built


def reopen(index):
    return type(index)(index.store, anchor=index.anchor)


@pytest.mark.parametrize("kind", ["hash", "ttree"])
def test_open_and_reload_read_headers_only(kind, big_indexes, decodes):
    reopened = reopen(big_indexes[kind])
    assert len(reopened) == 5_000
    reopened._reload_mirror()
    assert len(reopened) == 5_000
    assert decodes == []


@pytest.mark.parametrize("kind", ["hash", "ttree"])
def test_warm_searches_decode_nothing(kind, big_indexes, decodes):
    reopened = reopen(big_indexes[kind])
    keys = range(0, 5_000, 25)
    for key in keys:  # warm-up
        reopened.search(key)
    assert decodes
    decodes.clear()
    for key in keys:
        assert reopened.search(key) == [EntityAddress(1, 1, key)]
    assert decodes == []


@pytest.mark.parametrize("kind", ["hash", "ttree"])
def test_search_after_abort_decodes_only_restored_components(kind, decodes):
    index, sink = make_index(kind, **SMALL[kind])
    for key in range(200):
        index.insert(key, EntityAddress(1, 1, key))
    sink.undo.clear()
    for key in range(200):  # warm every component
        index.search(key)
    extra = EntityAddress(1, 1, 999)
    index.insert(77, extra)
    restored = sink.rollback(index)
    decodes.clear()
    assert index.search(77) == [EntityAddress(1, 1, 77)]
    assert decodes  # the search passed through a restored component
    assert set(decodes) <= restored
    decodes.clear()
    assert index.search(77) == [EntityAddress(1, 1, 77)]
    assert decodes == []

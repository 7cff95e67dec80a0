"""Tests for the T-Tree index, including property-based model checking."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EntityAddress, IndexStructureError, SegmentKind
from repro.index import NodeStore, TTreeIndex
from repro.index.base import NULL_ADDRESS
from repro.storage import MemoryManager


def make_store():
    manager = MemoryManager(partition_size=48 * 1024)
    segment = manager.create_segment(SegmentKind.INDEX, "idx")
    return NodeStore(segment)


def addr(n):
    return EntityAddress(1, 1, n)


@pytest.fixture()
def tree():
    return TTreeIndex(make_store(), min_items=2, max_items=4)


class TestBasics:
    def test_empty_tree(self, tree):
        assert len(tree) == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []

    def test_insert_and_search(self, tree):
        tree.insert(5, addr(50))
        assert tree.search(5) == [addr(50)]
        assert len(tree) == 1

    def test_duplicate_keys_supported(self, tree):
        tree.insert(5, addr(50))
        tree.insert(5, addr(51))
        assert sorted(tree.search(5), key=lambda a: a.offset) == [addr(50), addr(51)]

    def test_items_sorted(self, tree):
        for key in [9, 3, 7, 1, 5]:
            tree.insert(key, addr(key))
        assert [k for k, _ in tree.items()] == [1, 3, 5, 7, 9]

    def test_delete(self, tree):
        tree.insert(5, addr(50))
        tree.delete(5, addr(50))
        assert tree.search(5) == []
        assert len(tree) == 0

    def test_delete_missing_raises(self, tree):
        tree.insert(5, addr(50))
        with pytest.raises(IndexStructureError):
            tree.delete(6, addr(60))
        with pytest.raises(IndexStructureError):
            tree.delete(5, addr(999))

    def test_delete_from_empty_raises(self, tree):
        with pytest.raises(IndexStructureError):
            tree.delete(1, addr(1))

    def test_string_keys(self, tree):
        for name in ["delta", "alpha", "charlie", "bravo"]:
            tree.insert(name, addr(len(name)))
        assert [k for k, _ in tree.items()] == ["alpha", "bravo", "charlie", "delta"]

    def test_range_scan(self, tree):
        for key in range(20):
            tree.insert(key, addr(key))
        assert [k for k, _ in tree.range_scan(5, 9)] == [5, 6, 7, 8, 9]
        assert [k for k, _ in tree.range_scan(low=17)] == [17, 18, 19]
        assert [k for k, _ in tree.range_scan(high=2)] == [0, 1, 2]


class TestStructure:
    def test_invariants_after_ascending_inserts(self, tree):
        for key in range(200):
            tree.insert(key, addr(key))
        tree.verify_invariants()
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_invariants_after_descending_inserts(self, tree):
        for key in reversed(range(200)):
            tree.insert(key, addr(key))
        tree.verify_invariants()
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_invariants_after_interleaved_inserts(self, tree):
        keys = [((i * 37) % 211) for i in range(211)]
        for key in keys:
            tree.insert(key, addr(key))
        tree.verify_invariants()
        assert len(tree) == 211

    def test_invariants_after_deleting_everything(self, tree):
        keys = [((i * 53) % 149) for i in range(149)]
        for key in keys:
            tree.insert(key, addr(key))
        for key in keys:
            tree.delete(key, addr(key))
            tree.verify_invariants()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_alternating_insert_delete(self, tree):
        live = set()
        for i in range(300):
            key = (i * 31) % 97
            if key in live:
                tree.delete(key, addr(key))
                live.remove(key)
            else:
                tree.insert(key, addr(key))
                live.add(key)
        tree.verify_invariants()
        assert sorted(live) == [k for k, _ in tree.items()]

    def test_rebuild_from_anchor(self):
        store = make_store()
        tree = TTreeIndex(store, min_items=2, max_items=4)
        for key in range(50):
            tree.insert(key, addr(key))
        rebuilt = TTreeIndex(store, anchor=tree.anchor)
        assert len(rebuilt) == 50
        assert rebuilt.search(25) == [addr(25)]
        rebuilt.verify_invariants()
        assert rebuilt.min_items == 2
        assert rebuilt.max_items == 4

    def test_invalid_node_config_rejected(self):
        with pytest.raises(IndexStructureError):
            TTreeIndex(make_store(), min_items=5, max_items=4)

    def test_mixed_key_types_rejected(self, tree):
        tree.insert(1, addr(1))
        with pytest.raises(IndexStructureError):
            tree.insert("one", addr(2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 50)),
        max_size=120,
    )
)
def test_ttree_matches_model(operations):
    """Property: the T-Tree behaves exactly like a sorted multiset model."""
    tree = TTreeIndex(make_store(), min_items=2, max_items=4)
    model: dict[int, list[EntityAddress]] = {}
    counter = 0
    for op, key in operations:
        if op == "insert":
            counter += 1
            value = addr(counter)
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        elif model.get(key):
            value = model[key].pop()
            if not model[key]:
                del model[key]
            tree.delete(key, value)
    tree.verify_invariants()
    assert len(tree) == sum(len(v) for v in model.values())
    for key, values in model.items():
        assert sorted(tree.search(key), key=lambda a: a.offset) == sorted(
            values, key=lambda a: a.offset
        )
    expected_keys = sorted(
        key for key, values in model.items() for _ in values
    )
    assert [k for k, _ in tree.items()] == expected_keys


def _in_bounds(key, low, high):
    return (low is None or key >= low) and (high is None or key <= high)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(0, 2),
    st.lists(
        st.tuples(st.sampled_from(["insert", "insert", "delete"]), st.integers(0, 8)),
        max_size=150,
    ),
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-1, 9)),
            st.one_of(st.none(), st.integers(-1, 9)),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_range_scan_matches_model(min_items, extra, operations, bounds):
    """Property: a range scan equals the filtered sorted model, duplicates
    and their order included, for open, closed and inverted bounds.

    Few distinct keys and tiny nodes make equal keys straddle node
    boundaries, which the scan's subtree pruning must not cut off."""
    tree = TTreeIndex(make_store(), min_items=min_items, max_items=min_items + extra)
    model: list[tuple[int, EntityAddress]] = []
    for counter, (op, key) in enumerate(operations):
        if op == "insert":
            item = (key, addr(counter))
            tree.insert(*item)
            model.append(item)
        else:
            present = [item for item in model if item[0] == key]
            if present:
                tree.delete(*present[0])
                model.remove(present[0])
    model.sort()
    for low, high in bounds:
        expected = [item for item in model if _in_bounds(item[0], low, high)]
        assert list(tree.range_scan(low, high)) == expected


def test_range_scan_loads_only_the_touched_nodes(monkeypatch):
    """A 16-key scan of a 5,000-item tree loads the nodes on the paths to
    its two bounds plus the nodes holding matches — O(log n + k), not n."""
    tree = TTreeIndex(make_store(), min_items=4, max_items=8)
    keys = list(range(5000))
    random.Random(7).shuffle(keys)
    for key in keys:
        tree.insert(key, addr(key))
    height = tree._load(tree._root).height

    def count_nodes(address):
        if address == NULL_ADDRESS:
            return 0
        node = tree._load(address)
        return 1 + count_nodes(node.left) + count_nodes(node.right)

    node_count = count_nodes(tree._root)

    loaded = []
    load = tree._load

    def counting_load(address):
        node = load(address)
        loaded.append(node)
        return node

    monkeypatch.setattr(tree, "_load", counting_load)
    result = [key for key, _ in tree.range_scan(2000, 2015)]
    assert result == list(range(2000, 2016))
    matched = sum(
        1 for node in loaded if any(2000 <= key <= 2015 for key, _ in node.items)
    )
    assert len(loaded) <= 2 * height + matched + 2
    assert len(loaded) * 20 < node_count

"""Common index interface and shared serialisation helpers."""

from __future__ import annotations

import functools
import struct
import threading
from typing import Any, Callable, Generic, Iterator, Protocol, TypeVar

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.keys import Key, decode_key, encode_key
from repro.index.node_store import NodeStore

#: Null component pointer.
NULL_ADDRESS = EntityAddress(-1, -1, -1)

_ADDRESS = struct.Struct("<iiq")
_U16 = struct.Struct("<H")


def pack_address(address: EntityAddress) -> bytes:
    return _ADDRESS.pack(address.segment, address.partition, address.offset)


def unpack_address(buf: bytes, pos: int) -> tuple[EntityAddress, int]:
    segment, partition, offset = _ADDRESS.unpack_from(buf, pos)
    return EntityAddress(segment, partition, offset), pos + _ADDRESS.size


def pack_item(key: Key, value: EntityAddress) -> bytes:
    encoded = encode_key(key)
    return _U16.pack(len(encoded)) + encoded + pack_address(value)


def unpack_item(buf: bytes, pos: int) -> tuple[Key, EntityAddress, int]:
    (key_len,) = _U16.unpack_from(buf, pos)
    pos += _U16.size
    key = decode_key(buf[pos : pos + key_len])
    pos += key_len
    value, pos = unpack_address(buf, pos)
    return key, value, pos


_F = TypeVar("_F", bound=Callable[..., Any])
_Self = TypeVar("_Self")


def serialised(method: _F) -> _F:
    """Run an index operation under the index's structure mutex.

    Entity-level 2PL locks serialise access to any one *component*, but a
    multi-node structural change (a T-Tree rotation, a linear-hash split)
    passes through intermediate states that a concurrent reader or writer
    on another worker thread must never observe.  The mutex is re-entrant
    (splits call back into the locked paths) and sits *above* the storage
    leaf mutexes and the no-wait entity locks the sink acquires: a
    conflict abort raised mid-operation unwinds through the ``with`` and
    releases it.
    """

    @functools.wraps(method)
    def wrapper(self: "Index", *args: Any, **kwargs: Any) -> Any:
        with self._structure_mutex:
            self._refresh_mirror_if_stale()
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


def serialised_scan(method: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
    """Like :func:`serialised` for generator methods: the scan is
    materialised under the mutex so iteration never interleaves with a
    structural change on another thread."""

    @functools.wraps(method)
    def wrapper(self: "Index", *args: Any, **kwargs: Any) -> Iterator[Any]:
        with self._structure_mutex:
            self._refresh_mirror_if_stale()
            return iter(list(method(self, *args, **kwargs)))

    return wrapper


class Component(Protocol):
    """A decoded index component: a private working copy its index may
    mutate and then write back."""

    address: EntityAddress

    def encode(self) -> bytes: ...

    def freeze(self) -> tuple[Any, ...]:
        """The component's content as an immutable tuple."""
        ...

    @classmethod
    def decode(cls: type[_Self], address: EntityAddress, blob: bytes) -> _Self: ...

    @classmethod
    def thaw(cls: type[_Self], address: EntityAddress, frozen: tuple[Any, ...]) -> _Self:
        """A fresh working copy of a :meth:`freeze` result."""
        ...


_C = TypeVar("_C", bound=Component)


class Index(Generic[_C]):
    """Interface shared by the T-Tree and the linear hash index.

    Values are entity addresses (of relation tuples).  Duplicate keys are
    permitted; ``(key, value)`` pairs are unique.
    """

    #: Set by subclasses: True when the index supports range scans.
    ORDERED: bool = False

    #: Set by subclasses: the component class :meth:`_load` decodes.
    _component: type[_C]

    store: NodeStore

    def __init__(self) -> None:
        #: See :func:`serialised` — whole-structure mutex for operations
        #: whose intermediate states must stay invisible across threads.
        self._structure_mutex = threading.RLock()
        #: See :meth:`mark_mirror_stale`.
        self._mirror_stale = False
        #: See :meth:`_load` — address -> (blob, frozen decoded content).
        self._decoded: dict[EntityAddress, tuple[bytes, tuple[Any, ...]]] = {}  # guarded-by: _structure_mutex

    # -- component I/O through the decoded-component mirror --------------------

    def _load(self, address: EntityAddress) -> _C:
        """A private working copy of the component at ``address``.

        The store's bytes stay the truth; the mirror only saves decoding
        them again.  Each entry keeps the blob it was decoded from (or
        encoded to) and is used only while the store still holds that very
        object: bytes are immutable, so identity implies equal content.
        Every other path that changes a component (UNDO, REDO replay,
        on-demand install, media restore, command replay) installs a
        different bytes object, so a stale entry simply misses.
        """
        blob = self.store.read(address)
        # Re-entrant: every index operation holds the mutex already
        # (see serialised); taking it here states the contract.
        with self._structure_mutex:
            cached = self._decoded.get(address)
            if cached is not None and cached[0] is blob:
                return self._component.thaw(address, cached[1])
            component = self._component.decode(address, blob)
            self._decoded[address] = (blob, component.freeze())
        return component

    def _save(self, component: _C) -> None:
        """Write a working copy back.  The mirror takes it only after the
        store did: a refused lock raises first and leaves the entry alone."""
        blob = component.encode()
        self.store.write(component.address, blob)
        with self._structure_mutex:
            self._decoded[component.address] = (blob, component.freeze())

    def _allocate(self, component: _C) -> _C:
        """Store a new component, setting its address."""
        blob = component.encode()
        component.address = self.store.allocate(blob)
        with self._structure_mutex:
            self._decoded[component.address] = (blob, component.freeze())
        return component

    def _free(self, address: EntityAddress) -> None:
        self.store.free(address)
        with self._structure_mutex:
            self._decoded.pop(address, None)

    def _retain(self, live: set[EntityAddress]) -> None:
        """Keep mirror entries only for the ``live`` components.  A
        rollback deletes the components its transaction allocated without
        passing through :meth:`_free`; this bounds the mirror by the
        index."""
        with self._structure_mutex:
            for address in self._decoded.keys() - live:
                del self._decoded[address]

    # -- mirror staleness ---------------------------------------------------------

    def mark_mirror_stale(self) -> None:
        """A rollback restored this index's component bytes: the decoded
        anchor state held on the object (bucket directory, split pointer,
        root address, item count) no longer matches them.

        The reload happens *lazily* at the start of the next serialised
        operation, under the structure mutex — reloading eagerly from the
        aborting transaction could nest another index's structure mutex
        under one this thread already holds mid-unwind, inviting a
        lock-order cycle.  The flag flip itself is atomic under the GIL.
        """
        self._mirror_stale = True

    def _refresh_mirror_if_stale(self) -> None:
        """Called by :func:`serialised` with the structure mutex held."""
        if self._mirror_stale:
            self._mirror_stale = False
            self._reload_mirror()

    def _reload_mirror(self) -> None:
        """Re-decode anchor state from component bytes (subclass hook)."""
        raise NotImplementedError

    def insert(self, key: Key, value: EntityAddress) -> None:
        raise NotImplementedError

    def delete(self, key: Key, value: EntityAddress) -> None:
        raise NotImplementedError

    def search(self, key: Key) -> list[EntityAddress]:
        raise NotImplementedError

    def items(self) -> Iterator[tuple[Key, EntityAddress]]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def verify_invariants(self) -> None:
        """Raise :class:`IndexStructureError` on any structural violation."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    @staticmethod
    def _not_found(key: Key, value: EntityAddress) -> IndexStructureError:
        return IndexStructureError(f"({key!r}, {value}) not present in index")

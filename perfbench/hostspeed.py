"""Host-speed reference: scales every reported time to one host speed.

The benchmark runs on a shared host whose speed drifts by 20-50% over
tens of seconds to minutes, so whole runs come out fast or slow and no
amount of sampling inside a run removes that.  Each round therefore also
times two fixed reference routines between its phases, pure Python that
lives only here and uses nothing from ``repro``:

* ``interpreter_routine``: small objects with slots, method calls,
  struct encode/decode and dict lookups on a few hundred KB;
* ``memory_routine``: decodes 20,000 records into objects, indexes them
  in a dict and reads them back in random order (a few MB), the shape of
  restart and of large scans.

A probe is the geometric mean of one call of each.  The round's times are
multiplied by ``REFERENCE_S / median(probes)``: they read as host time on
a host where a probe takes ``REFERENCE_S``.  A change to the program
moves its own times and not the routines', so it shows in full.  Each
routine alone left some timing of one workload noisier than the pair
does (NOTES.md has the measurements).
"""

from __future__ import annotations

import math
import random
import statistics
import struct
import time

#: Probe host seconds on the host the benchmark was first measured on (a
#: shared 2-vCPU x86-64 VM, CPython 3.11): the median over 48 rounds.
REFERENCE_S = 4.98e-3

_RECORD = struct.Struct("<qqi")
_RECORDS = 20_000


class _Record:
    __slots__ = ("key", "balance", "tag")

    def __init__(self, key: int, balance: int, tag: int):
        self.key = key
        self.balance = balance
        self.tag = tag

    def encode(self) -> bytes:
        return _RECORD.pack(self.key, self.balance, self.tag)

    @classmethod
    def decode(cls, data: bytes) -> "_Record":
        return cls(*_RECORD.unpack(data))


class _Store:
    def __init__(self) -> None:
        self.pages: dict[int, dict[int, bytes]] = {}

    def put(self, record: _Record) -> None:
        self.pages.setdefault(record.key % 61, {})[record.key] = record.encode()

    def get(self, key: int) -> _Record | None:
        data = self.pages.get(key % 61, {}).get(key)
        return None if data is None else _Record.decode(data)


def interpreter_routine() -> int:
    store = _Store()
    log = []
    for i in range(1200):
        key = (i * 7919) % 1021
        record = store.get(key)
        if record is None:
            record = _Record(key, 0, i & 7)
        record.balance += i
        store.put(record)
        log.append((key, record.balance))
    log.sort()
    return len(log)


_IMAGE = b"".join(_RECORD.pack((i * 7919) % _RECORDS, i, i & 7) for i in range(_RECORDS))
_ORDER = list(range(_RECORDS))
random.Random(7).shuffle(_ORDER)


def memory_routine() -> int:
    records = [_Record(*fields) for fields in _RECORD.iter_unpack(_IMAGE)]
    by_key = {record.key: record for record in records}
    total = sum(by_key[key].balance for key in _ORDER)
    return total + len(b"".join(record.encode() for record in records[:5000]))


def _timed(routine) -> float:
    routine()  # warm: the caches hold the benchmark's data, not the routine's
    start = time.perf_counter()
    routine()
    return time.perf_counter() - start


def probe() -> float:
    """One probe: geometric mean of the two routines' host seconds."""
    return math.sqrt(_timed(interpreter_routine) * _timed(memory_routine))


def scale(probes: list[float]) -> float:
    """The factor that turns host times measured alongside ``probes``
    into times at the reference speed."""
    return REFERENCE_S / statistics.median(probes)

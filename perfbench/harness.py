"""Rounds, timing and correctness checks of one benchmark run.

A run repeats *rounds* while another fits in ``--seconds`` (and until
at least ``min_rounds`` are done).  Every round does the same amount of
work on a fresh database, so a faster program finishes more rounds but
each sample means the same thing:

1. set-up: build the ``Database``, bulk-load, warm up (``setup_s``);
2. a fixed number of cycles, each a timed block of transactions (each
   timed on its own, pump included: ``txn_per_s``, ``txn_p50_us``,
   ``txn_p99_us``), then a fixed number of untimed transactions, then a
   crash and a timed restart, alternating ``EAGER`` and ``ON_DEMAND``
   (the ``restart_*`` metrics), then a few untimed transactions.  The
   log and checkpoint bytes of every transaction outside the restarts
   give ``log_bytes_per_txn`` and ``ckpt_bytes_per_txn``.

Host-speed probes between the phases (hostspeed.py) scale every
reported time to one reference host speed.

Everything is single-process, single-client, closed-loop, on the
deterministic ``SimEngine`` with every ``realtime_scale`` at 0, so all
times are host wall-clock of the Python system itself.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from repro import Database, RecoveryMode
from repro.db.integrity import verify_integrity
from repro.engine import SimEngine
from repro.recovery.oracle import logical_digest
from repro.storage.segment import Segment

import hostspeed
import workloads

clock = time.perf_counter
#: The module, not the ``repro.sim.chaos`` context manager of the same name.
chaos_module = importlib.import_module("repro.sim.chaos")

#: Transactions allowed for an on-demand restart to reach full residency
#: before the cycle counts as failed.
MAX_RECOVERY_TXNS = 20_000


@dataclass
class RoundSamples:
    """The timings of one round."""

    traced: bool
    setup_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Committed transactions per host second of each timed block.
    block_txn_per_s: list[float] = field(default_factory=list)
    #: Nearest-rank 99th-percentile host latency of each timed block.
    block_p99_s: list[float] = field(default_factory=list)
    restart_eager_s: list[float] = field(default_factory=list)
    restart_first_txn_s: list[float] = field(default_factory=list)
    restart_full_s: list[float] = field(default_factory=list)
    #: Host-speed probes taken between the round's phases (hostspeed.py).
    probes_s: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Turns this round's host times into reference-speed times."""
        return hostspeed.scale(self.probes_s)

    @property
    def txn_per_s(self) -> float:
        return len(self.latencies_s) / sum(self.latencies_s)


@dataclass
class Samples:
    """Everything a run measured, before it is reduced to metrics."""

    rounds: list[RoundSamples] = field(default_factory=list)
    #: Totals over every transaction outside the warm-up and the restart
    #: windows (exact counts): timed blocks and the untimed transactions
    #: around each crash.
    committed: int = 0
    log_bytes: int = 0
    ckpt_bytes: int = 0
    main_cpu_s: float = 0.0
    recovery_cpu_s: float = 0.0
    sim_restart_eager_s: list[float] = field(default_factory=list)
    sim_catalog_restore_s: list[float] = field(default_factory=list)
    #: Transactions committed while the tracer was installed.
    traced_txns: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, problem: str | None) -> None:
        """Count one correctness check; a non-None problem fails it."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def assert_hermetic(db: Database) -> None:
    """Refuse to time anything that would sleep or inject faults."""
    devices = [
        db.main_cpu,
        db.recovery_cpu,
        db.log_disk.disks.primary,
        db.log_disk.disks.mirror,
        db.checkpoint_disk.disk,
    ]
    for device in devices:
        if device.realtime_scale != 0 or device.latency_injector is not None:
            raise RuntimeError(f"{device.name}: realtime bridge is on")
    if chaos_module._active is not None or chaos_module._observer is not None:
        raise RuntimeError("a chaos injector or crash-point observer is installed")
    if not isinstance(db.engine, SimEngine):
        raise RuntimeError("the benchmark runs on the SimEngine")


# -- the logical digest, rebuilt from captured partitions -----------------------------


def snapshot_partition(partition) -> tuple[list, list]:
    heap = partition.heap
    return list(partition.entities()), [(h, heap.get(h)) for h in heap.handles()]


def digest_of(descriptors: list[bytes], layout: list, contents: dict) -> str:
    """``repro.recovery.oracle.logical_digest`` over given pieces: the
    same byte stream, with each partition's content taken from
    ``contents[(segment, partition)]`` instead of from live memory."""
    h = hashlib.sha256()
    for encoded in descriptors:
        h.update(b"D")
        h.update(encoded)
    for segment_id, numbers in layout:
        h.update(f"S{segment_id}".encode())
        for number in numbers:
            h.update(f"P{segment_id}:{number}".encode())
            entities, heap = contents[(segment_id, number)]
            for offset, data in entities:
                h.update(f"E{offset}:{len(data)}".encode())
                h.update(data)
            for handle, data in heap:
                h.update(f"H{handle}:{len(data)}".encode())
                h.update(data)
    return h.hexdigest()


def descriptors_of(db: Database) -> list[bytes]:
    return [d.encode() for d in list(db.catalog.relations()) + list(db.catalog.indexes())]


def resident_contents(db: Database) -> dict:
    return {
        (p.address.segment, p.address.partition): snapshot_partition(p)
        for segment in db.memory.segments()
        for p in segment.resident_partitions()
    }


def layout_of(db: Database) -> list:
    return [
        (segment.segment_id, [p.address.partition for p in segment.resident_partitions()])
        for segment in db.memory.segments()
    ]


class InstallCapture:
    """Snapshots each partition as recovery installs it, before any later
    transaction can change it, so an on-demand restart can be compared
    with the pre-crash digest even though transactions keep running.
    The seconds spent snapshotting are kept and taken off the timings."""

    def __init__(self) -> None:
        self.descriptors: list[bytes] = []
        self.contents: dict = {}
        self.cost_s = 0.0
        self._original = None

    def take(self, partition) -> None:
        start = clock()
        address = partition.address
        self.contents[(address.segment, address.partition)] = snapshot_partition(partition)
        self.cost_s += clock() - start

    def start(self, db: Database) -> None:
        """Snapshot the catalog and everything resident now (catalog
        partitions, command-replay closures), then every partition
        installed from here on."""
        start = clock()
        self.descriptors = descriptors_of(db)
        self.contents = resident_contents(db)
        self.cost_s += clock() - start
        original = self._original = Segment.install
        capture = self

        def install(segment, partition):
            original(segment, partition)
            capture.take(partition)

        Segment.install = install

    def stop(self) -> None:
        Segment.install = self._original


# -- one round ---------------------------------------------------------------------------


class Round:
    def __init__(self, name: str, seed: int, tiny: bool, samples: Samples):
        self.name = name
        self.plan = workloads.PLANS[name]
        self.seed = seed
        self.tiny = tiny
        self.samples = samples
        self.tracer = None
        self.timings = RoundSamples(traced=False)
        self.txn_no = 0
        self.cycle_no = 0

    def _size(self, key: str) -> int:
        size = self.plan[key]
        return max(2, size // 10) if self.tiny else size

    def setup(self) -> None:
        self._probe()
        start = clock()
        db = Database(workloads.system_config(**self.plan["config"]), engine=SimEngine())
        assert_hermetic(db)
        self.db = db
        self.workload = workloads.make(self.name, db, self.seed, self.tiny)
        self.workload.load()
        for _ in range(self._size("warmup")):
            self._txn()
        self.timings.setup_s = clock() - start

    def _probe(self) -> None:
        self.timings.probes_s.append(hostspeed.probe())

    def _txn(self):
        """One transaction; returns its host seconds, or None if it failed."""
        self.txn_no += 1
        if self.tracer is not None:
            self.tracer.ctx = self.txn_no
        start = clock()
        try:
            result = self.workload.txn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.samples.check(f"txn {self.txn_no}: {type(exc).__name__}: {exc}")
            return None
        elapsed = clock() - start
        self.samples.check(self.workload.check_result(result))
        if self.tracer is not None:
            self.samples.traced_txns += 1
        return elapsed

    def measure(self, tracer=None) -> None:
        """Alternate timed blocks of transactions with crash/restart
        cycles, so both kinds of sample are spread over the whole round
        and see the same host conditions.  With a tracer, every call of
        the round is traced."""
        self.tracer = tracer
        self.timings.traced = tracer is not None
        if tracer is not None:
            tracer.install()
        try:
            for index in range(self._size("cycles")):
                self._probe()
                self._phase(self._size("block"), timed=True)
                self.workload.before_crash()
                self._phase(self._size("between"), timed=False)
                self._probe()
                self._cycle(RecoveryMode.EAGER if index % 2 == 0 else RecoveryMode.ON_DEMAND)
                # Let post-restart first touches (index objects, relation
                # handles) happen before the next timed block.
                self._phase(self._size("after"), timed=False)
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = self.workload.check_state()
        self.samples.check("; ".join(problems) if problems else None)

    def _phase(self, count: int, timed: bool) -> None:
        """Run ``count`` transactions outside any restart window.  Their
        log and checkpoint bytes and simulated CPU are always added up;
        with ``timed``, their host latencies are throughput and latency
        samples."""
        db = self.db
        samples = self.samples
        log_before = db.slb.bytes_written
        ckpt_before = db.checkpoint_disk.disk.stats.bytes_written
        main_before = db.main_cpu.busy_seconds()
        recovery_before = db.recovery_cpu.busy_seconds()
        latencies = []
        for _ in range(count):
            elapsed = self._txn()
            if elapsed is not None:
                latencies.append(elapsed)
        if timed and latencies:
            self.timings.latencies_s.extend(latencies)
            self.timings.block_txn_per_s.append(len(latencies) / sum(latencies))
            self.timings.block_p99_s.append(percentile(sorted(latencies), 0.99))
        samples.committed += len(latencies)
        samples.log_bytes += db.slb.bytes_written - log_before
        samples.ckpt_bytes += db.checkpoint_disk.disk.stats.bytes_written - ckpt_before
        samples.main_cpu_s += db.main_cpu.busy_seconds() - main_before
        samples.recovery_cpu_s += db.recovery_cpu.busy_seconds() - recovery_before

    def _cycle(self, mode: RecoveryMode) -> None:
        db = self.db
        samples = self.samples
        expected = logical_digest(db)
        layout = layout_of(db)
        db.crash()
        # A real crash takes the heap with it: restart starts without the
        # garbage the workload left behind.
        gc.collect()
        self.cycle_no += 1
        if self.tracer is not None:
            self.tracer.ctx = -self.cycle_no
        sim_start = db.clock.now
        start = clock()
        coordinator = db.restart(mode)
        restarted = clock()
        samples.sim_catalog_restore_s.append(coordinator.catalog_restore_seconds)
        if mode is RecoveryMode.EAGER:
            self.timings.restart_eager_s.append(restarted - start)
            samples.sim_restart_eager_s.append(db.clock.now - sim_start)
            self._check_digest("eager", logical_digest(db), expected)
            return
        capture = InstallCapture()
        capture.start(db)
        full_at = restarted if coordinator.fully_recovered else None
        first_at = None
        cost_at_first = 0.0
        try:
            for _ in range(MAX_RECOVERY_TXNS):
                if first_at is not None and full_at is not None:
                    break
                elapsed = self._txn()
                if elapsed is None:
                    continue
                now = clock()
                if first_at is None:
                    first_at, cost_at_first = now, capture.cost_s
                if full_at is None and coordinator.fully_recovered:
                    full_at = now
        finally:
            capture.stop()
        if first_at is None or full_at is None:
            samples.check(f"on-demand restart not fully recovered after {MAX_RECOVERY_TXNS} txns")
            coordinator.recover_everything()
            return
        self.timings.restart_first_txn_s.append(first_at - start - cost_at_first)
        self.timings.restart_full_s.append(full_at - start - capture.cost_s)
        try:
            actual = digest_of(capture.descriptors, layout, capture.contents)
        except KeyError as exc:
            actual = f"partition {exc} never installed"
        self._check_digest("on-demand", actual, expected)

    def _check_digest(self, restart: str, actual: str, expected: str) -> None:
        problem = f"{restart} restart: digest {actual[:12]} != {expected[:12]}"
        self.samples.check(None if actual == expected else problem)

    def verify_digest_mirror(self) -> None:
        """``digest_of`` must reproduce ``logical_digest`` on live state."""
        db = self.db
        mirror = digest_of(descriptors_of(db), layout_of(db), resident_contents(db))
        self.samples.check(
            None if mirror == logical_digest(db) else "digest mirror disagrees with logical_digest"
        )

    def verify_integrity(self) -> None:
        problems = verify_integrity(self.db)
        self.samples.check("integrity: " + "; ".join(problems[:5]) if problems else None)


# -- the run ---------------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, *, tiny: bool, tracer=None) -> Samples:
    """Run rounds for ``seconds``; with a tracer, odd rounds are traced."""
    samples = Samples()
    min_rounds = 2 if (tracer is not None or tiny) else 3
    started = clock()
    index = 0
    while True:
        round_started = clock()
        gc.collect()
        round_ = Round(name, seed * 1_000_003 + index, tiny, samples)
        round_.setup()
        if index == 0:
            round_.verify_digest_mirror()
        gc.collect()
        round_.measure(tracer if index % 2 == 1 else None)
        samples.rounds.append(round_.timings)
        index += 1
        # Start another round only if it should end within ``seconds``,
        # so a run takes about ``seconds`` rather than up to a round more.
        now = clock()
        if index >= min_rounds and now - started + (now - round_started) > seconds:
            break
        round_.db.close()
    scales = " ".join(f"{r.scale:.3f}" for r in samples.rounds)
    print(
        f"perfbench: {index} rounds in {clock() - started:.1f} s, host-speed scales {scales}",
        file=sys.stderr,
    )
    round_.verify_integrity()
    round_.db.close()
    return samples


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(samples: Samples) -> dict[str, tuple[float, str]]:
    """Every time is multiplied by its round's ``scale``: it reads as
    host time at the reference host speed (hostspeed.py)."""
    rounds = samples.rounds
    latencies = sorted(value * r.scale for r in rounds for value in r.latencies_s)
    committed = max(1, samples.committed)

    def restart_ms(name: str) -> float:
        # Every round crashes at the same points, and restart cost grows
        # from point to point as log and history accumulate.  Each point
        # takes its median over the rounds, so a slow stretch of the host
        # in one round is outvoted; the metric is the mean over the points.
        points = zip(*([value * r.scale for value in getattr(r, name)] for r in rounds))
        return statistics.fmean(statistics.median(values) for values in points) * 1e3

    return {
        "setup_s": (statistics.median(r.setup_s * r.scale for r in rounds), "s"),
        "txn_per_s": (
            statistics.median(tps / r.scale for r in rounds for tps in r.block_txn_per_s),
            "1/s",
        ),
        "txn_p50_us": (percentile(latencies, 0.50) * 1e6, "us"),
        # Per block, so that a stretch of host stalls, which a probe
        # cannot scale away, lifts only the blocks it falls in.
        "txn_p99_us": (
            statistics.median(p99 * r.scale for r in rounds for p99 in r.block_p99_s) * 1e6,
            "us",
        ),
        "restart_eager_ms": (restart_ms("restart_eager_s"), "ms"),
        "restart_first_txn_ms": (restart_ms("restart_first_txn_s"), "ms"),
        "restart_full_ms": (restart_ms("restart_full_s"), "ms"),
        "log_bytes_per_txn": (samples.log_bytes / committed, "B"),
        "ckpt_bytes_per_txn": (samples.ckpt_bytes / committed, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

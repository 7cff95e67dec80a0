"""Tests for the execution-engine layer (``repro.engine``)."""
import threading
import time

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.db.monitor import Monitor
from repro.engine import (
    ENGINE_ENV_VAR,
    WORKERS_ENV_VAR,
    ExecutionEngine,
    SimEngine,
    ThreadedEngine,
    engine_from_env,
)
from repro.recovery.oracle import logical_digest
from repro.txn.concurrent import ConcurrentScheduler
from repro.wal.slb import WELL_KNOWN_RESERVE


def small_config(**overrides):
    defaults = dict(
        partition_size=8 * 1024, log_page_size=1024, update_count_threshold=50
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def loaded_db(engine=None, rows=60):
    db = Database(small_config(), engine=engine)
    rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
    with db.transaction() as txn:
        for i in range(rows):
            rel.insert(txn, {"id": i, "v": i * 10})
    return db


class TestEngineSelection:
    def test_default_is_sim(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert isinstance(engine_from_env(), SimEngine)
        db = Database(small_config())
        assert db.engine.name == "sim"
        db.close()

    def test_env_selects_threaded_with_workers(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "threaded")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        engine = engine_from_env()
        assert isinstance(engine, ThreadedEngine)
        assert engine.workers == 3

    def test_env_rejects_non_integer_workers(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "threaded")
        monkeypatch.setenv(WORKERS_ENV_VAR, "abc")
        with pytest.raises(ValueError, match=f"{WORKERS_ENV_VAR}.*'abc'"):
            engine_from_env()

    def test_env_rejects_unknown_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "quantum")
        with pytest.raises(ValueError, match="quantum"):
            engine_from_env()

    def test_explicit_engine_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "threaded")
        db = Database(small_config(), engine=SimEngine())
        assert db.engine.name == "sim"
        db.close()

    def test_threaded_engine_needs_a_worker(self):
        with pytest.raises(ValueError):
            ThreadedEngine(workers=0)

    def test_engine_cannot_be_shared_between_databases(self):
        engine = SimEngine()
        db = Database(small_config(), engine=engine)
        with pytest.raises(RuntimeError):
            Database(small_config(), engine=engine)
        db.close()

    def test_stats_and_snapshot_name_the_engine(self):
        db = loaded_db(engine=SimEngine())
        assert db.stats()["engine"] == "sim"
        assert Monitor(db).snapshot()["engine"] == "sim"
        db.close()

    def test_unattached_engine_refuses_duties(self):
        engine = SimEngine()
        with pytest.raises(RuntimeError):
            engine.pump()


class TestThreadedMatchesSim:
    def test_metered_totals_identical(self):
        """Duty order is preserved, so every metered figure matches the
        cooperative engine bit for bit."""
        snaps = {}
        for engine in (SimEngine(), ThreadedEngine(workers=4)):
            db = loaded_db(engine=engine)
            db.pump()
            snap = Monitor(db).snapshot()
            snaps[engine.name] = snap
            db.close()
        sim, threaded = snaps["sim"], snaps["threaded"]
        assert sim.pop("engine") == "sim"
        assert threaded.pop("engine") == "threaded"
        assert sim == threaded

    def test_crash_restart_round_trip(self):
        db = loaded_db(engine=ThreadedEngine(workers=4), rows=200)
        db.crash()
        db.restart()
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, 150)["v"] == 1500
        db.close()


class TestParallelRestore:
    def restore_all(self, workers):
        db = loaded_db(engine=ThreadedEngine(workers=workers), rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        assert len(addresses) > 1
        restored = db.engine.restore_partitions(addresses)
        assert restored == len(addresses)
        assert coordinator.fully_recovered
        with db.transaction() as txn:
            for i in (0, 199, 399):
                assert db.table("items").lookup(txn, i)["v"] == i * 10
        db.close()

    def test_pool_restores_everything(self):
        self.restore_all(workers=4)

    def test_single_worker_pool_restores_everything(self):
        self.restore_all(workers=1)

    def test_worker_failure_requeues_and_propagates(self):
        db = loaded_db(engine=ThreadedEngine(workers=4), rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        boom = addresses[len(addresses) // 2]
        real = coordinator.recover_partition

        def failing(address):
            if address == boom:
                raise RuntimeError("injected restore failure")
            return real(address)

        coordinator.recover_partition = failing
        with pytest.raises(RuntimeError, match="injected restore failure"):
            db.engine.restore_partitions(addresses)
        coordinator.recover_partition = real
        # The failed address (and anything unprocessed) went back on the
        # queue; a second sweep finishes the job.
        pending = coordinator.drain_queue()
        assert boom in pending
        db.engine.restore_partitions(pending)
        assert coordinator.fully_recovered
        db.close()

    def test_duplicate_addresses_recovered_once(self):
        db = loaded_db(engine=ThreadedEngine(workers=4), rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        doubled = addresses + addresses
        restored = db.engine.restore_partitions(doubled)
        assert restored == len(addresses)
        assert coordinator.fully_recovered
        db.close()


class TestRestoreMap:
    """The media-recovery fan-out seam: results in input order, first
    error propagated, sequential degenerate cases."""

    def test_threaded_pool_preserves_input_order(self):
        engine = ThreadedEngine(workers=4)
        items = list(range(50))
        seen_threads = set()
        gate = threading.Barrier(2, timeout=10)

        def work(item):
            seen_threads.add(threading.current_thread().name)
            if item < 2:
                gate.wait()  # prove two workers run concurrently
            return item * 2

        assert engine.restore_map(work, items) == [i * 2 for i in items]
        assert len(seen_threads) > 1  # the pool actually fanned out

    def test_single_worker_runs_on_caller(self):
        engine = ThreadedEngine(workers=1)
        caller = threading.current_thread().name
        threads = []
        engine.restore_map(lambda i: threads.append(threading.current_thread().name), [1, 2, 3])
        assert threads == [caller] * 3

    def test_sim_engine_is_sequential_in_order(self):
        engine = SimEngine()
        order = []
        engine.restore_map(order.append, [3, 1, 2])
        assert order == [3, 1, 2]

    def test_first_error_propagates(self):
        engine = ThreadedEngine(workers=4)

        def work(item):
            if item == 7:
                raise RuntimeError("injected fan-out failure")
            return item

        with pytest.raises(RuntimeError, match="injected fan-out failure"):
            engine.restore_map(work, list(range(20)))

    def test_empty_items(self):
        assert ThreadedEngine(workers=4).restore_map(lambda i: i, []) == []


class TestLifecycle:
    def test_close_is_idempotent_and_context_managed(self):
        with Database(small_config(), engine=ThreadedEngine(workers=2)) as db:
            db.pump()
        db.close()
        db.close()


class TestRecoveryCpuLock:
    """The recovery processor does one duty at a time, whichever thread
    asks: pool workers stalled on SLB back-pressure drain the log
    themselves, serialised by the engine's recovery-CPU lock."""

    ACCOUNTS = 16

    def run_deposits(self, engine):
        config = SystemConfig(
            slb_capacity=WELL_KNOWN_RESERVE + 8 * 1024,
            log_block_size=512,
            log_page_size=1024,
        )
        db = Database(config, engine=engine)
        accounts = db.create_relation(
            "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
        )
        for i in range(self.ACCOUNTS):
            with db.transaction() as txn:
                accounts.insert(txn, {"id": i, "balance": 0})
        processor = db.recovery_processor
        real_drain = processor.run_until_drained
        state_lock = threading.Lock()
        state = {"active": 0, "overlaps": 0, "threads": set()}

        def observed_drain():
            with state_lock:
                state["active"] += 1
                if state["active"] > 1:
                    state["overlaps"] += 1
                state["threads"].add(threading.current_thread().name)
            try:
                # Widen the window a concurrent drain would have to hit.
                time.sleep(0.001)
                return real_drain()
            finally:
                with state_lock:
                    state["active"] -= 1

        processor.run_until_drained = observed_drain

        def deposits(target):
            def script(txn):
                for amount in (1, 2, 3, 4):
                    row = db.table("accounts").lookup(txn, target)
                    yield
                    accounts.update(txn, row.address, {"balance": row["balance"] + amount})
                    yield

            return script

        scheduler = ConcurrentScheduler(db, workers=4)
        for i in range(96):
            scheduler.submit(deposits(i % self.ACCOUNTS), name=f"d{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        processor.run_until_drained = real_drain
        digest = logical_digest(db)
        db.close()
        return digest, state

    def test_back_pressure_drains_never_overlap(self):
        threaded_digest, state = self.run_deposits(ThreadedEngine(workers=4))
        assert any(name.startswith("repro-txn-worker") for name in state["threads"])
        assert state["overlaps"] == 0
        sim_digest, _ = self.run_deposits(SimEngine())
        assert threaded_digest == sim_digest

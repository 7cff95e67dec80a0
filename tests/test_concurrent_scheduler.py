"""Concurrent user-transaction execution: the worker-pool scheduler.

Covers the determinism contract (workers=1 / SimEngine degenerates to the
cooperative round-robin), no-wait retry semantics across threads, the
conflict-storm livelock-avoidance property, chaos crash points firing
mid-script on a worker thread, and the observability surface.
"""

import threading

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.engine import SimEngine, ThreadedEngine
from repro.sim.chaos import ChaosMonkey, chaos
from repro.sim.faults import SimulatedCrash
from repro.txn.concurrent import ConcurrentScheduler
from repro.txn.scheduler import InterleavedScheduler


def build_bank(engine=None, accounts_count=8, balance=100):
    db = Database(SystemConfig(log_page_size=2048), engine=engine)
    accounts = db.create_relation(
        "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
    )
    with db.transaction() as txn:
        for i in range(accounts_count):
            accounts.insert(txn, {"id": i, "balance": balance})
    return db, accounts


def transfer(db, accounts, src, dst, amount):
    def script(txn):
        row = db.table("accounts").lookup(txn, src)
        yield
        accounts.update(txn, row.address, {"balance": row["balance"] - amount})
        yield
        row2 = db.table("accounts").lookup(txn, dst)
        yield
        accounts.update(txn, row2.address, {"balance": row2["balance"] + amount})

    return script


def deposit(db, accounts, target, amount):
    def script(txn):
        row = db.table("accounts").lookup(txn, target)
        yield
        accounts.update(txn, row.address, {"balance": row["balance"] + amount})

    return script


def balances(db, accounts):
    with db.transaction() as txn:
        return {r["id"]: r["balance"] for r in accounts.scan(txn)}


class TestDeterminismContract:
    def test_sim_engine_degenerates_to_round_robin(self):
        """On SimEngine the concurrent scheduler IS the interleaved one:
        identical results, attempts, txn ids, and final state."""
        runs = []
        for scheduler_cls in (InterleavedScheduler, ConcurrentScheduler):
            db, accounts = build_bank(engine=SimEngine())
            scheduler = scheduler_cls(db)
            for i in range(6):
                scheduler.submit(
                    transfer(db, accounts, i % 3, 3 + (i % 3), 7), name=f"t{i}"
                )
            results = scheduler.run()
            runs.append(
                (
                    [(r.name, r.committed, r.attempts, r.txn_ids) for r in results],
                    balances(db, accounts),
                    db.stats()["transactions_committed"],
                )
            )
            db.close()
        assert runs[0] == runs[1]

    def test_workers_1_threaded_matches_interleaved(self):
        reference_db, reference_accounts = build_bank(engine=SimEngine())
        reference = InterleavedScheduler(reference_db)
        db, accounts = build_bank(engine=ThreadedEngine(workers=4))
        scheduler = ConcurrentScheduler(db, workers=1)
        assert scheduler.effective_workers == 1
        for i in range(6):
            reference.submit(
                transfer(reference_db, reference_accounts, i % 4, 4 + i % 4, 5),
                name=f"t{i}",
            )
            scheduler.submit(transfer(db, accounts, i % 4, 4 + i % 4, 5), name=f"t{i}")
        expected = reference.run()
        got = scheduler.run()
        assert [(r.name, r.committed, r.attempts) for r in got] == [
            (r.name, r.committed, r.attempts) for r in expected
        ]
        assert balances(db, accounts) == balances(reference_db, reference_accounts)
        db.close()
        reference_db.close()

    def test_sim_engine_ignores_large_worker_request(self):
        db, _ = build_bank(engine=SimEngine())
        scheduler = ConcurrentScheduler(db, workers=8)
        assert scheduler.effective_workers == 1
        db.close()


class TestConcurrentExecution:
    def test_disjoint_scripts_commit_in_parallel(self):
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=16)
        scheduler = ConcurrentScheduler(db, workers=4)
        for i in range(24):
            scheduler.submit(
                transfer(db, accounts, i % 8, 8 + (i % 8), 1), name=f"t{i}"
            )
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert [r.name for r in results] == [f"t{i}" for i in range(24)]
        assert sum(balances(db, accounts).values()) == 16 * 100
        db.close()

    def test_conflict_storm_avoids_livelock(self):
        """Every script hammers the same account from four workers; the
        no-wait policy plus staggered backoff must still commit all of
        them (livelock avoidance) and conserve money."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=4)
        # give each metered instruction real duration so workers genuinely
        # overlap inside transactions and conflicts actually occur
        db.main_cpu.realtime_scale = 50.0
        scheduler = ConcurrentScheduler(db, max_attempts=500, workers=4)
        for i in range(24):
            scheduler.submit(transfer(db, accounts, 0, 1 + i % 3, 1), name=f"s{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert scheduler.conflicts > 0
        assert scheduler.max_attempts_seen > 1
        assert sum(balances(db, accounts).values()) == 4 * 100
        db.close()

    def test_retry_uses_fresh_transaction_per_attempt(self):
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=4)
        db.main_cpu.realtime_scale = 50.0
        scheduler = ConcurrentScheduler(db, max_attempts=500, workers=4)
        for i in range(16):
            scheduler.submit(transfer(db, accounts, 0, 1, 1), name=f"s{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        retried = [r for r in results if r.attempts > 1]
        assert retried, "storm produced no retries"
        for result in results:
            # replayable-script semantics: every attempt began a brand-new
            # transaction, and none of them is reused across attempts
            assert len(result.txn_ids) == result.attempts
            assert len(set(result.txn_ids)) == result.attempts
        db.close()

    def test_worker_count_caps_at_pool_size(self):
        db, accounts = build_bank(engine=ThreadedEngine(workers=2))
        scheduler = ConcurrentScheduler(db, workers=2)
        for i in range(8):
            scheduler.submit(transfer(db, accounts, i % 4, 4 + i % 4, 2), name=f"t{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert len(scheduler.stats()["per_worker"]) == 2
        db.close()


class TestChaosInterleaving:
    def test_crash_point_mid_script_propagates_and_recovers(self):
        """A chaos crash point armed on the commit path fires on a worker
        thread mid-run; the crash propagates to the caller, and restart
        recovers exactly the durably committed deposits."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=4)
        db.main_cpu.realtime_scale = 20.0
        durable = []
        durable_mutex = threading.Lock()

        def observer(txn):
            with durable_mutex:
                durable.append(txn.txn_id)

        db.commit_observer = observer
        scheduler = ConcurrentScheduler(db, max_attempts=500, workers=4)
        for i in range(12):
            scheduler.submit(deposit(db, accounts, i % 4, 10), name=f"d{i}")
        monkey = ChaosMonkey()
        monkey.arm("txn.commit.before-slb", skip=5)
        with chaos(monkey):
            with pytest.raises(SimulatedCrash):
                scheduler.run()
        assert monkey.fired_at == "txn.commit.before-slb"
        db.commit_observer = None
        db.crash()
        db.restart(RecoveryMode.EAGER)
        # The crash fired *before* slb.commit, so the crashing transaction
        # is not durable; the observer fires right after slb.commit, so it
        # saw exactly the durable deposits — no more, no fewer.
        assert sum(balances(db, accounts).values()) == 4 * 100 + 10 * len(durable)
        db.close()

    def test_stopped_peers_roll_back_cleanly(self):
        """When one worker crashes the pool, peers abort their in-flight
        transactions; no lock or active transaction leaks."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=8)
        db.main_cpu.realtime_scale = 20.0
        scheduler = ConcurrentScheduler(db, max_attempts=500, workers=4)
        for i in range(12):
            scheduler.submit(transfer(db, accounts, i % 8, (i + 1) % 8, 1), name=f"t{i}")
        monkey = ChaosMonkey()
        monkey.arm("txn.commit.before-slb", skip=3)
        with chaos(monkey):
            with pytest.raises(SimulatedCrash):
                scheduler.run()
        # the machine "died": surviving state is only inspected post-restart
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.transactions.active_count == 0
        assert sum(balances(db, accounts).values()) == 8 * 100
        db.close()


class TestObservability:
    def test_stats_surface_in_database_and_monitor(self):
        from repro.db.monitor import Monitor

        db, accounts = build_bank(engine=ThreadedEngine(workers=4))
        scheduler = ConcurrentScheduler(db, workers=4)
        for i in range(12):
            scheduler.submit(transfer(db, accounts, i % 4, 4 + i % 4, 3), name=f"t{i}")
        scheduler.run()
        stats = db.stats()["scheduler"]
        assert stats is not None
        assert stats["committed"] == 12
        assert stats["failed"] == 0
        assert stats["workers"] == 4
        assert stats["runs"] == 1
        assert stats["retries"] == stats["conflicts"] - stats["failed"]
        assert len(stats["per_worker"]) == 4
        assert all(0.0 <= w["utilisation"] <= 1.0 for w in stats["per_worker"])
        assert sum(w["scripts"] for w in stats["per_worker"]) >= 12
        snap = Monitor(db).snapshot()["scheduler"]
        assert snap["committed"] == 12
        db.close()

    def test_snapshot_reports_none_without_scheduler(self):
        from repro.db.monitor import Monitor

        db = Database()
        assert Monitor(db).snapshot()["scheduler"] is None
        assert db.stats()["scheduler"] is None
        db.close()

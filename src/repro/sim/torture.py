"""The torture harness: seeded randomized chaos rounds.

The chaos *sweep* proves exact recovery for every crash point under the
cooperative schedule.  This module attacks the claim the sweep cannot
reach: real thread interleavings.  Each **round** runs a concurrent
debit/credit workload — on :class:`~repro.engine.threaded.ThreadedEngine`
worker threads genuinely interleave — under a randomly generated
:class:`~repro.sim.chaos.ChaosPlan` (crash rules, latency jitter through
the ``realtime_scale`` bridges, transient I/O faults into the duplex
retry loops), then crashes, restarts, and checks the recovered state.

Everything random in a round derives from one integer seed: the plan,
the workload skew, the latency scales.  A failing round raises
:class:`TortureFailure` carrying the exact command line that replays it.

Verification is layered to stay honest about thread nondeterminism:

* **Exact digest** — a sequential tail of transactions runs under a
  :class:`~repro.recovery.oracle.RecoveryVerifier`; after crash +
  restart the recovered digest must be byte-identical to the digest at
  the last durable commit.  (Digest-at-commit is only well defined while
  a single thread mutates, hence the single-threaded tail.)
* **Bank invariants** — after any recovery, committed debit/credit
  transactions must be atomic across all four relations: with ``C``
  history rows, accounts total ``1000·N + 10·C`` and tellers and
  branches each total ``10·C``.  This catches a torn transaction even
  when the crash landed mid-pool where no digest can be recorded.
* **Recovery stability** — recovering, crashing again with no new work,
  and recovering again must reproduce the identical digest (recovery is
  a fixed point).
* **Fault accounting** — every injected transient fault must be counted
  by the retry layer, and plans keep per-rule fires within the retry
  budget, so a round with faults must see zero ``MediaFailure``
  escalations.

Run from the command line::

    python -m repro.sim.torture --seed 7 --rounds 3 --engine threaded \
        --workers 4 --kinds crash latency fault --log rounds.jsonl
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError, ReproError
from repro.db.database import Database, RecoveryMode
from repro.engine import SimEngine, ThreadedEngine
from repro.recovery.oracle import RecoveryVerifier, logical_digest
from repro.sim.chaos import (
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    chaos,
    install_latency,
    registered_crash_points,
    registered_fault_points,
    remove_latency,
)
from repro.sim.clock import host_now
from repro.sim.faults import SimulatedCrash
from repro.txn.concurrent import ConcurrentScheduler
from repro.workloads.debit_credit import DebitCreditWorkload

#: The three round kinds (what the generated plan emphasises).
KINDS = ("crash", "latency", "fault")

#: Crash-during-restart retries; plan crash rules latch after max_fires,
#: so convergence is guaranteed — the bound is defensive.
MAX_RESTART_ATTEMPTS = 6

#: Concurrent scripts per round / sequential tail transactions.
POOL_SCRIPTS = 16
TAIL_TRANSACTIONS = 10

#: Sized like the chaos sweep's scenario: small pages and a tight window
#: so a short workload still crosses checkpoints and window slides.
ROUND_CONFIG = dict(
    log_page_size=512,
    update_count_threshold=16,
    log_window_pages=64,
    log_window_grace_pages=8,
)


class TortureFailure(ReproError):
    """A round's recovered state failed verification (or a round died on
    an unexpected error).  The message carries the reproducing command."""


@dataclass(frozen=True)
class RoundSpec:
    """Everything that determines one round."""

    seed: int
    kind: str
    engine: str = "threaded"
    workers: int = 4
    #: ``shards > 1`` runs the round against a ShardedDatabase cluster
    #: (whole-cluster crash, per-shard bank invariants) instead of a
    #: single node.
    shards: int = 1
    #: Run the round with background condensing enabled, so the condense
    #: crash points and the shadow-image restart path sit in the blast
    #: radius (docs/CONDENSING.md).
    condense: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown round kind {self.kind!r}; expected {KINDS}")
        if self.engine not in ("sim", "threaded"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")

    def repro_command(self) -> str:
        command = (
            f"PYTHONPATH=src python -m repro.sim.torture --seed {self.seed} "
            f"--rounds 1 --kinds {self.kind} --engine {self.engine} "
            f"--workers {self.workers}"
        )
        if self.shards > 1:
            command += f" --shards {self.shards}"
        if self.condense:
            command += " --condense"
        return command


@dataclass
class RoundResult:
    """Outcome of one verified round."""

    seed: int
    kind: str
    engine: str
    workers: int
    #: Committed transactions that survived recovery (debit/credits on a
    #: single node, scheduler-routed transfers on a sharded round).
    committed: int
    crashes_fired: int
    faults_fired: int
    latency_fired: int
    restart_attempts: int
    #: Which checks ran: "digest" (exact tail digest) or "invariants"
    #: (the crash landed mid-pool, before a digest could be recorded).
    verified_by: str
    digest: str
    host_seconds: float
    shards: int = 1
    condense: bool = False

    def to_json(self) -> dict:
        return dict(self.__dict__)


def build_plan(spec: RoundSpec, rng: random.Random) -> ChaosPlan:
    """Generate the round's injection plan from its seed.

    Pure function of ``(spec, rng state)``: the same seed always yields
    the same plan, which is what makes a failed round replayable.
    """
    crash_points = sorted(registered_crash_points())
    fault_points = sorted(registered_fault_points())
    rules: list[ChaosRule] = []
    if spec.kind == "crash":
        prefix = None
        if spec.engine == "threaded":
            prefix = rng.choice([None, None, "repro-txn-worker", "repro-restore"])
        rules.append(
            ChaosRule(
                point=rng.choice(crash_points),
                action="crash",
                after_visits=rng.randint(0, 12),
                thread_prefix=prefix,
            )
        )
    if spec.kind == "fault":
        for point in rng.sample(fault_points, k=rng.randint(1, 2)):
            # max_fires stays within the default retry budget so every
            # burst is absorbed; the escalation boundary has its own
            # dedicated tests (tests/test_transient_io.py).
            rules.append(
                ChaosRule(
                    point=point,
                    action="fault",
                    probability=rng.uniform(0.4, 1.0),
                    after_visits=rng.randint(0, 4),
                    max_fires=rng.randint(1, 4),
                )
            )
    # Every kind gets background latency so worker threads reorder; the
    # "latency" kind simply makes it the whole story.
    latency_rules = 3 if spec.kind == "latency" else 1
    for point in rng.sample(crash_points + fault_points, k=latency_rules):
        rules.append(
            ChaosRule(
                point=point,
                action="latency",
                probability=rng.uniform(0.2, 0.6),
                max_fires=None,
                latency_range=(0.00005, 0.0008),
            )
        )
    return ChaosPlan(spec.seed, tuple(rules))


def _debit_credit_script(workload: DebitCreditWorkload, hid: int, aid: int):
    """A replayable concurrent script mirroring ``run_transaction``."""
    tid = aid % workload.tellers
    bid = aid % workload.branches

    def script(txn):
        account = workload.account_rel.read(txn, workload._account_addr[aid])
        yield
        workload.account_rel.update(
            txn, workload._account_addr[aid], {"balance": account["balance"] + 10}
        )
        yield
        teller = workload.teller_rel.read(txn, workload._teller_addr[tid])
        workload.teller_rel.update(
            txn, workload._teller_addr[tid], {"balance": teller["balance"] + 10}
        )
        yield
        branch = workload.branch_rel.read(txn, workload._branch_addr[bid])
        workload.branch_rel.update(
            txn, workload._branch_addr[bid], {"balance": branch["balance"] + 10}
        )
        yield
        workload.history_rel.insert(txn, {"hid": hid, "aid": aid, "delta": 10})

    return script


class TortureHarness:
    """Runs and verifies seeded chaos rounds."""

    def run_round(self, spec: RoundSpec) -> RoundResult:
        started = host_now()
        try:
            if spec.shards > 1:
                result = self._run_sharded_round_inner(spec)
            else:
                result = self._run_round_inner(spec)
        except TortureFailure as exc:
            raise TortureFailure(
                f"{exc}; reproduce with: {spec.repro_command()}"
            ) from exc
        except BaseException as exc:
            raise TortureFailure(
                f"torture round seed={spec.seed} kind={spec.kind} "
                f"engine={spec.engine} workers={spec.workers} failed: {exc!r}; "
                f"reproduce with: {spec.repro_command()}"
            ) from exc
        result.host_seconds = host_now() - started
        return result

    def _run_round_inner(self, spec: RoundSpec) -> RoundResult:
        rng = random.Random(spec.seed)
        engine = (
            SimEngine() if spec.engine == "sim" else ThreadedEngine(spec.workers)
        )
        db = Database(
            SystemConfig(**ROUND_CONFIG, condense_enabled=spec.condense),
            engine=engine,
        )
        try:
            workload = DebitCreditWorkload(
                db,
                branches=2,
                tellers_per_branch=2,
                accounts_per_branch=25,
                seed=spec.seed,
            )
            workload.load()
            plan = build_plan(spec, rng)
            injector = ChaosEngine(plan)
            install_latency(
                db,
                injector,
                disk_scale=rng.uniform(0.002, 0.01),
                cpu_scale=rng.uniform(1.0, 8.0),
                jitter=(0.0, 0.0005),
            )
            recovery_mode = rng.choice([RecoveryMode.EAGER, RecoveryMode.ON_DEMAND])

            crashed_mid_pool = False
            verifier: RecoveryVerifier | None = None
            with chaos(injector):
                # Phase 1 — concurrent stress under the plan.
                try:
                    self._run_pool(db, workload, rng, spec)
                except SimulatedCrash:
                    crashed_mid_pool = True
                if not crashed_mid_pool:
                    # Phase 2 — settle the pool, then an exactly-verifiable
                    # sequential tail (single mutator, digest per commit).
                    db.pump()
                    verifier = RecoveryVerifier(db)
                    try:
                        for _ in range(TAIL_TRANSACTIONS):
                            workload.run_transaction()
                    except SimulatedCrash:
                        pass
                # Phase 3 — die and come back (restart-path rules may
                # crash recovery itself; the latch bounds the retries).
                if not db.crashed:
                    db.crash()
                restart_attempts = self._restart_until_recovered(
                    db, recovery_mode
                )
            if verifier is not None:
                verifier.detach()
                verifier.verify()
            digest = self._check_invariants(db, workload)
            self._check_recovery_stability(db, recovery_mode, digest)
            self._check_fault_accounting(db, injector)
            commits = self._count_history(db)
        finally:
            remove_latency(db)
            db.close()
        return RoundResult(
            seed=spec.seed,
            kind=spec.kind,
            engine=spec.engine,
            workers=spec.workers,
            committed=commits,
            crashes_fired=injector.crashes_fired,
            faults_fired=injector.faults_fired,
            latency_fired=injector.latency_fired,
            restart_attempts=restart_attempts,
            verified_by="invariants" if verifier is None else "digest",
            digest=digest,
            host_seconds=0.0,
            condense=spec.condense,
        )

    def _run_sharded_round_inner(self, spec: RoundSpec) -> RoundResult:
        """A round against a sharded cluster: routed workload under the
        plan, whole-cluster crash, per-shard restart, per-shard bank
        conservation plus digest stability on every node."""
        from repro.shard import ShardedDatabase, ShardedScheduler
        from repro.workloads.sharded_bank import ShardedBankWorkload

        rng = random.Random(spec.seed)
        cluster = ShardedDatabase(
            shards=spec.shards,
            config=SystemConfig(**ROUND_CONFIG, condense_enabled=spec.condense),
            engine=spec.engine,
            workers=spec.workers,
        )
        try:
            bank = ShardedBankWorkload(
                cluster,
                accounts_per_shard=16,
                cross_ratio=0.25,
                seed=spec.seed,
            )
            bank.load()
            plan = build_plan(spec, rng)
            injector = ChaosEngine(plan)
            disk_scale = rng.uniform(0.002, 0.01)
            cpu_scale = rng.uniform(1.0, 8.0)
            for node in cluster.nodes:
                install_latency(
                    node.db,
                    injector,
                    disk_scale=disk_scale,
                    cpu_scale=cpu_scale,
                    jitter=(0.0, 0.0005),
                )
            recovery_mode = rng.choice([RecoveryMode.EAGER, RecoveryMode.ON_DEMAND])
            with chaos(injector):
                scheduler = ShardedScheduler(
                    cluster, max_attempts=500, workers=spec.workers
                )
                bank.submit(scheduler, POOL_SCRIPTS)
                try:
                    scheduler.run()
                except SimulatedCrash:
                    pass
                # Whole-cluster power failure, then bring every node back
                # (in-doubt branches resolve against the stable decision
                # tables during each node's restart).
                cluster.crash()
                restart_attempts = self._restart_cluster_until_recovered(
                    cluster, recovery_mode
                )
            try:
                bank.check_invariants()
            except AssertionError as exc:
                raise TortureFailure(str(exc)) from exc
            if cluster.twopc.pending_gtids():
                raise TortureFailure(
                    f"recovery left distributed txns in flight: "
                    f"{cluster.twopc.pending_gtids()}"
                )
            digests = cluster.digests()
            self._check_sharded_stability(cluster, recovery_mode, digests)
            self._check_sharded_fault_accounting(cluster, injector)
            # The stable SLB commit counters survive the crash (the
            # manager's in-memory tallies do not).
            committed = sum(node.db.slb.commits for node in cluster.nodes)
        finally:
            for node in cluster.nodes:
                remove_latency(node.db)
            cluster.close()
        digest = "|".join(f"{sid}:{d[:16]}" for sid, d in sorted(digests.items()))
        return RoundResult(
            seed=spec.seed,
            kind=spec.kind,
            engine=spec.engine,
            workers=spec.workers,
            committed=committed,
            crashes_fired=injector.crashes_fired,
            faults_fired=injector.faults_fired,
            latency_fired=injector.latency_fired,
            restart_attempts=restart_attempts,
            verified_by="invariants",
            digest=digest,
            host_seconds=0.0,
            shards=spec.shards,
            condense=spec.condense,
        )

    # -- phases ---------------------------------------------------------------

    def _run_pool(
        self,
        db: Database,
        workload: DebitCreditWorkload,
        rng: random.Random,
        spec: RoundSpec,
    ) -> None:
        scheduler = ConcurrentScheduler(
            db, max_attempts=500, workers=spec.workers
        )
        base_hid = workload._history_id
        for i in range(POOL_SCRIPTS):
            aid = rng.randrange(workload.accounts)
            scheduler.submit(
                _debit_credit_script(workload, base_hid + 1 + i, aid),
                name=f"torture-{i}",
            )
        # Tail transactions must mint fresh history ids whether or not
        # every pool script committed.
        workload._history_id = base_hid + POOL_SCRIPTS
        scheduler.run()

    def _restart_until_recovered(
        self, db: Database, mode: RecoveryMode
    ) -> int:
        for attempt in range(1, MAX_RESTART_ATTEMPTS + 1):
            try:
                if db.crashed:
                    db.restart(mode)
                if db.restart_coordinator is not None:
                    db.restart_coordinator.recover_everything()
                return attempt
            except SimulatedCrash:
                db.crash()
        raise RecoveryError(
            f"restart did not converge in {MAX_RESTART_ATTEMPTS} attempts"
        )

    def _restart_cluster_until_recovered(self, cluster, mode: RecoveryMode) -> int:
        for attempt in range(1, MAX_RESTART_ATTEMPTS + 1):
            try:
                for node in cluster.nodes:
                    if node.crashed:
                        node.restart(mode)
                    node.recover_everything()
                return attempt
            except SimulatedCrash:
                # Re-crash the whole cluster: recovery is idempotent, and
                # the latch on crash rules bounds the retries.
                for node in cluster.nodes:
                    if not node.crashed:
                        node.crash()
        raise RecoveryError(
            f"cluster restart did not converge in {MAX_RESTART_ATTEMPTS} attempts"
        )

    # -- checks ---------------------------------------------------------------

    def _count_history(self, db: Database) -> int:
        history = db.table("history")
        with db.transaction() as txn:
            return sum(1 for _ in history.scan(txn))

    def _check_invariants(
        self, db: Database, workload: DebitCreditWorkload
    ) -> str:
        """Atomicity across the four relations, from recovered state alone."""

        def total(name: str) -> int:
            with db.transaction() as txn:
                return sum(row["balance"] for row in db.table(name).scan(txn))

        with db.transaction() as txn:
            hids = [row["hid"] for row in db.table("history").scan(txn)]
        if len(hids) != len(set(hids)):
            raise TortureFailure("recovered history holds duplicate ids")
        commits = len(hids)
        expected_accounts = 1000 * workload.accounts + 10 * commits
        checks = [
            ("account", total("account"), expected_accounts),
            ("teller", total("teller"), 10 * commits),
            ("branch", total("branch"), 10 * commits),
        ]
        for name, actual, expected in checks:
            if actual != expected:
                raise TortureFailure(
                    f"recovered {name} total {actual} != expected {expected} "
                    f"({commits} committed debit/credits survived)"
                )
        return logical_digest(db)

    def _check_recovery_stability(
        self, db: Database, mode: RecoveryMode, digest: str
    ) -> None:
        """Recovery must be a fixed point: crash again with no new work,
        recover, and land on the byte-identical digest."""
        db.crash()
        self._restart_until_recovered(db, mode)
        again = logical_digest(db)
        if again != digest:
            raise TortureFailure(
                f"recovery is not stable: second recovery digest "
                f"{again[:16]}… != first {digest[:16]}…"
            )

    def _check_sharded_stability(
        self, cluster, mode: RecoveryMode, digests: dict[int, str]
    ) -> None:
        """Every node's recovery must be a fixed point, cluster-wide."""
        cluster.crash()
        self._restart_cluster_until_recovered(cluster, mode)
        again = cluster.digests()
        if again != digests:
            changed = sorted(
                sid for sid in digests if again.get(sid) != digests[sid]
            )
            raise TortureFailure(
                f"sharded recovery is not stable: shards {changed} produced "
                f"different digests on the second recovery"
            )

    def _check_sharded_fault_accounting(self, cluster, injector: ChaosEngine) -> None:
        counted = sum(
            node.db.log_disk.io_stats.faults
            + node.db.checkpoint_disk.io_stats.faults
            for node in cluster.nodes
        )
        if counted != injector.faults_fired:
            raise TortureFailure(
                f"retry layers counted {counted} transient faults but the "
                f"plan injected {injector.faults_fired}"
            )
        escalations = sum(
            node.db.log_disk.io_stats.escalations
            + node.db.checkpoint_disk.io_stats.escalations
            for node in cluster.nodes
        )
        if escalations:
            raise TortureFailure(
                f"{escalations} transient faults escalated to MediaFailure "
                f"despite per-rule fires within the retry budget"
            )

    def _check_fault_accounting(
        self, db: Database, injector: ChaosEngine
    ) -> None:
        counted = db.log_disk.io_stats.faults + db.checkpoint_disk.io_stats.faults
        injected = injector.faults_fired
        if counted != injected:
            raise TortureFailure(
                f"retry layer counted {counted} transient faults but the "
                f"plan injected {injected}"
            )
        escalations = (
            db.log_disk.io_stats.escalations
            + db.checkpoint_disk.io_stats.escalations
        )
        if escalations:
            raise TortureFailure(
                f"{escalations} transient faults escalated to MediaFailure "
                f"despite per-rule fires within the retry budget"
            )

    # -- batches --------------------------------------------------------------

    def run_rounds(
        self,
        seeds: list[int],
        kinds: tuple[str, ...] = KINDS,
        engine: str = "threaded",
        workers: int = 4,
        shards: int = 1,
        condense: bool = False,
        on_result=None,
    ) -> list[RoundResult]:
        """Run every (seed, kind) combination; the first failure raises
        with its reproducing seed, so a returned list means all passed."""
        results = []
        for seed in seeds:
            for kind in kinds:
                result = self.run_round(
                    RoundSpec(seed, kind, engine, workers, shards, condense)
                )
                if on_result is not None:
                    on_result(result)
                results.append(result)
        return results


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Seeded chaos torture rounds against the recovery system."
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--rounds", type=int, default=3, help="seeds per kind")
    parser.add_argument(
        "--kinds", nargs="+", choices=KINDS, default=list(KINDS)
    )
    parser.add_argument("--engine", choices=("sim", "threaded"), default="threaded")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run each round against a cluster of this many shard nodes",
    )
    parser.add_argument(
        "--condense",
        action="store_true",
        help="enable background condensing for every round, putting the "
        "condense crash points and the shadow-image restart path in play "
        "(docs/CONDENSING.md)",
    )
    parser.add_argument(
        "--log", default=None, help="append one JSON line per round here"
    )
    args = parser.parse_args(argv)

    log_file = open(args.log, "a", encoding="utf-8") if args.log else None
    harness = TortureHarness()

    def report(result: RoundResult) -> None:
        line = result.to_json()
        if log_file is not None:
            log_file.write(json.dumps(line) + "\n")
            log_file.flush()
        topology = "" if result.shards == 1 else f" shards={result.shards}"
        if result.condense:
            topology += " condense"
        print(
            f"round seed={result.seed} kind={result.kind} "
            f"engine={result.engine}{topology} ok: {result.committed} commits, "
            f"{result.crashes_fired} crashes / {result.faults_fired} faults "
            f"/ {result.latency_fired} latency fires, "
            f"verified by {result.verified_by}"
        )

    try:
        harness.run_rounds(
            seeds=[args.seed + i for i in range(args.rounds)],
            kinds=tuple(args.kinds),
            engine=args.engine,
            workers=args.workers,
            shards=args.shards,
            condense=args.condense,
            on_result=report,
        )
    except TortureFailure as failure:
        if log_file is not None:
            log_file.write(json.dumps({"failure": str(failure)}) + "\n")
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        if log_file is not None:
            log_file.close()
    print(f"all {args.rounds * len(args.kinds)} rounds passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())

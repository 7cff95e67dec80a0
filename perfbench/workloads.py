"""The benchmark's four workloads.

Each workload builds its schema and rows through the public ``repro``
API, runs one transaction per :meth:`txn` call, and keeps a client-side
model of what it committed so the harness can check the database
against it.  All inputs come from the seed handed to the constructor.
Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import bisect
import random

from repro import AnalysisParameters, DiskParameters, SystemConfig
from repro.common.units import KILOBYTE, MEGABYTE

#: Rows inserted per loading transaction.  One transaction per relation
#: overflows the 2 MB Stable Log Buffer (``StableMemoryFullError`` at
#: 4 x 1,000 accounts), so loads go in bounded batches.
LOAD_BATCH = 500


def system_config(**overrides) -> SystemConfig:
    """Every ``SystemConfig`` field, passed explicitly, so environment
    defaults (``REPRO_LOGGING_MODE``, ``REPRO_CONDENSE``) cannot leak in."""
    fields = dict(
        partition_size=48 * KILOBYTE,
        log_page_size=8 * KILOBYTE,
        log_record_size=24,
        update_count_threshold=1000,
        log_directory_size=8,
        log_block_size=1 * KILOBYTE,
        slb_capacity=2 * MEGABYTE,
        slt_capacity=8 * MEGABYTE,
        log_window_pages=4096,
        log_window_grace_pages=64,
        checkpoint_slots=4096,
        log_page_cache_pages=128,
        io_retry_budget=4,
        logging_mode="value",
        adaptive_log_threshold=256,
        condense_enabled=False,
        condense_pages_per_slice=4,
        condense_lag_target_pages=0,
        log_disk=DiskParameters(),
        checkpoint_disk=DiskParameters(),
        analysis=AnalysisParameters(),
    )
    fields.update(overrides)
    return SystemConfig(**fields)


class Bank:
    """Gray's debit/credit: update one account, its teller and its
    branch, append a history row.  Picks are uniform.

    With ``command=True`` the transaction is one registered script run
    under command logging; otherwise it is a plain value-logged
    ``db.transaction()`` block over stored entity addresses.
    """

    INITIAL_BALANCE = 1000

    def __init__(self, db, seed: int, *, branches: int, tellers: int, accounts: int,
                 command: bool = False):
        self.db = db
        self.rng = random.Random(seed)
        self.branches = branches
        self.tellers = tellers
        self.accounts = accounts
        self.command = command
        self.delta_sum = 0
        self.history_rows = 0
        self._addr: dict[str, list] = {}

    def load(self) -> None:
        db = self.db
        self.branch = db.create_relation(
            "branch", [("bid", "int"), ("balance", "int")], primary_key="bid"
        )
        self.teller = db.create_relation(
            "teller", [("tid", "int"), ("bid", "int"), ("balance", "int")],
            primary_key="tid",
        )
        self.account = db.create_relation(
            "account", [("aid", "int"), ("bid", "int"), ("balance", "int")],
            primary_key="aid",
        )
        self.history = db.create_relation(
            "history", [("hid", "int"), ("aid", "int"), ("delta", "int")],
            primary_key="hid",
        )
        with db.transaction() as txn:
            self._addr["branch"] = [
                self.branch.insert(txn, {"bid": bid, "balance": 0})
                for bid in range(self.branches)
            ]
            self._addr["teller"] = [
                self.teller.insert(
                    txn, {"tid": tid, "bid": tid % self.branches, "balance": 0}
                )
                for tid in range(self.tellers)
            ]
        accounts: list = []
        for start in range(0, self.accounts, LOAD_BATCH):
            with db.transaction() as txn:
                for aid in range(start, min(self.accounts, start + LOAD_BATCH)):
                    accounts.append(
                        self.account.insert(
                            txn,
                            {
                                "aid": aid,
                                "bid": aid % self.branches,
                                "balance": self.INITIAL_BALANCE,
                            },
                        )
                    )
        self._addr["account"] = accounts
        if self.command:
            db.register_script(
                "debit_credit",
                self._script,
                relations=["account", "teller", "branch", "history"],
            )

    def _script(self, txn, aid, tid, bid, delta, hid):
        for relation, key in ((self.account, aid), (self.teller, tid), (self.branch, bid)):
            row = relation.lookup(txn, key)
            relation.update(txn, row.address, {"balance": row["balance"] + delta})
        self.history.insert(txn, {"hid": hid, "aid": aid, "delta": delta})

    def txn(self):
        rng = self.rng
        aid = rng.randrange(self.accounts)
        tid = aid % self.tellers
        bid = aid % self.branches
        delta = rng.randint(-99, 99)
        hid = self.history_rows + 1
        if self.command:
            self.db.run_script("debit_credit", aid, tid, bid, delta, hid)
        else:
            with self.db.transaction() as txn:
                for relation, address in (
                    (self.account, self._addr["account"][aid]),
                    (self.teller, self._addr["teller"][tid]),
                    (self.branch, self._addr["branch"][bid]),
                ):
                    row = relation.read(txn, address)
                    relation.update(txn, address, {"balance": row["balance"] + delta})
                self.history.insert(txn, {"hid": hid, "aid": aid, "delta": delta})
        self.history_rows = hid
        self.delta_sum += delta

    def check_result(self, result) -> str | None:
        return None

    def check_state(self) -> list[str]:
        """Money conservation: every committed delta landed exactly once
        on an account, a teller and a branch, with one history row."""
        problems = []
        with self.db.transaction() as txn:
            totals = {
                "account": sum(row["balance"] for row in self.account.scan(txn)),
                "teller": sum(row["balance"] for row in self.teller.scan(txn)),
                "branch": sum(row["balance"] for row in self.branch.scan(txn)),
            }
            history = self.history.count(txn)
        expected = {
            "account": self.accounts * self.INITIAL_BALANCE + self.delta_sum,
            "teller": self.delta_sum,
            "branch": self.delta_sum,
        }
        for name, total in totals.items():
            if total != expected[name]:
                problems.append(f"{name} balances total {total}, expected {expected[name]}")
        if history != self.history_rows:
            problems.append(f"history has {history} rows, expected {self.history_rows}")
        return problems

    def before_crash(self) -> None:
        """Command logging: settle every live command so the crash that
        follows a fixed number of transactions replays exactly that many."""
        if self.command:
            for name in ("account", "teller", "branch", "history"):
                self.db.checkpoints.settle_relation(name)


class ReadMostly:
    """One relation with a hash primary key and a T-tree on ``rank``.

    90% of transactions look up four rows by key, 8% scan a short rank
    range through the T-tree, 2% move four rows to new ranks.  A
    client-side model (key -> rank, plus the sorted ranks) checks every
    returned row.

    The mix is exact, not sampled: every block of 50 transactions follows
    ``DECK`` and its four range scans start in the four quarters of the
    rank space.  A range scan costs ~50 lookups, so a sampled mix would
    make throughput follow the seed's share of scans rather than the
    program's speed.  An update moves four rows, not one: the log and
    checkpoint bytes of a move vary a lot with the T-tree nodes it
    touches, and a run has room for only ~100 updates, so with one row
    per update the byte counts followed the seed.  Keys, ranks and range
    bounds come from the seed.
    """

    RANK_SPACE_PER_ROW = 2
    RANGE_WIDTH = 16
    #: L = four point lookups, R = range scan, U = rank-moving update.
    DECK = "LLLLLLRLLLLLLLLLLLRLLLLLULLLLLLRLLLLLLLLLLLRLLLLLL"

    def __init__(self, db, seed: int, *, rows: int):
        self.db = db
        self.rng = random.Random(seed)
        self.rows = rows
        self.rank_space = rows * self.RANK_SPACE_PER_ROW
        self.rank: dict[int, int] = {}
        self.sorted_ranks: list[int] = []
        self.position = 0

    def load(self) -> None:
        db = self.db
        self.item = db.create_relation(
            "item",
            [("id", "int"), ("rank", "int"), ("qty", "int"), ("name", "str")],
            primary_key="id",
        )
        db.create_index("item_rank", "item", "rank", kind="ttree")
        for start in range(0, self.rows, LOAD_BATCH):
            with db.transaction() as txn:
                for key in range(start, min(self.rows, start + LOAD_BATCH)):
                    rank = self.rng.randrange(self.rank_space)
                    self.item.insert(
                        txn, {"id": key, "rank": rank, "qty": 0, "name": f"item-{key:07d}"}
                    )
                    self.rank[key] = rank
        self.sorted_ranks = sorted(self.rank.values())

    def txn(self):
        rng = self.rng
        deck = self.DECK
        slot = self.position % len(deck)
        kind = deck[slot]
        self.position += 1
        if kind == "L":
            keys = [rng.randrange(self.rows) for _ in range(4)]
            with self.db.transaction() as txn:
                rows = [self.item.lookup(txn, key) for key in keys]
            return ("lookup", keys, rows)
        if kind == "R":
            quarter = deck.count("R", 0, slot)
            low = int((quarter + rng.random()) * self.rank_space / 4)
            high = low + self.RANGE_WIDTH
            with self.db.transaction() as txn:
                rows = list(self.item.range_by(txn, "item_rank", low, high))
            return ("range", (low, high), rows)
        moves = [(key, rng.randrange(self.rank_space)) for key in rng.sample(range(self.rows), 4)]
        with self.db.transaction() as txn:
            for key, rank in moves:
                row = self.item.lookup(txn, key)
                self.item.update(txn, row.address, {"rank": rank, "qty": row["qty"] + 1})
        for key, rank in moves:
            del self.sorted_ranks[bisect.bisect_left(self.sorted_ranks, self.rank[key])]
            bisect.insort(self.sorted_ranks, rank)
            self.rank[key] = rank
        return None

    def check_result(self, result) -> str | None:
        """Compare what a read transaction returned with the model."""
        if result is None:
            return None
        kind, arg, rows = result
        if kind == "lookup":
            for key, row in zip(arg, rows):
                if row is None or row["id"] != key or row["rank"] != self.rank[key]:
                    return f"lookup({key}) returned {row and row.values}"
            return None
        low, high = arg
        expected = bisect.bisect_right(self.sorted_ranks, high) - bisect.bisect_left(
            self.sorted_ranks, low
        )
        ranks = [row["rank"] for row in rows]
        if len(rows) != expected or ranks != sorted(ranks) or any(
            row["rank"] != self.rank[row["id"]] or not low <= row["rank"] <= high
            for row in rows
        ):
            return f"range[{low}, {high}] returned {len(rows)} rows, expected {expected}"
        return None

    def check_state(self) -> list[str]:
        with self.db.transaction() as txn:
            seen = {row["id"]: row["rank"] for row in self.item.scan(txn)}
        wrong = set(seen.items()) ^ set(self.rank.items())
        return [f"item ranks differ from the model in {len(wrong)} rows"] if wrong else []

    def before_crash(self) -> None:
        """Start the next block, so every crash (the phase sizes are
        multiples of the block) is followed by the same stretch of the
        deck and on-demand recovery windows stay comparable."""
        self.position = -(-self.position // len(self.DECK)) * len(self.DECK)


def make(name: str, db, seed: int, tiny: bool):
    """The workload object for ``name``; ``tiny`` shrinks the data for
    the self-check."""
    scale = 10 if tiny else 1
    if name in ("debit_credit", "debit_credit_condensed"):
        return Bank(db, seed, branches=4, tellers=40, accounts=10_000 // scale)
    if name == "read_mostly":
        return ReadMostly(db, seed, rows=5_000 // scale)
    if name == "command_replay":
        return Bank(db, seed, branches=4, tellers=40, accounts=2_000 // scale, command=True)
    raise ValueError(f"unknown workload {name!r}")


#: Per workload: its ``SystemConfig`` and its sizes, in transactions.
#: Each of ``cycles`` cycles per round runs a timed ``block``, then
#: ``between`` untimed transactions, a crash and a restart (eager and
#: on-demand alternate), then ``after`` untimed transactions.  ``cycles``
#: is even, so both modes crash at the same number of points per round.
PLANS = {
    "debit_credit": dict(
        config=dict(logging_mode="value", condense_enabled=False),
        warmup=200, cycles=6, block=300, between=50, after=20,
    ),
    "debit_credit_condensed": dict(
        config=dict(logging_mode="value", condense_enabled=True),
        warmup=200, cycles=6, block=300, between=50, after=20,
    ),
    "read_mostly": dict(
        config=dict(logging_mode="value", condense_enabled=False, update_count_threshold=8),
        warmup=100, cycles=4, block=150, between=50, after=50,
    ),
    "command_replay": dict(
        # A settle precedes every crash, so at the paper's threshold of
        # 1000 no sweep would ever fall inside a timed block.  At 60 a
        # group sweep runs every 60 commands: ~1.7% of the timed
        # transactions, so txn_p99_us lands inside the sweep spikes
        # rather than on their edge, and ``between`` (50) stays below
        # the threshold, so each crash leaves exactly 50 live commands.
        config=dict(logging_mode="command", condense_enabled=False, update_count_threshold=60),
        warmup=100, cycles=8, block=240, between=50, after=20,
    ),
}

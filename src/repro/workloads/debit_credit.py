"""Gray's debit/credit workload (the ET1/TP1 ancestor of TPC-A).

Section 3.2 uses "Gray's debit/credit transaction" — roughly four log
records per transaction — as the reference point for the 4,000
transactions-per-second capacity claim.  The workload here is the
classical shape: update one account, its teller, its branch, and append a
history record.

The schema is deliberately lean (all-int accounts) so a debit/credit
transaction produces log traffic close to the paper's four-record
assumption plus index-component records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.distributions import UniformPicker, ZipfPicker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class DebitCreditWorkload:
    """Builds the bank schema and runs debit/credit transactions."""

    #: Rows inserted per load transaction.
    LOAD_BATCH_ROWS = 500

    def __init__(
        self,
        db: "Database",
        *,
        branches: int = 2,
        tellers_per_branch: int = 5,
        accounts_per_branch: int = 100,
        skew_theta: float = 0.0,
        seed: int = 0,
        keep_history: bool = True,
    ):
        self.db = db
        self.branches = branches
        self.tellers = branches * tellers_per_branch
        self.accounts = branches * accounts_per_branch
        self.keep_history = keep_history
        self._account_addr: dict[int, object] = {}
        self._teller_addr: dict[int, object] = {}
        self._branch_addr: dict[int, object] = {}
        self._history_id = 0
        if skew_theta > 0:
            self._picker = ZipfPicker(self.accounts, skew_theta, seed)
        else:
            self._picker = UniformPicker(self.accounts, seed)
        self.transactions_run = 0

    # -- setup --------------------------------------------------------------------

    def load(self) -> None:
        """Create and populate the four relations."""
        db = self.db
        self.branch_rel = db.create_relation(
            "branch", [("bid", "int"), ("balance", "int")], primary_key="bid"
        )
        self.teller_rel = db.create_relation(
            "teller",
            [("tid", "int"), ("bid", "int"), ("balance", "int")],
            primary_key="tid",
        )
        self.account_rel = db.create_relation(
            "account",
            [("aid", "int"), ("bid", "int"), ("balance", "int")],
            primary_key="aid",
        )
        if self.keep_history:
            self.history_rel = db.create_relation(
                "history",
                [("hid", "int"), ("aid", "int"), ("delta", "int")],
                primary_key="hid",
            )
        branches = self.branches
        rows = [
            (self.branch_rel, self._branch_addr, bid, {"bid": bid, "balance": 0})
            for bid in range(branches)
        ]
        rows += [
            (self.teller_rel, self._teller_addr, tid,
             {"tid": tid, "bid": tid % branches, "balance": 0})
            for tid in range(self.tellers)
        ]
        rows += [
            (self.account_rel, self._account_addr, aid,
             {"aid": aid, "bid": aid % branches, "balance": 1000})
            for aid in range(self.accounts)
        ]
        # One transaction's REDO must fit the Stable Log Buffer until it
        # commits, so a large bank loads in bounded batches.
        for start in range(0, len(rows), self.LOAD_BATCH_ROWS):
            with db.transaction() as txn:
                for relation, addresses, key, row in rows[start : start + self.LOAD_BATCH_ROWS]:
                    addresses[key] = relation.insert(txn, row)

    # -- one transaction -------------------------------------------------------------

    def run_transaction(self, delta: int = 10, *, pump: bool = True) -> int:
        """One debit/credit: returns the account id touched."""
        db = self.db
        aid = self._picker.pick()
        tid = aid % self.tellers
        bid = aid % self.branches
        with db.transaction(pump=pump) as txn:
            account = self.account_rel.read(txn, self._account_addr[aid])
            self.account_rel.update(
                txn, self._account_addr[aid], {"balance": account["balance"] + delta}
            )
            teller = self.teller_rel.read(txn, self._teller_addr[tid])
            self.teller_rel.update(
                txn, self._teller_addr[tid], {"balance": teller["balance"] + delta}
            )
            branch = self.branch_rel.read(txn, self._branch_addr[bid])
            self.branch_rel.update(
                txn, self._branch_addr[bid], {"balance": branch["balance"] + delta}
            )
            if self.keep_history:
                self._history_id += 1
                self.history_rel.insert(
                    txn, {"hid": self._history_id, "aid": aid, "delta": delta}
                )
        self.transactions_run += 1
        return aid

    def run(self, transactions: int, delta: int = 10, *, pump: bool = True) -> None:
        for _ in range(transactions):
            self.run_transaction(delta, pump=pump)

    # -- invariant ---------------------------------------------------------------------

    def total_balance(self) -> int:
        """Money conservation check: accounts total = initial + all deltas."""
        with self.db.transaction() as txn:
            return sum(row["balance"] for row in self.account_rel.scan(txn))

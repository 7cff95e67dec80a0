"""The Stable Log Buffer (SLB).

Section 2.3.1: REDO log records are placed in stable memory so that
transactions commit *instantly* — they never wait for a log-disk flush.
The SLB is managed as a set of fixed-size blocks handed to transactions on
demand; a block belongs to one transaction for its lifetime, so critical
sections are needed only for block allocation, never for log writing —
this removes the classical log-tail hot spot.

Chains of blocks live on one of two lists: the *uncommitted* transaction
list and the *committed* transaction list, the latter kept in commit order
so the recovery CPU can drain records to the Stable Log Tail in that
order.  After a crash the committed list (stable) is drained normally and
the uncommitted list is discarded — those transactions never committed.

The SLB also hosts the system's well-known communication areas (the
checkpoint request queue of section 2.4 and the catalog partition address
list of section 2.5), exposed through :meth:`put_well_known` /
:meth:`get_well_known`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import LogError, StableMemoryFullError, TransactionStateError
from repro.concurrency.latch import Latch
from repro.sim.stable_memory import StableMemory
from repro.wal.records import RedoRecord

#: Stable bytes reserved for the well-known communication areas.
WELL_KNOWN_RESERVE = 64 * 1024

#: Well-known key of the stable command log: encoded TxnCommand records
#: keyed by command sequence number, plus the sequence counter itself.
#: Lives beside the checkpoint queue and catalog locations — command
#: records never enter the bin-sort pipeline (docs/LOGGING.md).
COMMAND_LOG_KEY = "command-log"


@dataclass
class _LogBlock:
    """One fixed-size block of the SLB, dedicated to a single transaction."""

    block_id: int
    records: list[RedoRecord] = field(default_factory=list)
    used_bytes: int = 0


class TransactionLogChain:
    """The chain of SLB blocks belonging to one transaction."""

    def __init__(self, txn_id: int, block_size: int):
        self.txn_id = txn_id
        self.block_size = block_size
        self.blocks: list[_LogBlock] = []
        self.record_count = 0

    def current_block(self) -> _LogBlock | None:
        return self.blocks[-1] if self.blocks else None

    def fits_in_current(self, record: RedoRecord) -> bool:
        block = self.current_block()
        return block is not None and block.used_bytes + record.size_bytes <= self.block_size

    def append_to_current(self, record: RedoRecord) -> None:
        block = self.current_block()
        if block is None:
            raise LogError("no block allocated to this chain")
        block.records.append(record)
        block.used_bytes += record.size_bytes
        self.record_count += 1

    def records(self) -> Iterator[RedoRecord]:
        for block in self.blocks:
            yield from block.records


class StableLogBuffer:
    """Stable RAM region holding per-transaction REDO chains."""

    def __init__(self, stable: StableMemory, block_size: int):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.stable = stable
        self.block_size = block_size
        self.block_latch = Latch("slb-block-free-list")
        self._next_block_id = 1  # guarded-by: _mutex
        self._uncommitted: dict[int, TransactionLogChain] = {}  # guarded-by: _mutex
        #: Committed chains in commit order, awaiting the recovery CPU.
        self._committed: list[TransactionLogChain] = []  # guarded-by: _mutex
        #: Prepared chains (2PC participants awaiting the coordinator's
        #: verdict), keyed by txn id with the encoded TxnPrepare record.
        #: Stable like the committed list: a crash keeps these chains and
        #: restart resolves them from the coordinator's decision table.
        self._prepared: dict[int, tuple[TransactionLogChain, bytes]] = {}  # guarded-by: _mutex
        self._well_known: dict[str, object] = {}  # guarded-by: _mutex
        self.stable.allocate("slb-well-known", WELL_KNOWN_RESERVE, self._well_known)
        #: Serialises the chain lists and statistics between the main
        #: CPU's transaction threads and the recovery processor's drain.
        #: Lock order: ``_mutex`` → ``block_latch`` → stable-memory lock;
        #: the block latch is only ever taken under the mutex, so its
        #: raise-on-contention semantics stay meaningful (a contended
        #: latch would indicate a hole in the mutex discipline).
        self._mutex = threading.RLock()
        # statistics
        self.records_written = 0
        self.bytes_written = 0
        self.commits = 0
        self.aborts = 0
        self.prepares = 0
        #: Per-logging-mode commit counts and stable log bytes, keyed by
        #: the mode a transaction actually committed under ("value",
        #: "command", "adaptive-value", "adaptive-command").
        self.mode_commits: dict[str, int] = {}  # guarded-by: _mutex
        self.mode_bytes: dict[str, int] = {}  # guarded-by: _mutex

    # -- transaction chains ------------------------------------------------------

    def open_chain(self, txn_id: int) -> TransactionLogChain:
        with self._mutex:
            if txn_id in self._uncommitted:
                raise TransactionStateError(f"txn {txn_id} already has an open chain")
            chain = TransactionLogChain(txn_id, self.block_size)
            self._uncommitted[txn_id] = chain
            return chain

    def append(self, txn_id: int, record: RedoRecord) -> None:
        """Write one REDO record into the transaction's chain.

        Raises :class:`StableMemoryFullError` when no block can be
        allocated — the main CPU must let the recovery CPU drain the
        committed list and retry (back-pressure).
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            if not chain.fits_in_current(record):
                self._allocate_block(chain)
            chain.append_to_current(record)
            self.records_written += 1
            self.bytes_written += record.size_bytes

    def _allocate_block(self, chain: TransactionLogChain) -> None:  # caller-holds: _mutex
        # Block allocation is the one critical section of the log path.
        with self.block_latch.held_by(chain.txn_id):
            block_id = self._next_block_id
            try:
                self.stable.allocate(f"slb-block-{block_id}", self.block_size)
            except StableMemoryFullError:
                raise StableMemoryFullError(
                    "Stable Log Buffer exhausted; drain committed records"
                ) from None
            self._next_block_id += 1
            chain.blocks.append(_LogBlock(block_id))

    def _require_open(self, txn_id: int) -> TransactionLogChain:  # caller-holds: _mutex
        try:
            return self._uncommitted[txn_id]
        except KeyError:
            raise TransactionStateError(
                f"txn {txn_id} has no open log chain"
            ) from None

    # -- commit / abort --------------------------------------------------------------

    def commit(self, txn_id: int) -> None:
        """Move the chain to the committed list (in commit order).

        This is the *entire* commit-time log work: the records are already
        in stable memory, so the transaction is durable the moment the
        chain changes lists.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            del self._uncommitted[txn_id]
            self._committed.append(chain)
            self.commits += 1

    def abort(self, txn_id: int) -> None:
        """Discard the chain of an aborting transaction and free its blocks."""
        with self._mutex:
            chain = self._uncommitted.pop(txn_id, None)
            if chain is None:
                return
            self._free_chain(chain)
            self.aborts += 1

    # -- command logging (docs/LOGGING.md) ----------------------------------------------

    def _command_log(self) -> dict:  # caller-holds: _mutex
        log = self._well_known.get(COMMAND_LOG_KEY)
        if log is None:
            log = {"seq": 0, "entries": {}}
            self._well_known[COMMAND_LOG_KEY] = log
        return log

    @property
    def command_seq(self) -> int:
        """Highest command sequence number assigned so far (stable)."""
        with self._mutex:
            return self._command_log()["seq"]

    def commit_command(self, txn_id: int, build) -> int:
        """Commit a command-logged transaction atomically.

        ``build(csn)`` returns ``(payload, barriers)`` — the encoded
        :class:`~repro.wal.records.TxnCommand` for the freshly assigned
        sequence number and the :class:`~repro.wal.records.CommandBarrier`
        records to append to the chain.  Under one mutex hold: the csn is
        assigned, the command record lands in the stable command log, the
        barriers join the chain, and the chain moves to the committed
        list — so the commit point is exactly the same stable-memory
        transition value mode uses, just with a different record mix.

        Raises :class:`StableMemoryFullError` with the chain intact (the
        caller drains and retries) if the barriers need a block the SLB
        cannot allocate.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            log = self._command_log()
            csn = log["seq"] + 1
            payload, barriers = build(csn)
            appended = 0
            try:
                for record in barriers:
                    if not chain.fits_in_current(record):
                        self._allocate_block(chain)
                    chain.append_to_current(record)
                    appended += 1
                    self.records_written += 1
                    self.bytes_written += record.size_bytes
            except StableMemoryFullError:
                # Unwind the partial barrier append; the chain must look
                # exactly as it did so the caller can drain and retry.
                if appended:
                    kept = list(chain.records())[:-appended]
                    removed_bytes = sum(
                        r.size_bytes for r in list(chain.records())[-appended:]
                    )
                    self._free_chain(chain)
                    chain.blocks = []
                    chain.record_count = 0
                    for record in kept:
                        if not chain.fits_in_current(record):
                            self._allocate_block(chain)
                        chain.append_to_current(record)
                    self.records_written -= appended
                    self.bytes_written -= removed_bytes
                raise
            log["seq"] = csn
            log["entries"][csn] = bytes(payload)
            self.bytes_written += len(payload)
            del self._uncommitted[txn_id]
            self._committed.append(chain)
            self.commits += 1
            return csn

    def live_commands(self) -> list[tuple[int, bytes]]:
        """``(csn, encoded TxnCommand)`` for every unsettled command."""
        with self._mutex:
            entries = self._command_log()["entries"]
            return sorted(entries.items())

    def discard_commands(self, csns) -> int:
        """Drop settled commands (their effects are in checkpoint images)."""
        with self._mutex:
            entries = self._command_log()["entries"]
            removed = 0
            for csn in list(csns):
                if entries.pop(csn, None) is not None:
                    removed += 1
            return removed

    def filter_chain(self, txn_id: int, keep) -> int:
        """Keep only the chain records for which ``keep(record)`` is true.

        Adaptive-mode conversion: a transaction that executed with value
        logging drops its after-images at commit (its effects will come
        from command re-execution) but must keep its catalog records,
        which are always value-logged.  Returns the number removed.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            records = list(chain.records())
            kept = [record for record in records if keep(record)]
            removed = len(records) - len(kept)
            if removed == 0:
                return 0
            removed_bytes = sum(r.size_bytes for r in records if not keep(r))
            self._free_chain(chain)
            chain.blocks = []
            chain.record_count = 0
            for record in kept:
                if not chain.fits_in_current(record):
                    self._allocate_block(chain)
                chain.append_to_current(record)
            self.records_written -= removed
            self.bytes_written -= removed_bytes
            return removed

    def note_mode_commit(self, mode: str, nbytes: int) -> None:
        """Account one commit (and its stable log bytes) to a logging mode."""
        with self._mutex:
            self.mode_commits[mode] = self.mode_commits.get(mode, 0) + 1
            self.mode_bytes[mode] = self.mode_bytes.get(mode, 0) + nbytes

    def mode_stats(self) -> tuple[dict[str, int], dict[str, int]]:
        """A consistent snapshot of the per-mode commit/byte counters."""
        with self._mutex:
            return dict(self.mode_commits), dict(self.mode_bytes)

    # -- two-phase commit (repro.shard) ------------------------------------------------

    def prepare(self, txn_id: int, prepare_record: bytes) -> None:
        """Move the chain to the prepared list with its PREPARE record.

        The chain's blocks are already stable, so — exactly like commit —
        the prepare is durable the moment the chain changes lists.  The
        encoded :class:`~repro.wal.records.TxnPrepare` travels with the
        chain so restart can resolve the branch without the coordinator
        process (it names the coordinator shard to consult).
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            del self._uncommitted[txn_id]
            self._prepared[txn_id] = (chain, bytes(prepare_record))
            self.prepares += 1

    def commit_prepared(self, txn_id: int) -> None:
        """Phase-2 COMMIT: append the prepared chain to the committed list."""
        with self._mutex:
            entry = self._prepared.pop(txn_id, None)
            if entry is None:
                raise TransactionStateError(f"txn {txn_id} has no prepared chain")
            chain, _ = entry
            self._committed.append(chain)
            self.commits += 1

    def abort_prepared(self, txn_id: int) -> None:
        """Phase-2 ABORT (or presumed abort at restart): free the chain."""
        with self._mutex:
            entry = self._prepared.pop(txn_id, None)
            if entry is None:
                raise TransactionStateError(f"txn {txn_id} has no prepared chain")
            chain, _ = entry
            self._free_chain(chain)
            self.aborts += 1

    def prepared_txns(self) -> list[tuple[int, bytes]]:
        """``(txn_id, encoded TxnPrepare)`` for every in-doubt chain."""
        with self._mutex:
            return [
                (txn_id, payload)
                for txn_id, (_, payload) in sorted(self._prepared.items())
            ]

    @property
    def prepared_txn_ids(self) -> list[int]:
        with self._mutex:
            return sorted(self._prepared)

    def _free_chain(self, chain: TransactionLogChain) -> None:
        for block in chain.blocks:
            self.stable.release(f"slb-block-{block.block_id}")

    def truncate_chain(self, txn_id: int, keep_records: int) -> int:
        """Discard a chain's records beyond the first ``keep_records``.

        Used by statement-level rollback: a failed operation's REDO
        records must leave the stable chain, or replay after a later
        commit would reapply work the statement rolled back.  Returns the
        number of records removed.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            if keep_records < 0:
                raise ValueError("keep_records cannot be negative")
            if keep_records >= chain.record_count:
                return 0
            kept = list(chain.records())[:keep_records]
            removed = chain.record_count - keep_records
            self._free_chain(chain)
            chain.blocks = []
            chain.record_count = 0
            for record in kept:
                if not chain.fits_in_current(record):
                    self._allocate_block(chain)
                chain.append_to_current(record)
            self.records_written -= removed
            return removed

    # -- recovery-CPU drain ------------------------------------------------------------

    def committed_record_count(self) -> int:
        with self._mutex:
            return sum(chain.record_count for chain in self._committed)

    def drain_committed(self, max_records: int | None = None) -> list[RedoRecord]:
        """Remove and return committed records in commit order.

        The recovery CPU calls this to feed the Stable Log Tail.  Blocks
        are freed as their chains are fully consumed.  ``max_records``
        bounds one drain step so the simulation can interleave work.
        """
        drained: list[RedoRecord] = []
        with self._mutex:
            while self._committed:
                chain = self._committed[0]
                remaining = None if max_records is None else max_records - len(drained)
                if remaining is not None and remaining <= 0:
                    break
                records = list(chain.records())
                if remaining is not None and len(records) > remaining:
                    # Partially drain the head chain: keep the tail records.
                    drained.extend(records[:remaining])
                    self._retain_tail(chain, records[remaining:])
                    break
                drained.extend(records)
                self._committed.pop(0)
                self._free_chain(chain)
        return drained

    def requeue_committed(self, records: list[RedoRecord]) -> None:
        """Return drained-but-unsorted records to the head of the
        committed list.

        The recovery CPU's SLB → SLT move is a stable-to-stable transfer:
        when a crash interrupts its sorting loop, records it drained but
        never deposited must reappear for the post-restart drain, in their
        original commit order, or committed work would be lost.
        """
        if not records:
            return
        with self._mutex:
            chain = TransactionLogChain(-1, self.block_size)
            for record in records:
                if not chain.fits_in_current(record):
                    self._allocate_block(chain)
                chain.append_to_current(record)
            self._committed.insert(0, chain)

    def _retain_tail(self, chain: TransactionLogChain, tail: list[RedoRecord]) -> None:  # caller-holds: _mutex
        """Rebuild the head chain to contain only its undrained records."""
        self._free_chain(chain)
        chain.blocks = []
        chain.record_count = 0
        for record in tail:
            if not chain.fits_in_current(record):
                self._allocate_block(chain)
            chain.append_to_current(record)

    # -- crash behaviour -----------------------------------------------------------------

    def discard_uncommitted(self) -> int:
        """Post-crash policy: drop chains of transactions that never
        committed.  Returns the number of chains discarded.

        Prepared chains are *kept*: a prepared branch promised the
        coordinator it could still commit, so only in-doubt resolution
        (restart consulting the decision table) may settle its fate.
        """
        with self._mutex:
            count = len(self._uncommitted)
            for chain in self._uncommitted.values():
                self._free_chain(chain)
            self._uncommitted.clear()
            return count

    # -- well-known communication areas -----------------------------------------------------

    def put_well_known(self, key: str, value: object) -> None:
        """Store a value in the SLB's well-known area (survives crashes)."""
        with self._mutex:
            self._well_known[key] = value

    def get_well_known(self, key: str, default: object = None) -> object:
        with self._mutex:
            return self._well_known.get(key, default)

    # -- inspection ---------------------------------------------------------------------------

    @property
    def uncommitted_txn_ids(self) -> list[int]:
        with self._mutex:
            return sorted(self._uncommitted)

    @property
    def committed_chain_count(self) -> int:
        with self._mutex:
            return len(self._committed)

    def used_blocks(self) -> int:
        with self._mutex:
            return (
                sum(len(chain.blocks) for chain in self._uncommitted.values())
                + sum(len(chain.blocks) for chain, _ in self._prepared.values())
                + sum(len(chain.blocks) for chain in self._committed)
            )

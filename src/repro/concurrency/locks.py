"""Two-phase lock manager.

Resources are arbitrary hashable names — the database locks
:class:`~repro.common.types.EntityAddress` values for tuples and index
components, and ``("relation", segment_id)`` names for the relation-level
read locks that checkpoint transactions take (paper section 2.4).

Lock modes are shared / exclusive with upgrade support.  Requests that
conflict join a FIFO wait queue; a waits-for cycle is detected at request
time and aborts the requester with :class:`DeadlockError` (the youngest
transaction in the cycle is the victim by construction: it is the one that
would have closed the cycle).
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from repro.common.errors import ConcurrencyError, DeadlockError, LockNotHeldError
from repro.concurrency import audit

Resource = Hashable


class LockMode(enum.Enum):
    INTENT_SHARED = "IS"
    INTENT_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return other in _COMPATIBLE[self]


_COMPATIBLE: dict[LockMode, frozenset[LockMode]] = {
    LockMode.INTENT_SHARED: frozenset(
        {LockMode.INTENT_SHARED, LockMode.INTENT_EXCLUSIVE, LockMode.SHARED}
    ),
    LockMode.INTENT_EXCLUSIVE: frozenset(
        {LockMode.INTENT_SHARED, LockMode.INTENT_EXCLUSIVE}
    ),
    LockMode.SHARED: frozenset({LockMode.INTENT_SHARED, LockMode.SHARED}),
    LockMode.EXCLUSIVE: frozenset(),
}

#: Partial order of lock strength; the join of two held modes is the
#: weakest mode at least as strong as both (IX ∨ S promotes to X — we do
#: not model SIX).
_STRENGTH: dict[LockMode, int] = {
    LockMode.INTENT_SHARED: 0,
    LockMode.INTENT_EXCLUSIVE: 1,
    LockMode.SHARED: 1,
    LockMode.EXCLUSIVE: 2,
}


def _join(a: LockMode, b: LockMode) -> LockMode:
    if a is b:
        return a
    if _STRENGTH[a] < _STRENGTH[b]:
        a, b = b, a
    if _STRENGTH[a] > _STRENGTH[b]:
        # strictly stronger absorbs, except the IX/S pair at equal rank
        if a is LockMode.EXCLUSIVE or b is LockMode.INTENT_SHARED:
            return a
    # IX ∨ S (equal strength, different modes) and any leftover: promote
    return LockMode.EXCLUSIVE


def _covers(held: LockMode, wanted: LockMode) -> bool:
    """True when a held mode already grants everything ``wanted`` does."""
    if held is wanted:
        return True
    if held is LockMode.EXCLUSIVE:
        return True
    if held is LockMode.SHARED and wanted is LockMode.INTENT_SHARED:
        return True
    if held is LockMode.INTENT_EXCLUSIVE and wanted is LockMode.INTENT_SHARED:
        return True
    return False


@dataclass
class _LockState:
    """Holders and waiters of one resource."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: deque[tuple[int, LockMode]] = field(default_factory=deque)

    def compatible_with_others(self, txn_id: int, mode: LockMode) -> bool:
        return all(
            mode.compatible_with(held)
            for holder, held in self.holders.items()
            if holder != txn_id
        )


class LockManager:
    """Strict two-phase locking over named resources.

    All public entry points serialise on one internal mutex: under the
    concurrent scheduler several worker threads request, release, and
    inspect locks simultaneously, and grant/wait decisions must observe a
    consistent lock table.  The mutex is a leaf in the global order
    (structure mutex → latch → stable lock): no lock, latch, or stable
    access is ever taken while it is held — the audit-recorder hooks fire
    inside it, but the recorder's own mutex is strictly interior.
    """

    def __init__(self):
        self._locks: dict[Resource, _LockState] = {}
        self._held_by_txn: dict[int, set[Resource]] = {}
        self._waiting_on: dict[int, Resource] = {}
        self._mutex = threading.RLock()

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self, txn_id: int, resource: Resource, mode: LockMode, *, wait: bool = True
    ) -> bool:
        """Request ``mode`` on ``resource`` for ``txn_id``.

        Returns True if granted immediately.  If the request conflicts and
        ``wait`` is true, the transaction is parked on the wait queue and
        False is returned — the caller resumes when
        :meth:`release_all` (or :meth:`release`) grants it, observable via
        :meth:`holds`.  With ``wait=False`` a conflicting request simply
        returns False without queueing.

        Raises :class:`DeadlockError` when waiting would create a cycle.
        """
        with self._mutex:
            state = self._locks.get(resource)
            if state is None:
                state = self._locks[resource] = _LockState()
            if self._can_grant(state, txn_id, mode):
                self._grant(state, txn_id, resource, mode, blocking=wait)
                return True
            if not wait:
                return False
            already_waiting_on = self._waiting_on.get(txn_id)
            if already_waiting_on is not None:
                if already_waiting_on == resource:
                    return False  # request already queued; do not double-enqueue
                raise ConcurrencyError(
                    f"txn {txn_id} requested {resource!r} while already waiting "
                    f"on {already_waiting_on!r}"
                )
            self._check_deadlock(txn_id, resource, state)
            state.waiters.append((txn_id, mode))
            self._waiting_on[txn_id] = resource
            return False

    def _can_grant(self, state: _LockState, txn_id: int, mode: LockMode) -> bool:
        held = state.holders.get(txn_id)
        if held is not None and _covers(held, mode):
            return True  # re-entrant / already strong enough
        if held is not None:
            # upgrade: the mode that would actually be held is the JOIN of
            # the current and requested modes (S ∨ IX promotes to X), and
            # it is the join that must be compatible with every other
            # holder.  Upgrades may bypass the wait queue, as is
            # conventional.
            return state.compatible_with_others(txn_id, _join(held, mode))
        # brand-new request: fairness — do not jump ahead of waiters
        if state.waiters:
            return False
        return state.compatible_with_others(txn_id, mode)

    def _grant(
        self,
        state: _LockState,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        *,
        blocking: bool,
    ) -> None:
        held = state.holders.get(txn_id)
        state.holders[txn_id] = mode if held is None else _join(held, mode)
        self._held_by_txn.setdefault(txn_id, set()).add(resource)
        audit.lock_acquired(txn_id, resource, blocking=blocking)

    # -- deadlock detection ------------------------------------------------------

    def _check_deadlock(
        self, txn_id: int, resource: Resource, state: _LockState
    ) -> None:
        """DFS over the waits-for graph rooted at the holders of ``resource``."""
        blockers = set(state.holders) | {waiter for waiter, _ in state.waiters}
        blockers.discard(txn_id)
        seen: set[int] = set()
        stack = list(blockers)
        while stack:
            current = stack.pop()
            if current == txn_id:
                raise DeadlockError(
                    f"transaction {txn_id} waiting on {resource!r} would deadlock",
                    victim=txn_id,
                )
            if current in seen:
                continue
            seen.add(current)
            blocked_on = self._waiting_on.get(current)
            if blocked_on is None:
                continue
            next_state = self._locks[blocked_on]
            stack.extend(set(next_state.holders) - seen)
            stack.extend(
                waiter for waiter, _ in next_state.waiters if waiter not in seen
            )

    # -- release -----------------------------------------------------------------

    def release(self, txn_id: int, resource: Resource) -> None:
        """Release one lock early.

        Regular transactions hold locks to commit (strict 2PL); this path
        exists for checkpoint transactions, which release their relation
        read lock as soon as the partition copy is made (section 2.4).
        """
        with self._mutex:
            state = self._locks.get(resource)
            if state is None or txn_id not in state.holders:
                raise LockNotHeldError(f"txn {txn_id} does not hold {resource!r}")
            del state.holders[txn_id]
            self._held_by_txn[txn_id].discard(resource)
            audit.lock_released(txn_id, resource)
            self._wake_waiters(resource, state)

    def release_all(self, txn_id: int) -> None:
        """Release every lock of a committing or aborting transaction."""
        with self._mutex:
            self._cancel_wait(txn_id)
            audit.locks_dropped(txn_id)
            for resource in self._held_by_txn.pop(txn_id, set()):
                state = self._locks[resource]
                state.holders.pop(txn_id, None)
                self._wake_waiters(resource, state)

    def _cancel_wait(self, txn_id: int) -> None:
        resource = self._waiting_on.pop(txn_id, None)
        if resource is None:
            return
        state = self._locks[resource]
        state.waiters = deque(
            (waiter, mode) for waiter, mode in state.waiters if waiter != txn_id
        )

    def _wake_waiters(self, resource: Resource, state: _LockState) -> None:
        """Grant as many queued requests as compatibility allows, in FIFO order."""
        while state.waiters:
            txn_id, mode = state.waiters[0]
            held = state.holders.get(txn_id)
            effective = mode if held is None else _join(held, mode)
            if not state.compatible_with_others(txn_id, effective):
                break
            state.waiters.popleft()
            del self._waiting_on[txn_id]
            self._grant(state, txn_id, resource, mode, blocking=True)
        if not state.holders and not state.waiters:
            del self._locks[resource]

    # -- inspection ----------------------------------------------------------------

    def holds(self, txn_id: int, resource: Resource, mode: LockMode | None = None) -> bool:
        with self._mutex:
            state = self._locks.get(resource)
            if state is None:
                return False
            held = state.holders.get(txn_id)
            if held is None:
                return False
            return mode is None or _covers(held, mode)

    def is_waiting(self, txn_id: int) -> bool:
        with self._mutex:
            return txn_id in self._waiting_on

    def locks_held(self, txn_id: int) -> set[Resource]:
        with self._mutex:
            return set(self._held_by_txn.get(txn_id, set()))

    def crash(self) -> None:
        """Lose all lock state (lock tables are volatile)."""
        with self._mutex:
            for txn_id in list(self._held_by_txn):
                audit.locks_dropped(txn_id)
            self._locks.clear()
            self._held_by_txn.clear()
            self._waiting_on.clear()

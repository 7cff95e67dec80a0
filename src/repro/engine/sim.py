"""The deterministic cooperative engine.

Everything runs inline on the caller's thread in a fixed order, exactly
as the pre-engine ``Database.pump`` did.  This keeps the CPU instruction
metering — and therefore ``benchmarks/bench_sim_vs_model.py``'s
comparison against the closed-form model of paper section 3.2 —
bit-for-bit reproducible from run to run.

The recovery processor does one duty at a time.  When several threads
share a database (a concurrent scheduler's workers stalling on SLB
back-pressure, a restore pool), the duties it runs — drain and condense
on the recovery CPU, and the checkpoint acknowledges — each hold the
engine's recovery-CPU lock.  The checkpoint transactions and the
background restore step are main-CPU work and run outside it.
"""

from __future__ import annotations

import threading

from repro.engine.base import ExecutionEngine


class SimEngine(ExecutionEngine):
    """Cooperative scheduling on the calling thread (the default)."""

    name = "sim"

    def __init__(self) -> None:
        super().__init__()
        self._recovery_cpu = threading.Lock()

    def drain_log(self) -> int:
        db = self._require_db()
        with self._recovery_cpu:
            return db.recovery_service.drain()

    def pump(self) -> None:
        db = self._require_db()
        with self._recovery_cpu:
            db.recovery_service.drain()
        with self._recovery_cpu:
            db.checkpoint_service.acknowledge()
        db.checkpoint_service.process_pending()
        with self._recovery_cpu:
            db.checkpoint_service.acknowledge()
        db.recovery_service.background_step()
        with self._recovery_cpu:
            db.recovery_service.condense_step()

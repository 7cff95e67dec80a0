"""Execution engines: how the two-processor architecture is scheduled.

The paper's hardware has a main CPU and a recovery CPU running
concurrently against shared stable memory.  The repository offers two
interchangeable schedulings of that design behind one interface:

* :class:`~repro.engine.sim.SimEngine` — the deterministic cooperative
  scheduler.  Both processors' duties run inline on the caller's thread
  in a fixed order, so instruction metering and the Table 2 / section 3.2
  model comparison are bit-for-bit reproducible.
* :class:`~repro.engine.threaded.ThreadedEngine` — the same inline
  duties, plus a worker pool that restores missing partitions
  concurrently during restart phase 2 and fans out the per-partition
  replay streams of a whole-database media restore
  (:meth:`~repro.engine.base.ExecutionEngine.restore_map`).

In both, the recovery processor's duties run on whichever thread calls
``pump`` or ``drain_log``, one at a time under the engine's recovery-CPU
lock.

Select per database (``Database(engine=...)``) or process-wide with the
``REPRO_ENGINE`` environment variable (``sim`` | ``threaded``), which CI
uses to run the whole suite under the threaded engine.
"""

from __future__ import annotations

import os

from repro.engine.base import ExecutionEngine
from repro.engine.sim import SimEngine
from repro.engine.threaded import ThreadedEngine

__all__ = [
    "ExecutionEngine",
    "SimEngine",
    "ThreadedEngine",
    "engine_from_env",
]

#: Environment variable naming the default engine for new databases.
ENGINE_ENV_VAR = "REPRO_ENGINE"
#: Environment variable sizing the threaded engine's restore pool.
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"


def engine_from_env() -> ExecutionEngine:
    """Build the engine selected by ``REPRO_ENGINE`` (default: sim)."""
    kind = os.environ.get(ENGINE_ENV_VAR, "sim").strip().lower()
    if kind in ("", "sim"):
        return SimEngine()
    if kind == "threaded":
        raw = os.environ.get(WORKERS_ENV_VAR, "4")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        return ThreadedEngine(workers=workers)
    raise ValueError(
        f"unknown {ENGINE_ENV_VAR} value {kind!r}; expected 'sim' or 'threaded'"
    )

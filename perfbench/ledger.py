"""Per-layer time ledger: timing wrappers installed from outside the program.

A traced round installs a wrapper around each layer's entry points (see
:data:`TARGETS`).  Every wrapper pushes a frame on one shared stack, so a
call's *self* time is its duration minus the time of the wrapped calls it
made.  Self times of all layers plus the unattributed remainder add up to
the wall time of the ledger's active phases; nothing is counted twice.

Wrappers are installed before a round builds its objects (the bus binds
``store.ingest`` at subscription time) and removed after it, so untraced
rounds run the program's own functions.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


def _samples(args, kwargs, result) -> float:
    """Samples in ``ingest(topic, batch)`` or ``append_many(name, times, values)``."""
    return float(len(args[2]))


def _block_samples(args, kwargs, result) -> float:
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    return float(getattr(rows, "size", 0))


def _tier_served(args, kwargs, result) -> Tuple[str, float]:
    return ("rollup.tier_served" if result is not None else "rollup.raw_fallbacks", 1.0)


def _one(args, kwargs, result) -> float:
    return 1.0


#: (module, class or None for a module function, attribute, layer, counter).
#: A counter is ``(name, fn)`` with ``fn(args, kwargs, result) -> amount``,
#: or ``(None, fn)`` with ``fn`` returning ``(name, amount)``.
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[tuple]]] = [
    ("repro.simulation.engine", "Simulator", "run_until", "simulation", None),
    ("repro.software.scheduler", "Scheduler", "_tick", "scheduler.tick", None),
    ("repro.cluster.system", "HPCSystem", "apply_loads", "cluster.apply_loads", None),
    ("repro.cluster.system", "HPCSystem", "update", "cluster.physics", None),
    ("repro.cluster.network", "FatTreeFabric", "begin_step", "cluster.network", None),
    ("repro.cluster.network", "FatTreeFabric", "offer_flow", "cluster.network", None),
    ("repro.cluster.network", "FatTreeFabric", "flow_slowdown", "cluster.network", None),
    ("repro.facility.facility", "Facility", "update", "facility.update", None),
    ("repro.telemetry.collector", "Sampler", "scrape", "collector.scrape", None),
    ("repro.telemetry.bus", "MessageBus", "publish", "bus.publish", None),
    ("repro.telemetry.store", "TimeSeriesStore", "ingest", "store.ingest",
     ("store.samples", _samples)),
    ("repro.telemetry.store", "TimeSeriesStore", "append_many", "store.ingest",
     ("store.samples", _samples)),
    ("repro.telemetry.store", "TimeSeriesStore", "append_block", "store.ingest",
     ("store.samples", _block_samples)),
    ("repro.telemetry.store", "TimeSeriesStore", "flush", "store.flush", None),
    ("repro.telemetry.store", "TimeSeriesStore", "query", "store.query", None),
    ("repro.telemetry.store", "TimeSeriesStore", "resample", "store.query", None),
    ("repro.telemetry.store", "TimeSeriesStore", "align", "store.query", None),
    ("repro.telemetry.store", "TimeSeriesStore", "select", "store.query", None),
    ("repro.telemetry.store", "TimeSeriesStore", "names", "store.query", None),
    ("repro.telemetry.store", "TimeSeriesStore", "_recover_journal",
     "durability.replay", None),
    ("repro.telemetry.distributed.shard", "ShardedStore", "ingest",
     "distributed.route", None),
    ("repro.telemetry.distributed.shard", "ShardedStore", "append_many",
     "distributed.route", None),
    ("repro.telemetry.distributed.shard", "ShardedStore", "query", "store.query", None),
    ("repro.telemetry.distributed.shard", "ShardedStore", "resample", "store.query", None),
    ("repro.telemetry.distributed.shard", "ShardedStore", "align", "store.query", None),
    ("repro.telemetry.distributed.shard", "ShardedStore", "names", "store.query", None),
    ("repro.telemetry.distributed.replica", "ReplicaSet", "ingest",
     "distributed.replica_write", None),
    ("repro.telemetry.distributed.replica", "ReplicaSet", "append_many",
     "distributed.replica_write", None),
    ("repro.telemetry.rollup", "RollupEngine", "observe", "rollup.maintain", None),
    ("repro.telemetry.rollup", "RollupEngine", "serve", "store.query",
     (None, _tier_served)),
    ("repro.telemetry.archive", "ArchiveTier", "demote", "archive.demote", None),
    ("repro.telemetry.archive", "ArchiveTier", "compact", "archive.compact", None),
    ("repro.telemetry.archive", "ArchiveTier", "scan", "archive.decode", None),
    ("repro.telemetry.archive", "ArchiveTier", "value_at", "archive.decode", None),
    ("repro.telemetry.archive", "ColdChunk", "decode", "archive.decode",
     ("archive.chunks_decoded", _one)),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_names",
     "durability.append", None),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_batch",
     "durability.append", None),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_many",
     "durability.append", None),
    ("repro.telemetry.durability", "WriteAheadJournal", "append_block",
     "durability.append", None),
    ("repro.telemetry.durability", "WriteAheadJournal", "sync", "durability.sync", None),
    # Interval-policy fsyncs happen inside appends; timing the private
    # helper moves them from durability.append to durability.sync.
    ("repro.telemetry.durability", "WriteAheadJournal", "_fsync", "durability.sync", None),
    ("repro.telemetry.persistence", None, "save_store", "persistence.save", None),
    ("repro.telemetry.persistence", None, "load_store", "persistence.load", None),
    ("repro.telemetry.serving.frontend", "QueryFrontend", "serve", "serving.execute", None),
    ("repro.telemetry.serving.frontend", "QueryFrontend", "submit",
     "serving.admission", None),
]


class Ledger:
    """Self-time accounting over wrapped layer entry points and spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.active = False
        self.active_wall = 0.0
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        missing = []
        for module_name, owner_name, attr, layer, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, layer, counter))
            self._installed.append((owner, attr, original))
        if missing:
            print("ledger: not found, layer reads 0: " + ", ".join(missing), file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn: Callable, layer: str, counter: Optional[tuple]) -> Callable:
        ledger = self
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                children = stack.pop()
                self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                name, amount_fn = counter
                if name is None:
                    name, amount = amount_fn(args, kwargs, result)
                else:
                    amount = amount_fn(args, kwargs, result)
                counts[name] += amount
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- spans and phases -------------------------------------------------
    @contextmanager
    def span(self, layer: str):
        """Attribute a block of benchmark-side calls to ``layer``."""
        if not self.active:
            yield
            return
        stack = self._stack
        stack.append(0.0)
        t0 = _clock()
        try:
            yield
        finally:
            elapsed = _clock() - t0
            children = stack.pop()
            self.self_s[layer] += elapsed - children
            if stack:
                stack[-1] += elapsed

    def start(self) -> float:
        self.active = True
        return _clock()

    def stop(self, t0: float) -> None:
        self.active_wall += _clock() - t0
        self.active = False

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def unattributed_s(self) -> float:
        return self.active_wall - sum(self.self_s.values())

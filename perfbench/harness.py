"""Round recorder, NumPy references and metric aggregation shared by workloads.

A run is a sequence of identical *rounds*; each round builds its own
objects from the seed, does a fixed amount of work and checks the
program's outputs.  Fixed work per round keeps memory, operation counts and
per-round ledgers comparable between runs however fast the program is.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

import numpy as np

from ledger import Ledger

_clock = time.perf_counter


class Recorder:
    """Timings, counts and check outcomes of one round."""

    def __init__(self, ledger: Optional[Ledger] = None):
        self.ledger = ledger
        self.occurrences: Dict[str, List[float]] = defaultdict(list)
        self.latencies_s: List[float] = []
        self.samples_written = 0
        self.disk_bytes = 0
        self.disk_samples = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.info: Dict[str, float] = defaultdict(float)

    @contextmanager
    def phase(self, name: str):
        """Time a measured phase; the ledger (if any) is live inside it."""
        ledger = self.ledger
        t0 = ledger.start() if ledger is not None else _clock()
        try:
            yield
        finally:
            self.occurrences[name].append(_clock() - t0)
            if ledger is not None:
                ledger.stop(t0)

    def total(self, *names: str) -> float:
        """Wall time of the named phases (of every phase if none is named)."""
        return sum(sum(self.occurrences[n]) for n in names or list(self.occurrences))

    def span(self, layer: str):
        return self.ledger.span(layer) if self.ledger is not None else nullcontext()

    def count(self, name: str, amount: float) -> None:
        if self.ledger is not None:
            self.ledger.count(name, amount)

    def query(self, layer: Optional[str], fn, *args, **kwargs):
        """One timed read-side operation.

        An exception is a failed operation, not a wrong answer: it is
        counted and reported, and the round goes on.
        """
        self.attempted += 1
        t0 = _clock()
        try:
            with self.span(layer) if layer else nullcontext():
                result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted as failed, reported below
            self.fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        finally:
            self.latencies_s.append(_clock() - t0)
        return result

    def fail(self, what: str) -> None:
        """Count one failed operation."""
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# References computed from the benchmark's own arrays
# ---------------------------------------------------------------------------
def bucket_reduce(times, values, since, until, step, agg):
    """Per-bucket reduction over ``[since, until]`` in buckets of ``step``.

    Buckets are left-closed; the last (possibly partial) bucket is closed
    at ``until``; an empty bucket is NaN.  These are the documented
    semantics of ``TimeSeriesStore.resample``.
    """
    if until <= since:
        return np.empty(0), np.empty(0)
    n = int(np.ceil((until - since) / step - 1e-9))
    edges = since + np.arange(n + 1) * step
    lo = int(np.searchsorted(times, since, side="left"))
    hi = int(np.searchsorted(times, until, side="right"))
    t, v = times[lo:hi], values[lo:hi]
    out = np.full(n, np.nan)
    if t.size:
        idx = np.searchsorted(t, edges)
        idx[-1] = t.size
        starts, ends = idx[:-1], idx[1:]
        full = ends > starts
        s, e = starts[full], ends[full]
        if agg == "mean":
            out[full] = np.add.reduceat(v, s) / (e - s)
        elif agg == "max":
            out[full] = np.maximum.reduceat(v, s)
        elif agg == "min":
            out[full] = np.minimum.reduceat(v, s)
        else:
            raise ValueError(f"no reference for aggregation {agg!r}")
    return edges[:-1], out


def ffill(v):
    """Carry the last finite value forward; leading NaNs stay NaN."""
    out = v.copy()
    for i in range(1, out.size):
        if np.isnan(out[i]):
            out[i] = out[i - 1]
    return out


def trapezoid(times, values) -> float:
    """Trapezoidal integral, written out rather than taken from NumPy."""
    return float(np.sum((values[1:] + values[:-1]) * np.diff(times)) / 2.0)


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def du(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: List[Recorder], workload) -> Dict[str, float]:
    """End-to-end metrics over the untraced rounds of a run.

    Rates pool the run's work over the wall time of the phases that did it,
    and set-up, checkpoint and recovery times are means per occurrence over
    the run: the machine's speed drifts over seconds, and a pooled figure
    averages over more of that drift than a median of a few occurrences.
    """

    def total(phases):
        return sum(r.total(*phases) for r in rounds)

    def mean_of(phase):
        return float(np.mean([t for r in rounds for t in r.occurrences[phase]]))

    lat_ms = np.concatenate([np.asarray(r.latencies_s) for r in rounds]) * 1e3
    return {
        "setup_s": total(workload.setup_phases) / len(rounds),
        "peak_rss_mb": peak_rss_mb(),
        "samples_per_s": sum(r.samples_written for r in rounds)
        / total(workload.write_phases),
        "queries_per_s": lat_ms.size / total(workload.query_phases),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p99_ms": float(np.percentile(lat_ms, 99)),
        "checkpoint_s": mean_of("checkpoint"),
        "recovery_s": mean_of("recovery"),
        "disk_bytes_per_sample": sum(r.disk_bytes for r in rounds)
        / sum(r.disk_samples for r in rounds),
    }


def per_layer(ledger: Ledger, traced: List[Recorder], untraced: List[Recorder], names):
    """Per-layer metrics ``names`` as means per traced round.

    A name ending in ``_s`` is the self time of the layer it names
    (``simulation.self_s`` is the event engine's); any other is a count.
    ``tracing_overhead`` is the median measured wall of a traced round over
    that of an untraced round of the same run; the run's first round also
    pays one-off warm-up costs, so it is left out when another untraced
    round exists.
    """
    n = len(traced)
    layer_of = {
        name: "simulation" if name == "simulation.self_s" else name[:-2]
        for name in names if name.endswith("_s")
    }
    unreported = set(ledger.self_s) - set(layer_of.values())
    if unreported:
        raise RuntimeError(f"ledger layers with no metric: {sorted(unreported)}")
    out = {name: ledger.self_s.get(layer, 0.0) / n for name, layer in layer_of.items()}
    out.update({name: ledger.counts.get(name, 0.0) / n for name in names if name not in out})
    hits = ledger.counts.get("serving.cache_hits", 0.0)
    lookups = ledger.counts.get("serving.cache_lookups", 0.0)
    out["serving.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["unattributed_s"] = ledger.unattributed_s() / n
    out["traced_wall_s"] = ledger.active_wall / n

    baseline = untraced[1:] or untraced
    out["tracing_overhead"] = float(
        np.median([r.total() for r in traced]) / np.median([r.total() for r in baseline])
    )
    return out

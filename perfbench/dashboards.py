"""dashboards: the read path, with live scrapes written between queries.

Setup loads a multi-day history of generated, site-shaped series into a
tiered store (rollups + cold archive + retention, so most history is cold).
A seeded heavy-tailed multi-tenant workload then runs through
``QueryFrontend`` as one closed-loop client (``max_workers=0``) with the
result cache and admission control on; admission limits are set so that
nothing is refused.  After every ``LIVE_EVERY`` queries one live scrape of
every series is published on the bus.  The round ends with a checkpoint
of the store and a reload from it.

Every answer is checked against a NumPy reference computed from the data
written before that query, so cached answers are held to the same
reference as executed ones.  There is no substrate and no journal.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import math
import os

import numpy as np

from harness import Recorder, bucket_reduce, ffill, same_bits
import repro.oda  # noqa: F401 - frontend() imports it lazily; keep that out of round 1
from repro.telemetry import SampleBatch, TelemetrySystem, persistence
from repro.telemetry.serving import TenantConfig
from repro.telemetry.serving.workload import WorkloadSpec, heavy_tailed_workload

RACKS, NODES, METRICS = 4, 4, ("power", "temp", "cpu_util", "fan_rpm")
PERIOD = 60.0
HISTORY_DAYS = 3
RETENTION = 6 * 3600.0
LOAD_BLOCK = 60  # history rows per append_block (one hour)
#: A round's query stream is SEGMENTS independent heavy-tailed workloads,
#: each with its own hot pool, and every round of a run draws new ones: one
#: pool's 16 canonical queries and a few full-horizon scans set most of a
#: stream's cost, so a single draw made query cost differ 2x between seeds.
SEGMENTS, SEGMENT_QUERIES = 12, 100
QUERIES = SEGMENTS * SEGMENT_QUERIES
LIVE_EVERY = 10
TENANTS = 6
#: Share of distinct resample and align queries moved onto a rollup tier's
#: grid (since and step multiples of the tier step), so that the planner
#: serves them from tiers; the rest keep their generated, unaligned steps
#: and fall back to raw.  The tier is the one nearest the generated step.
TIER_SHARE = 0.25
TIER_STEPS = (60.0, 3600.0)
#: Reloads of each checkpoint; recovery_s is their mean.
RELOADS = 3
#: No rate limit; one closed-loop client never exceeds the default
#: concurrency or queue bounds, so admission control never refuses a query.
UNLIMITED = TenantConfig(rate=math.inf)


class Dashboards:
    name = "dashboards"
    min_rounds = 2
    setup_phases = ("setup", "load")
    write_phases = ("load",)
    query_phases = ("read", "live")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rounds = 0
        self.names = tuple(
            f"site.rack{r}.node{n}.{m}"
            for r in range(RACKS) for n in range(NODES) for m in METRICS
        )

    def _inputs(self):
        """History plus live rows: site-shaped diurnal signals, quantized."""
        rng = np.random.default_rng(self.seed)
        history = int(HISTORY_DAYS * 86400 / PERIOD)
        live = QUERIES // LIVE_EVERY
        times = PERIOD * np.arange(1, history + live + 1)
        level = np.tile([300.0, 45.0, 0.5, 6000.0], RACKS * NODES)
        swing = np.tile([150.0, 10.0, 0.4, 2500.0], RACKS * NODES)
        phase = rng.uniform(0.0, 0.5, len(self.names))
        wave = np.sin(2 * np.pi * (times[:, None] / 86400.0 + phase))
        noise = rng.normal(0.0, 0.05, (times.size, len(self.names)))
        values = np.round(level + swing * (wave + noise), 2)
        return times, values, history

    # ------------------------------------------------------------------
    def round(self, rec: Recorder) -> None:
        names = self.names
        with rec.phase("setup"):
            with rec.span("bench.inputs"):
                times, values, written = self._inputs()
            telemetry = TelemetrySystem(store_retention=RETENTION, rollups=True, archive=True)
            store = telemetry.store
        with rec.phase("load"):
            for lo in range(0, written, LOAD_BLOCK):
                hi = min(lo + LOAD_BLOCK, written)
                store.append_block(names, times[lo:hi], values[lo:hi])
        rec.samples_written += written * len(names)
        with rec.phase("setup"):
            frontend = telemetry.frontend(
                tenants={f"tenant{i}": UNLIMITED for i in range(TENANTS)},
                max_workers=0,
            )
            events = []
            for k in range(SEGMENTS):
                seq = np.random.SeedSequence([self.seed, self.rounds, k])
                seed = int(seq.generate_state(1)[0])
                events += heavy_tailed_workload(
                    names, float(times[0]), float(times[written - 1]),
                    WorkloadSpec(tenants=TENANTS, queries=SEGMENT_QUERIES, seed=seed),
                )
            events = self._snap_to_tiers(events)

        self.rounds += 1
        bus = telemetry.bus
        for i, (tenant, query) in enumerate(events):
            with rec.phase("read"):
                outcome = rec.query(None, frontend.serve, tenant, query)
            if outcome is not None and not outcome.ok:
                rec.fail(f"query {i} ({query.kind}) refused or failed: {outcome}")
            elif outcome is not None:
                self._check_answer(rec, i, query, outcome.payload,
                                   times[:written], values[:written])
            if i % LIVE_EVERY == LIVE_EVERY - 1:
                with rec.phase("live"):
                    bus.publish("live", SampleBatch(times[written], names, values[written]))
                written += 1
                rec.attempted += 1
        rec.failed += bus.delivery_errors
        stats = frontend.cache_stats()
        rec.count("serving.cache_hits", stats["hits"])
        rec.count("serving.cache_lookups", stats["hits"] + stats["misses"])
        rec.count("serving.cache_invalidations", stats["invalidations"])

        path = os.path.join(self.workdir, "dashboards.npz")
        with rec.phase("checkpoint"):
            persistence.save_store(store, path)
        rec.disk_bytes += os.path.getsize(path)
        rec.count("persistence.bytes", os.path.getsize(path))
        rec.disk_samples += written * len(names)
        for _ in range(RELOADS):
            with rec.phase("recovery"):
                restored = persistence.load_store(path)
        rec.attempted += 1 + RELOADS
        for j, name in enumerate(names):
            t, v = restored.query(name)
            if not (same_bits(t, times[:written]) and same_bits(v, values[:written, j])):
                rec.check(False, f"{name}: reloaded checkpoint differs from the data written")
                break
        frontend.close()
        os.remove(path)

    def _snap_to_tiers(self, events):
        """Move a seeded share of distinct bucketed queries onto a tier grid.

        The choice is made once per distinct query, so a repeated hot-pool
        query stays one cache key.
        """
        rng = np.random.default_rng([self.seed, self.rounds, SEGMENTS])
        chosen = {}
        out = []
        for tenant, query in events:
            if query.kind in ("resample", "align"):
                if query not in chosen:
                    chosen[query] = query
                    if rng.random() < TIER_SHARE:
                        step = min(TIER_STEPS, key=lambda s: abs(math.log(query.step / s)))
                        chosen[query] = dataclasses.replace(
                            query, since=step * math.floor(query.since / step), step=step,
                        )
                query = chosen[query]
            out.append((tenant, query))
        return out

    # ------------------------------------------------------------------
    def _check_answer(self, rec, i, query, payload, times, values) -> None:
        kind = query.kind
        if kind == "names":
            ok = tuple(payload) == tuple(sorted(self.names))
        elif kind == "select":
            want = tuple(n for n in sorted(self.names) if fnmatch.fnmatchcase(n, query.pattern))
            ok = tuple(payload) == want
        elif kind == "range":
            j = self.names.index(query.name)
            lo = np.searchsorted(times, query.since, side="left")
            hi = np.searchsorted(times, query.until, side="right")
            ok = same_bits(payload[0], times[lo:hi]) and same_bits(payload[1], values[lo:hi, j])
        elif kind == "resample":
            j = self.names.index(query.name)
            grid, col = bucket_reduce(times, values[:, j], query.since, query.until,
                                      query.step, query.agg)
            ok = same_bits(payload[0], grid) and same_bits(payload[1], col)
        elif kind == "align":
            cols = []
            grid = None
            for name in query.names:
                grid, col = bucket_reduce(times, values[:, self.names.index(name)],
                                          query.since, query.until, query.step, query.agg)
                cols.append(ffill(col) if query.fill == "ffill" else col)
            ok = (
                tuple(payload[2]) == tuple(query.names)
                and same_bits(payload[0], grid)
                and same_bits(payload[1], np.column_stack(cols))
            )
        else:
            ok = False
        rec.check(ok, f"query {i} ({kind}) differs from the NumPy reference")

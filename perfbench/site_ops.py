"""site_ops: a whole simulated site with an hourly analytics battery.

One round builds a seeded 64-node ``DataCenter`` with the default single
in-process store (no shards, tiers or journal), warms it up for a day,
then simulates a day and a half.  After every simulated hour an analytics
battery runs over the trailing window.  The round ends with a checkpoint of the site
store and a reload from it.

Substrate physics, network, scheduler, scrape, bus, store ingest and the
analytics layer do the work here; storage tiers, the journal and the
serving front door are never built.
"""

from __future__ import annotations

import os

import numpy as np

from harness import Recorder, same_bits, trapezoid
from repro.analytics.descriptive.kpis import compute_kpi_report
from repro.analytics.diagnostic.anomaly import PeerDeviationDetector
from repro.apps.generator import WorkloadGenerator
from repro.oda import DataCenter
from repro.oda.deployments import (
    build_clustercockpit_like,
    build_eni_like,
    build_llnl_like,
)
from repro.software.jobs import JobState
from repro.telemetry import persistence

HOUR = 3600.0
RACKS, NODES_PER_RACK = 4, 16
PERIOD = 60.0  # scrape period, s
#: 32 jobs/day (peak rate) on 64 nodes is a rate the site keeps up with;
#: at 120/day the queue grows for the whole run and per-day cost drifts.
JOBS_PER_DAY = 32.0
#: The site's reference job trace.  Network cost grows with the square of a
#: job's node count, so traces drawn per seed differ by up to 3x in cost;
#: every seed therefore replays this one trace (48 jobs, 28 nodes at most,
#: none left queued at the end) and the seed drives the rest of the site.
TRACE_SEED = 7
USERS = 12
#: The warm-up is most of the set-up.  A day of it gives set-up about as
#: many seconds per round as the simulated hours after it; with 12 h,
#: ``setup_s`` spread 26-35 % over ten seeds.
WARMUP_H = 24
SIM_H = 36
#: Per-job dashboards drawn each battery (most recently submitted jobs).
JOB_DASHBOARDS = 8
FORECAST_WINDOW_S = 24 * HOUR
#: Reloads of each checkpoint; recovery_s is their mean.
RELOADS = 3
RAMP_THRESHOLD_W = 5_000.0
_TERMINAL = {JobState.COMPLETED, JobState.TIMEOUT, JobState.FAILED, JobState.CANCELLED}


class SiteOps:
    name = "site_ops"
    min_rounds = 2
    setup_phases = ("setup",)
    write_phases = ("write",)
    query_phases = ("read",)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    # ------------------------------------------------------------------
    def round(self, rec: Recorder) -> None:
        with rec.phase("setup"):
            dc = DataCenter(
                seed=self.seed, racks=RACKS, nodes_per_rack=NODES_PER_RACK,
                telemetry_period=PERIOD,
            )
            generator = WorkloadGenerator(
                np.random.default_rng(TRACE_SEED), catalog=dc.catalog, users=USERS,
                jobs_per_day=JOBS_PER_DAY, max_nodes=dc.system.node_count,
            )
            requests = generator.generate(0.0, (WARMUP_H + SIM_H) * HOUR)
            dc.scheduler.load_trace(dc.sim, requests)
            eni = build_eni_like(dc)
            llnl = build_llnl_like(dc)
            cockpit = build_clustercockpit_like(dc)
            dc.run(seconds=WARMUP_H * HOUR)

        store = dc.store
        temps = [dc.system.node_metric(n.name, "temp") for n in dc.system.nodes]
        events0 = dc.sim.events_executed
        samples0 = store.samples_ingested
        read0 = rec.total("read")
        for _ in range(SIM_H):
            with rec.phase("write"):
                dc.run(seconds=HOUR)
            with rec.phase("read"):
                self._battery(rec, dc, eni, llnl, cockpit, temps)
        rec.samples_written += store.samples_ingested - samples0
        rec.count("simulation.events", dc.sim.events_executed - events0)
        rec.info["node_days"] = RACKS * NODES_PER_RACK * SIM_H / 24.0
        rec.info["analytics_s_per_sim_day"] = (rec.total("read") - read0) / (SIM_H / 24.0)

        path = os.path.join(self.workdir, "site.npz")
        with rec.phase("checkpoint"):
            persistence.save_store(store, path)
        rec.disk_bytes += os.path.getsize(path)
        rec.count("persistence.bytes", os.path.getsize(path))
        for _ in range(RELOADS):
            with rec.phase("recovery"):
                restored = persistence.load_store(path)
        rec.attempted += 1 + RELOADS

        self._check(rec, dc, requests, restored)
        self._account(rec, dc)
        os.remove(path)

    # ------------------------------------------------------------------
    def _battery(self, rec, dc, eni, llnl, cockpit, temps) -> None:
        """The hourly battery: a fixed mix of 6 + JOB_DASHBOARDS calls."""
        now = dc.sim.now
        store = dc.store
        window = now - 6 * HOUR
        kpi = rec.query("analytics.descriptive", compute_kpi_report, store, now - HOUR, now)
        if kpi is not None:
            t, w = store.query("facility.power.it_power", now - HOUR, now)
            own = trapezoid(t, w) / 3.6e6
            rec.check(
                abs(kpi.it_energy_kwh - own) <= 1e-9 * abs(own),
                f"KPI IT energy {kpi.it_energy_kwh} != trapezoid {own} at t={now}",
            )
        rec.query("analytics.descriptive", llnl.run_capability,
                  "site power dashboard", window, now)
        job_ids = list(dc.scheduler.jobs)
        for i in range(JOB_DASHBOARDS):
            job_id = job_ids[-1 - i % len(job_ids)]
            rec.query("analytics.descriptive", cockpit.run_capability,
                      "job-level dashboards", job_id)
        rec.query("analytics.diagnostic", eni.run_capability,
                  "infrastructure anomaly detection", window, now)
        rec.query("analytics.diagnostic", _peer_deviation, store, temps, now - HOUR, now)
        rec.query("analytics.predictive", llnl.run_capability, "power ramp forecasting",
                  max(0.0, now - FORECAST_WINDOW_S), now, HOUR, RAMP_THRESHOLD_W)
        rec.query("analytics.prescriptive", eni.run_capability,
                  "cooling setpoint optimization", window, now)

    # ------------------------------------------------------------------
    def _check(self, rec, dc, requests, restored) -> None:
        store = dc.store
        now = dc.sim.now
        scrapes = int(round(now / PERIOD))
        expected_t = PERIOD * np.arange(1, scrapes + 1)
        declared = sorted(
            spec.name for agent in dc.telemetry.agents
            for sampler in agent.samplers for spec in sampler.specs
        )
        names = store.names()
        rec.check(names == declared, "stored series differ from the declared metrics")
        stored = 0
        for name in names:
            t, v = store.query(name)
            stored += t.size
            if not np.array_equal(t, expected_t):
                rec.check(False, f"{name}: timestamps are not the scrape grid")
                break
            rt, rv = restored.query(name)
            if not (same_bits(rt, t) and same_bits(rv, v)):
                rec.check(False, f"{name}: reloaded checkpoint differs")
                break
        rec.check(stored == scrapes * len(declared),
                  f"stored {stored} samples, expected {scrapes} x {len(declared)}")
        rec.disk_samples += stored

        ts, site = store.query("facility.power.site_power")
        ti, it = store.query("facility.power.it_power")
        rec.check(np.array_equal(ts, ti) and bool(np.all(site >= it)),
                  "site power below IT power")

        submitted = sum(1 for r in requests if r.submit_time <= now)
        sched = dc.scheduler
        finished = sum(1 for j in sched.jobs.values() if j.state in _TERMINAL)
        rec.check(
            submitted == finished + len(sched.running) + len(sched.queue)
            == len(sched.jobs),
            f"jobs not conserved: submitted {submitted}, finished {finished}, "
            f"running {len(sched.running)}, queued {len(sched.queue)}",
        )

    @staticmethod
    def _account(rec, dc) -> None:
        for agent in dc.telemetry.agents:
            for sampler in agent.samplers:
                rec.attempted += sampler.scrapes + sampler.errors
                rec.failed += sampler.errors
        bus = dc.telemetry.bus
        rec.attempted += bus.published
        rec.failed += bus.delivery_errors

    @staticmethod
    def summary(rounds) -> dict:
        write = sum(r.total("write") for r in rounds)
        return {
            "node_days_per_s": sum(r.info["node_days"] for r in rounds) / write,
            "analytics_s_per_sim_day": float(
                np.median([r.info["analytics_s_per_sim_day"] for r in rounds])
            ),
        }


def _peer_deviation(store, names, since, until):
    """Diagnostic: nodes whose temperature profile deviates from their peers."""
    _grid, matrix = store.align(names, since, until, step=300.0)
    finite = np.isfinite(matrix).all(axis=1)
    return PeerDeviationDetector(threshold=3.0).detect(matrix[finite].T, names)

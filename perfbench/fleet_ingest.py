"""fleet_ingest: the production write path, a checkpoint, a crash and recovery.

One round publishes benchmark-generated fleet scrapes through
``TelemetrySystem.bus`` into an in-process ``ShardedStore`` (2 shards x 1
replica) with rollups, a cold archive whose retention forces demotion, and
a write-ahead journal under the default ``interval`` sync policy.  Producers
ack (``sync_journal``) every ``ACK_EVERY`` scrapes; a ``save_store``
checkpoint runs after ``CHECKPOINT_AFTER`` scrapes.  After the last ack a
few unacked scrapes follow, then the store is dropped without ``close`` (a
crash).  Recovery reopens the journals, loads the checkpoint, and splices
the journal tail into the loaded store; then every series is read back, a
seeded subset is resampled on a rollup tier's grid, and each metric is
aligned across the fleet on that grid.

There is no substrate and no serving front door; reads are the post-recovery
read-back.  Each scrape is one fleet-wide batch, as an aggregator publishes
it (see README: batches interleaved by source replay far slower).
"""

from __future__ import annotations

import gc
import os
import shutil

import numpy as np

from harness import Recorder, bucket_reduce, du, ffill, same_bits
from repro.telemetry import SampleBatch, TelemetrySystem, persistence
from repro.telemetry.distributed import ShardedStore

NODES, METRICS = 32, 16
PERIOD = 10.0  # s between fleet scrapes
#: One hour of fleet telemetry per round, checkpointed after 50 minutes.
#: The store flushes a series (rollup maintenance, demotion) every 256
#: staged samples and a checkpoint flushes everything, so the checkpoint
#: comes after the first flush cycle: checkpointing at 30 minutes left the
#: write phase timing little but staging.  Short rounds spread each run's
#: read-backs, checkpoints and recoveries over its whole length.
SCRAPES = 360
ACK_EVERY = 30
UNACKED = 6  # scrapes published after the last ack, before the crash
CHECKPOINT_AFTER = 300
RETENTION = 900.0
SHARDS, REPLICATION = 2, 1
#: Tier-aligned resamples read back per round: series drawn, step, and
#: the aggregations drawn from.
RESAMPLE_SERIES = 64
RESAMPLE_STEP = 60.0
RESAMPLE_AGGS = ("mean", "min", "max")
#: Each metric is also aligned across all nodes on the same grid, a fleet
#: view per metric.  These reads are 32 series wide, so they, not a slow
#: spell of the machine during some single-series reads, set the tail.
#: They all take the mean: the tail's p99 lies inside this cluster of
#: reads, and with mixed aggregations its spread over ten seeds was 32 %.
ALIGN_AGG = "mean"


class FleetIngest:
    name = "fleet_ingest"
    min_rounds = 4
    setup_phases = ("setup",)
    write_phases = ("write",)
    query_phases = ("read",)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.names = tuple(
            f"fleet.node{n:03d}.m{m:02d}" for n in range(NODES) for m in range(METRICS)
        )
        # The first generation pays one-off allocator and NumPy warm-up
        # costs of about 15 ms, more than a round's whole set-up; pay them
        # here, before timing starts.
        self._inputs()

    def _inputs(self):
        """Quantized, diurnally shaped readings: (times, values[scrape, series]).

        Levels and phases are fixed; the seed draws the noise.  Cold-chunk
        decode cost grows with the XOR width of consecutive values, which
        jumps for a series crossing a power of two, so seeded levels made
        read-back latency differ by 40 % between seeds.
        """
        rng = np.random.default_rng(self.seed)
        times = PERIOD * np.arange(1, SCRAPES + 1)
        count = len(self.names)
        level = np.geomspace(20.0, 400.0, count)
        phase = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        wave = np.sin(2 * np.pi * times[:, None] / 86400.0 + phase)
        noise = rng.normal(0.0, 0.02, (SCRAPES, count))
        values = np.round(level * (1.0 + 0.2 * wave + noise), 1)
        return times, values

    def _store_kwargs(self, journal):
        return dict(shards=SHARDS, replication=REPLICATION, rollups=True,
                    archive=True, journal=journal)

    # ------------------------------------------------------------------
    def round(self, rec: Recorder) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        wal = os.path.join(self.workdir, "wal")
        ckpt = os.path.join(self.workdir, "checkpoint.npz")
        names = self.names

        with rec.phase("setup"):
            with rec.span("bench.inputs"):
                times, values = self._inputs()
                batches = [SampleBatch(t, names, row) for t, row in zip(times, values)]
            telemetry = TelemetrySystem(store_retention=RETENTION, **self._store_kwargs(wal))

        bus, store = telemetry.bus, telemetry.store
        acked = 0
        last = SCRAPES - UNACKED
        for lo, hi in ((0, CHECKPOINT_AFTER), (CHECKPOINT_AFTER, SCRAPES)):
            with rec.phase("write"):
                for s in range(lo, hi):
                    bus.publish("fleet", batches[s])
                    if (s + 1 <= last and (s + 1) % ACK_EVERY == 0) or s + 1 == last:
                        store.sync_journal()
                        acked = s + 1
                        rec.attempted += 1
            if lo == 0:
                with rec.phase("checkpoint"):
                    persistence.save_store(store, ckpt)
                rec.count("persistence.bytes", du(self.workdir) - du(wal))
        rec.attempted += SCRAPES + 1
        rec.samples_written += acked * len(names)
        rec.failed += bus.delivery_errors
        rec.count("durability.bytes_written", sum(
            m.journal.bytes_written for rs in store.replica_sets for m in rs.members
        ))
        # Crash: drop every reference without close(); unsynced journal
        # buffers die with the objects.
        del telemetry, bus, store
        gc.collect()
        rec.disk_bytes += du(self.workdir)
        rec.disk_samples += acked * len(names)

        with rec.phase("recovery"):
            restored = self._recover(wal, ckpt, rec)
        rec.attempted += 1

        # Read-back of every series, tier-aligned resamples of a seeded
        # subset and one fleet view per metric, in a seeded order so that
        # each kind of read is spread over the whole read phase.
        rng = np.random.default_rng(self.seed + 1)
        until = RESAMPLE_STEP * np.floor(times[acked - 1] / RESAMPLE_STEP)
        resamples = [(int(j), str(rng.choice(RESAMPLE_AGGS)))
                     for j in rng.choice(len(names), RESAMPLE_SERIES, replace=False)]
        reads = [(restored.query, (name,), {}) for name in names] + [
            (restored.resample, (names[j], 0.0, until, RESAMPLE_STEP), {"agg": agg})
            for j, agg in resamples
        ] + [
            (restored.align, (names[m::METRICS], 0.0, until, RESAMPLE_STEP),
             {"agg": ALIGN_AGG})
            for m in range(METRICS)
        ]
        got = [None] * len(reads)
        with rec.phase("read"):
            for k in rng.permutation(len(reads)).tolist():
                fn, args, kwargs = reads[k]
                got[k] = rec.query(None, fn, *args, **kwargs)
        self._check(rec, names, got, times, values, acked, until, resamples)

    # ------------------------------------------------------------------
    def _recover(self, wal, ckpt, rec: Recorder):
        """Checkpoint plus journal tail, spliced into one queryable store."""
        reopened = ShardedStore(retention=RETENTION, **self._store_kwargs(wal))
        restored = persistence.load_store(ckpt)
        stats = [m.recovery for rs in reopened.replica_sets for m in rs.members]
        rec.count("durability.replayed_samples", sum(s.replayed_samples for s in stats))
        rec.attempted += sum(s.replayed_records for s in stats)
        rec.failed += sum(s.replay_conflicts for s in stats)
        # The reopened primaries hold exactly the records past the
        # checkpoint's durable watermark: the journal tail.
        tails = [reopened.query(name) for name in self.names]
        tail_t = tails[0][0]
        rec.check(all(same_bits(t, tail_t) for t, _ in tails),
                  "journal tails differ between series of one batch")
        matrix = np.column_stack([v for _, v in tails])
        for i, t in enumerate(tail_t.tolist()):
            restored.ingest("recovery", SampleBatch(t, self.names, matrix[i]))
        return restored

    def _check(self, rec, names, got, times, values, acked, until, resamples) -> None:
        for j, name in enumerate(names):
            if got[j] is None:
                continue
            t, v = got[j]
            n = t.size
            ok = (
                acked <= n <= SCRAPES
                and same_bits(t, times[:n])
                and same_bits(v, values[:n, j])
            )
            if not ok:
                rec.check(False, f"{name}: {n} samples after recovery, acked {acked}, "
                                 "or values differ from the published ones")
                break
        def reference(j, agg):
            return bucket_reduce(times[:acked], values[:acked, j], 0.0, until,
                                 RESAMPLE_STEP, agg)

        first = len(names)
        for (j, agg), answer in zip(resamples, got[first:]):
            if answer is None:
                continue
            rt, rv = reference(j, agg)
            rec.check(same_bits(answer[0], rt) and same_bits(answer[1], rv),
                      f"{names[j]}: {agg} resample differs from the NumPy reduction")
        first += len(resamples)
        for m, answer in enumerate(got[first:]):
            if answer is None:
                continue
            cols = [reference(j, ALIGN_AGG) for j in range(m, len(names), METRICS)]
            rec.check(
                same_bits(answer[0], cols[0][0])
                and same_bits(answer[1], np.column_stack([ffill(v) for _, v in cols])),
                f"metric {m}: fleet align differs from the NumPy reduction",
            )

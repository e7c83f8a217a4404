"""The benchmark's workloads: generated specs, one sweep, the oracle.

A *sweep* is what ``repro run SPEC --out DIR/results.csv`` does after
import: build the runner from the spec, run it with a ``RunObserver``,
then write the CSV and the ``RunManifest``.  Each workload drives
sweeps from one client in a closed loop; the program only ever sees
the spec generated from ``--seed``.

- ``grid-warm``: every Table I PointPillars/CenterPoint row under the
  four simulators (PointAcc only where it is cheap) over four one-frame
  scenarios, serial, on one runner whose trace cache and frames a
  set-up sweep filled.  Frames and rulegen are bypassed; GSU tile
  planning dominates.
- ``drive-seq``: the cells of ``examples/specs/drive.json`` over two
  4-frame sequential scenarios, serial and cold.  Frame work dominates,
  and it is the only sequential drive scenario.
- ``kitti-dist``: the KITTI Table I rows under the same four
  simulators (SPP1 on SPADE and stats only) over one 2-frame scenario,
  cold, on the ``dist`` backend with two freshly forked local workers
  per sweep.  This is the only multi-process path:
  coordinator pre-trace, disk-tier artifact shipping, the protocol
  and the workers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import signal
import time
from pathlib import Path

from repro.analysis.sparsity import dense_counterpart
from repro.engine.cache import TraceCache
from repro.engine.dist.coordinator import DistBackend
from repro.engine.manifest import RunManifest, RunObserver, manifest_path_for
from repro.engine.runner import FrameProvider
from repro.engine.spec import ExperimentSpec
from repro.models.zoo import TABLE1_PAPER

from layers import SWEEP, patch, unpatch

SIMULATORS = ("spade-he", "dense-he", "pointacc-he", "stats")
TABLE1_ROWS = ("PP", "SPP1", "SPP2", "SPP3", "CP", "SCP1", "SCP2", "SCP3")
#: grid-warm runs PointAcc on the rows where it is cheap: on SPP1, SCP1
#: and SCP2 it is half of a warm sweep, which would halve the sweeps
#: one run can time.
GRID_CELLS = (
    {"simulator": "SPADE*"}, {"simulator": "DenseAcc*"},
    {"simulator": "TraceStats"}, {"model": "PP"}, {"model": "CP"},
    {"model": "SPP2"}, {"model": "SPP3"}, {"model": "SCP3"},
)
KITTI_ROWS = ("PP", "SPP1", "SPP2", "SPP3")
#: kitti-dist runs SPP1 on SPADE and stats only: PointAcc on SPP1 made
#: a one-frame sweep ~1.3 s instead of ~0.85 s, while without SPP1 the
#: Table I errors would rest on two sparse rows and vary too much from
#: seed to seed.
KITTI_CELLS = (
    {"model": "SPP1", "simulator": "SPADE*"},
    {"model": "SPP1", "simulator": "TraceStats"},
    {"model": "PP"}, {"model": "SPP2"}, {"model": "SPP3"},
)

#: A sweep slower than this is a failed sweep.
SWEEP_TIMEOUT_S = 30

#: ``examples/specs/drive.json``'s cells (SPP3 on SPADE-HE, PP on
#: DenseAcc-HE), plus PointAcc and stats cells so that every ``sim.*``
#: metric has rows to read.
DRIVE_CELLS = (
    {"model": "SPP3", "simulator": "SPADE*"},
    {"model": "PP", "simulator": "DenseAcc*"},
    {"model": "SPP3", "simulator": "PointAcc*"},
    {"simulator": "TraceStats"},
)

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

#: The seed whose CSV digests are committed in :data:`GOLDENS`.
GOLDEN_SEED = 0


#: Scenario seeds are ``--seed`` times this.  Frame i of a scenario
#: uses the scenario seed plus i, so without a stride consecutive
#: ``--seed`` values would share frames, and a set of runs at
#: consecutive seeds would draw far fewer distinct scenes.
SEED_STRIDE = 1000


def scenario_seed(seed: int) -> int:
    return SEED_STRIDE * seed


#: Scenario k of a sweep is seeded ``scenario_seed(seed)`` plus this
#: times k, so its frames never meet another scenario's.
SCENE_STRIDE = 100


def scenarios(name: str, seed: int, count: int, frames: int) -> list:
    """``count`` scenarios of ``frames`` frames each.  Sweep time and
    the ``sim.*`` metrics follow the scenes drawn (a scene with 4% more
    pillars made a sweep ~9% slower), so a sweep over several scenes
    varies less from seed to seed than a sweep over one."""
    return [{"name": f"{name}{k}",
             "seed": scenario_seed(seed) + SCENE_STRIDE * k,
             "frames": frames} for k in range(count)]


def grid_warm_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec.from_dict({
        "version": 1, "name": "grid-warm",
        "simulators": list(SIMULATORS), "models": list(TABLE1_ROWS),
        "scenarios": scenarios("table1-", seed, 4, 1),
        "cells": [dict(rule) for rule in GRID_CELLS],
        "backend": "serial",
    })


def drive_seq_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec.from_dict({
        "version": 1, "name": "drive-seq",
        "simulators": list(SIMULATORS), "models": ["SPP3", "PP"],
        "scenarios": scenarios("drive-", seed, 2, 4),
        "cells": [dict(rule) for rule in DRIVE_CELLS],
        "backend": "serial",
    })


def kitti_dist_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec.from_dict({
        "version": 1, "name": "kitti-dist",
        "simulators": list(SIMULATORS), "models": list(KITTI_ROWS),
        "scenarios": [{"name": "kitti", "seed": scenario_seed(seed),
                       "frames": 2}],
        "cells": [dict(rule) for rule in KITTI_CELLS],
        "backend": "dist",
    })


def run_sweep(runner, out_dir: Path):
    """Run, then write the CSV and the manifest, as ``repro run`` does."""
    observer = RunObserver()
    table = runner.run(observer=observer)
    path = out_dir / "results.csv"
    table.to_csv(path=path)
    RunManifest.collect(runner, table, observer=observer).write(
        manifest_path_for(path))
    return table


def reference_sweep(spec: ExperimentSpec, out_dir: Path):
    """A cold serial sweep on a fresh runner: the oracle's reference.
    Returns ``(csv digest, sim metrics)``."""
    runner = spec.build_runner(
        cache=TraceCache(disk_dir=None), frame_provider=FrameProvider(),
        backend="serial")
    table = run_sweep(runner, out_dir)
    return file_digest(out_dir / "results.csv"), sim_metrics(table)


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def oracle_ok(digest: str, sims: dict, reference: tuple,
              golden: str = None) -> bool:
    """Whether one sweep's output passes the oracle: its CSV matches
    the reference sweep's (and the committed golden, at the golden
    seed) byte for byte, and its ``sim.*`` values repeat exactly."""
    ref_digest, ref_sims = reference
    return (digest == ref_digest and sims == ref_sims
            and (golden is None or digest == golden))


# ---------------------------------------------------------------------------
# Simulated metrics (deterministic for a given seed)
# ---------------------------------------------------------------------------


def _geomean(values: list) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def sim_metrics(table) -> dict:
    """The ``sim.*`` metrics of one sweep's table.

    Speed-ups are geomeans over (frame, sparse model); the Table I
    errors compare measured computation savings and GOPs per frame
    with the published rows.  Table I is the only reference data in
    the repository, so the two speed-ups are unvalidated.
    """
    cycles, macs, ops = {}, {}, {}
    for row in table.results:
        if row.frame == "mean":
            continue
        frame = (row.scenario, row.frame)
        family = row.simulator.split(".")[0]
        if family == "TraceStats":
            macs[frame, row.model] = row.extras["total_macs"]
            ops[frame, row.model] = row.extras["total_ops"]
        else:
            cycles[frame, row.model, family] = row.cycles
    vs_dense, vs_pointacc, savings_err = [], [], []
    for frame, model in macs:
        dense = dense_counterpart(model)
        if dense == model:
            continue
        spade = cycles[frame, model, "SPADE"]
        if (frame, model, "PointAcc") in cycles:
            vs_pointacc.append(cycles[frame, model, "PointAcc"] / spade)
        if (frame, dense) in macs:
            vs_dense.append(cycles[frame, dense, "DenseAcc"] / spade)
            measured = 100.0 * (1.0 - macs[frame, model] / macs[frame, dense])
            paper = TABLE1_PAPER[model].sparsity_pct
            savings_err.append(abs(measured - paper) / paper)
    gops_err = [
        abs(total / 1e9 - TABLE1_PAPER[model].avg_gops)
        / TABLE1_PAPER[model].avg_gops
        for (_, model), total in ops.items()
    ]
    return {
        "sim.spade_vs_dense": _geomean(vs_dense),
        "sim.spade_vs_pointacc": _geomean(vs_pointacc),
        "sim.table1_savings_err": sum(savings_err) / len(savings_err),
        "sim.table1_gops_err": sum(gops_err) / len(gops_err),
    }


class _Timed:
    """Times one sweep; inside a traced sweep it is also the sweep's
    root span, so the ledger's wall time is the timed interval."""

    def __init__(self, recorder=None):
        self.recorder = recorder

    def __enter__(self):
        self.span = (self.recorder.open(SWEEP)
                     if self.recorder is not None else None)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.started
        if self.span is not None:
            self.recorder.close(self.span)


class SweepTimeout(Exception):
    """A sweep ran past :data:`SWEEP_TIMEOUT_S`."""


def _on_alarm(signum, frame):
    raise SweepTimeout(f"sweep exceeded {SWEEP_TIMEOUT_S} s")


class _Deadline:
    """Raise :class:`SweepTimeout` in the main thread if a sweep hangs."""

    def __enter__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(SWEEP_TIMEOUT_S)

    def __exit__(self, *exc):
        signal.alarm(0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One closed-loop client's view of a workload.

    ``set_up`` is one repetition of the workload's set-up (the run
    repeats it and reports the median); ``reference`` makes the
    untimed serial reference sweep; ``sweep`` makes one timed sweep
    and returns ``(seconds, table)``.  With a ``recorder`` the sweep
    is traced and its root span covers exactly the timed interval.
    """

    name = None

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.out_dir = Path(run_dir) / "sweep"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        #: Per timed sweep: the worker pair's summed peak RSS (MB) and
        #: its spawn-to-ready seconds; per worker slot: the peak RSS.
        self.worker_rss_mb = []
        self.worker_ready_s = []
        self.worker_peak_mb = [0.0, 0.0]

    def csv_digest(self) -> str:
        return file_digest(self.out_dir / "results.csv")

    def close(self) -> None:
        pass


class GridWarm(Workload):
    """Table I grid on one warm serial runner."""

    name = "grid-warm"

    def set_up(self) -> None:
        # Drop the previous repetition's warm runner first, so the peak
        # RSS over set-up counts one warm cache, not two.
        self.runner = self._fill = None
        gc.collect()
        runner = grid_warm_spec(self.seed).build_runner(
            cache=TraceCache(disk_dir=None), frame_provider=FrameProvider())
        with _Deadline():
            self._fill = run_sweep(runner, self.out_dir)
        self._fill_digest = self.csv_digest()
        self.runner = runner

    def reference(self):
        """The set-up fill: a cold serial sweep on a fresh runner."""
        return self._fill_digest, sim_metrics(self._fill)

    def sweep(self, index: int, recorder=None, next_traced=False):
        with _Deadline(), _Timed(recorder) as timed:
            table = run_sweep(self.runner, self.out_dir)
        return timed.seconds, table


class DriveSeq(Workload):
    """A 4-frame drive, serial and cold: a fresh runner every sweep."""

    name = "drive-seq"

    def set_up(self) -> None:
        self.spec = drive_seq_spec(self.seed)

    def reference(self):
        with _Deadline():
            return reference_sweep(self.spec, self.out_dir)

    def sweep(self, index: int, recorder=None, next_traced=False):
        with _Deadline(), _Timed(recorder) as timed:
            runner = self.spec.build_runner(
                cache=TraceCache(disk_dir=None),
                frame_provider=FrameProvider())
            table = run_sweep(runner, self.out_dir)
        return timed.seconds, table


class KittiDist(Workload):
    """KITTI rows on the dist backend, two fresh workers per sweep."""

    name = "kitti-dist"

    def __init__(self, seed: int, run_dir: Path, forge):
        super().__init__(seed, run_dir)
        self.forge = forge
        self._undo = patch(
            "repro.engine.dist.coordinator:Coordinator.start",
            self._dial_after_start)

    def _dial_after_start(self, start):
        forge = self.forge

        def start_then_dial(coordinator):
            start(coordinator)
            forge.release(coordinator.settings.host, coordinator.port)

        return start_then_dial

    def set_up(self) -> None:
        self.spec = kitti_dist_spec(self.seed)
        self.forge.collect()
        self.forge.spawn_pair(0, False)

    def reference(self):
        with _Deadline():
            return reference_sweep(self.spec, self.out_dir)

    def sweep(self, index: int, recorder=None, next_traced=False):
        try:
            with _Deadline():
                with _Timed(recorder) as timed:
                    runner = self.spec.build_runner(
                        cache=TraceCache(disk_dir=None),
                        frame_provider=FrameProvider(),
                        backend=DistBackend(port=0))
                    table = run_sweep(runner, self.out_dir)
                reports = self.forge.collect()
        except Exception:
            self.forge.abort()
            raise
        finally:
            self.worker_ready_s.append(
                self.forge.spawn_pair(index + 1, next_traced))
        rss = [report["peak_rss_mb"] for report in reports]
        self.worker_rss_mb.append(sum(rss))
        self.worker_peak_mb = [max(old, new) for old, new
                               in zip(self.worker_peak_mb, rss)]
        return timed.seconds, table

    def close(self) -> None:
        unpatch(self._undo)


WORKLOADS = {"grid-warm": GridWarm, "drive-seq": DriveSeq,
             "kitti-dist": KittiDist}
SPECS = {"grid-warm": grid_warm_spec, "drive-seq": drive_seq_spec,
         "kitti-dist": kitti_dist_spec}

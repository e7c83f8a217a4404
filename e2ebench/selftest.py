"""Self-tests of the benchmark itself.

    python3 -m pytest e2ebench/selftest.py -q
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import (  # noqa: E402
    ENTRY_POINTS,
    SWEEP,
    LayerHooks,
    Span,
    SpanRecorder,
    _repro_modules,
    _resolve,
    sweep_ledger,
)


# -- statistics ---------------------------------------------------------------


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError, match="at least 100"):
        run.percentile([1.0] * 99, 90)
    assert run.percentile([float(i) for i in range(100)], 90) \
        == pytest.approx(89.1)


def test_normalized_mean_refuses_fewer_than_20_sweeps():
    with pytest.raises(ValueError, match="at least 20"):
        run.normalized_mean([1.0] * 19)
    assert run.normalized_mean([10.0, 30.0] * 10) \
        == pytest.approx(20.0 * run.CALIBRATION_REF_S)


def test_paired_ratio_divides_by_the_calibrations_around_it():
    # A host running twice as slow doubles both the sweep and its
    # calibrations, and leaves the ratio alone.
    assert run.paired_ratio(1.0, 0.04, 0.06) == pytest.approx(20.0)
    assert run.paired_ratio(2.0, 0.08, 0.12) == pytest.approx(20.0)


def test_calibration_kernel_never_loads_the_program():
    import subprocess

    probe = ("import sys, calibrate; seconds = calibrate.calibrate(); "
             "print(seconds, any(name.split('.')[0] == 'repro' "
             "for name in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=BENCH,
                         capture_output=True, text=True, check=True)
    seconds, loaded = out.stdout.split()
    assert 0.0 < float(seconds) < 5.0
    assert loaded == "False"


@pytest.mark.parametrize("q", [60, 80, 90])
def test_percentile_keeps_ten_samples_beyond_it(q):
    need = run.min_samples(q)
    with pytest.raises(ValueError):
        run.percentile([1.0] * (need - 1), q)
    samples = [float(i) for i in range(need)]
    tail = run.percentile(samples, q)
    assert sum(value > tail for value in samples) >= run.MIN_BEYOND


# -- self time ----------------------------------------------------------------


def _span(layer, start, end, parent=None, sweep=0, thread=1):
    span = Span(layer, start, parent, sweep, thread, 0)
    span.end = end
    if parent is not None:
        parent.child_s += end - start
    return span


def test_self_time_of_nested_and_sibling_spans():
    root = _span(SWEEP, 0.0, 10.0)
    outer = _span("engine.backends", 1.0, 9.0, root)
    first = _span("core.gsu", 2.0, 4.0, outer)
    second = _span("core.gsu", 5.0, 6.0, outer)
    inner = _span("core.dataflow", 5.2, 5.7, second)
    assert outer.self_s == pytest.approx(5.0)
    assert second.self_s == pytest.approx(0.5)
    ledger = sweep_ledger([root, outer, first, second, inner], 0)
    layers = ledger["layers"]
    assert ledger["wall_s"] == pytest.approx(10.0)
    assert layers[SWEEP]["self_s"] == pytest.approx(2.0)
    assert layers["engine.backends"]["self_s"] == pytest.approx(5.0)
    assert layers["core.gsu"]["self_s"] == pytest.approx(2.5)
    assert layers["core.gsu"]["calls"] == 2
    assert layers["core.dataflow"]["self_s"] == pytest.approx(0.5)


def test_other_threads_take_the_time_the_sweep_thread_waits():
    root = _span(SWEEP, 0.0, 10.0)
    wait = _span("engine.dist", 2.0, 8.0, root)
    pool_a = _span("data.voxelize", 2.0, 6.0, thread=2)
    pool_b = _span("sparse.rulegen", 4.0, 8.0, thread=3)
    wire = _span("engine.dist", 0.0, 10.0, thread=4)
    wire.args = {"msgs": 1, "bytes": 10}
    layers = sweep_ledger([root, wait, pool_a, pool_b, wire], 0)["layers"]
    assert layers["data.voxelize"]["self_s"] == pytest.approx(3.0)
    assert layers["sparse.rulegen"]["self_s"] == pytest.approx(3.0)
    assert layers["engine.dist"]["self_s"] == pytest.approx(0.0)
    assert layers["engine.dist"]["calls"] == 2
    assert layers["engine.dist"]["msgs"] == 1
    assert sum(entry["self_s"] for entry in layers.values()) \
        == pytest.approx(10.0)


# -- hooks --------------------------------------------------------------------


def _bindings() -> dict:
    import workloads  # noqa: F401 - loads every module the hooks touch

    found = {}
    for module in _repro_modules():
        for name, value in vars(module).items():
            found[module.__name__, name] = value
    for entry in ENTRY_POINTS:
        owner, attr = _resolve(entry.target)
        if isinstance(owner, type):
            classes = [owner] + list(owner.__subclasses__())
            for cls in classes:
                if attr in cls.__dict__:
                    found[cls, attr] = cls.__dict__[attr]
    return found


def test_detach_restores_every_wrapped_binding():
    import repro.core.dataflow as dataflow
    import repro.core.gsu as gsu
    from repro.engine.manifest import RunManifest

    before = _bindings()
    original_plan = gsu.plan_tiles
    hooks = LayerHooks(SpanRecorder(), enabled=True)
    try:
        assert dataflow.plan_tiles is not original_plan
        assert gsu.plan_tiles is not original_plan
        assert isinstance(RunManifest.__dict__["collect"], classmethod)
        changed = [key for key, value in _bindings().items()
                   if before.get(key) is not value]
        assert len(changed) >= len(ENTRY_POINTS)
    finally:
        hooks.disable()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_and_untraced_sweeps_write_the_same_csv(tmp_path):
    from repro.engine.cache import TraceCache
    from repro.engine.runner import FrameProvider
    from repro.engine.spec import ExperimentSpec
    from workloads import file_digest, run_sweep

    spec = ExperimentSpec.from_dict({
        "version": 1, "name": "probe", "models": ["SPP3"],
        "simulators": ["spade-he", "pointacc-he", "stats"],
        "scenarios": [{"name": "probe", "seed": 5, "frames": 1}],
        "backend": "serial"})
    digests = []
    recorder = SpanRecorder()
    for traced in (False, True):
        hooks = LayerHooks(recorder, enabled=traced)
        try:
            run_sweep(spec.build_runner(cache=TraceCache(disk_dir=None),
                                        frame_provider=FrameProvider()),
                      tmp_path)
        finally:
            hooks.disable()
        digests.append(file_digest(tmp_path / "results.csv"))
    assert digests[0] == digests[1]
    assert {span.layer for span in recorder.spans} >= {
        "data.voxelize", "sparse.rulegen", "core.gsu", "engine.manifest"}


# -- oracle -------------------------------------------------------------------


def test_oracle_rejects_a_csv_with_one_corrupted_byte(tmp_path):
    from workloads import file_digest, oracle_ok

    path = tmp_path / "results.csv"
    path.write_bytes(b"scenario,frame,model\nkitti,,SPP3\n")
    reference = (file_digest(path), {"sim.spade_vs_dense": 4.0})
    assert oracle_ok(file_digest(path), {"sim.spade_vs_dense": 4.0},
                     reference, golden=reference[0])
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert not oracle_ok(file_digest(path), {"sim.spade_vs_dense": 4.0},
                         reference)
    assert not oracle_ok(reference[0], {"sim.spade_vs_dense": 4.000001},
                         reference)


# -- dist workers -------------------------------------------------------------


def test_worker_dials_only_after_the_coordinator_listens(tmp_path):
    from forge import WorkerForge

    forge = WorkerForge(tmp_path)
    try:
        forge.spawn_pair(0, False)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(0.5)
        with pytest.raises(socket.timeout):
            listener.accept()
        forge.release("127.0.0.1", listener.getsockname()[1])
        listener.settimeout(10.0)
        peers = [listener.accept()[0] for _ in range(2)]
        for peer in peers:
            peer.close()
        listener.close()
        reports = forge.collect()
        assert [report["code"] for report in reports] == [1, 1]
    finally:
        forge.close()


def test_dial_hook_releases_workers_after_start_binds():
    from repro.engine.dist.coordinator import Coordinator
    from repro.engine.settings import DistSettings
    from workloads import KittiDist

    seen = []

    class Forge:
        def release(self, host, port):
            seen.append(coordinator._listener is not None)

    workload = KittiDist.__new__(KittiDist)
    workload.forge = Forge()
    coordinator = Coordinator([], DistSettings(port=0))
    start = workload._dial_after_start(Coordinator.start)
    try:
        start(coordinator)
    finally:
        coordinator.shutdown()
    assert seen == [True]


# -- environment and metric names ----------------------------------------------


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert run.highest_percentile(100) == 90
    assert run.highest_percentile(65) == 84
    assert run.highest_percentile(5000) == 99
    for count in (25, 64, 100, 333):
        assert run.min_samples(run.highest_percentile(count)) <= count


def test_caller_repro_variables_do_not_reach_a_workload(monkeypatch):
    from workloads import grid_warm_spec

    monkeypatch.setenv("REPRO_ENGINE_WORKERS", "7")
    monkeypatch.setenv("REPRO_ENGINE_DELTA_TRACE", "1")
    import os

    removed = run.clean_environment(os.environ)
    assert {"REPRO_ENGINE_WORKERS", "REPRO_ENGINE_DELTA_TRACE"} <= \
        set(removed)
    assert not [name for name in os.environ if name.startswith("REPRO_")]
    runner = grid_warm_spec(0).build_runner()
    assert runner.max_workers != 7
    assert runner.delta_trace is False


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"]} == run.END_TO_END
    assert {metric["name"]: metric["unit"]
            for metric in spec["per_layer"]} == run.per_layer_units()
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_recorder_parents_are_per_thread():
    recorder = SpanRecorder()
    outer = recorder.open("core.gsu")
    seen = []

    def other():
        seen.append(recorder.open("engine.dist"))
        recorder.close(seen[0])

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    recorder.close(outer)
    assert seen[0].parent is None
    assert outer.child_s == 0.0


# -- failure accounting -------------------------------------------------------


class _BrokenWorkload:
    """A workload whose every sweep fails: it raises, or its CSV does
    not match the reference."""

    worker_peak_mb = [0.0, 0.0]
    worker_rss_mb = []
    worker_ready_s = []
    sims = {"sim.spade_vs_dense": 4.0, "sim.spade_vs_pointacc": 2.0,
            "sim.table1_savings_err": 0.1, "sim.table1_gops_err": 0.2}

    def __init__(self, seed, run_dir, how):
        self.how = how

    def set_up(self):
        pass

    def reference(self):
        return "reference", dict(self.sims)

    def sweep(self, index, recorder=None, next_traced=False):
        if self.how == "raises":
            raise RuntimeError("broken program")
        return 0.001, None

    def csv_digest(self):
        return "corrupted"

    def close(self):
        pass


@pytest.mark.parametrize("how", ["raises", "mismatch"])
def test_failing_sweeps_still_print_the_result_line(
        how, tmp_path, monkeypatch, capsys):
    import workloads

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "clean_environment", lambda: [])
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setitem(
        workloads.WORKLOADS, "grid-warm",
        lambda seed, run_dir: _BrokenWorkload(seed, run_dir, how))
    monkeypatch.setattr(workloads, "sim_metrics",
                        lambda table: dict(_BrokenWorkload.sims))
    assert run.main(["--workload", "grid-warm", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    metrics = result["metrics"]
    assert metrics.keys() == run.END_TO_END.keys()
    assert metrics["ok_frac"]["value"] == 0.0
    assert metrics["sweep_s.norm"]["value"] is None
    assert metrics["cells_per_s"]["value"] is None
    record, = (tmp_path / "results").glob("grid-warm-*.json")
    assert json.loads(record.read_text())["failed"] == result["failed"]

"""Run one benchmark workload; print its metrics as the last stdout line.

    python3 e2ebench/run.py --workload grid-warm --seed 3 --seconds 40 \\
        --trace 0

One client drives sweeps in a closed loop for ``--seconds``, checks
every sweep against the output oracle, and prints one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ledger
(see README.md).  Every run also leaves a result file with its
provenance under ``e2ebench/.out/results/``; traced runs leave a
Chrome trace and a ledger under ``e2ebench/.out/traces/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

from calibrate import CALIBRATION_REF_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

#: Samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10
#: ``peak_rss_mb`` covers set-up and this many timed sweeps.  The dist
#: coordinator's RSS keeps growing with every sweep it runs, by amounts
#: that vary from run to run (freed memory kept in per-thread malloc
#: arenas), so a peak over many sweeps follows the run's length and the
#: allocator rather than the footprint of one sweep.
RSS_SWEEPS = 1
#: Traced sweeps written to the Chrome trace (the ledger has them all),
#: which keeps a grid-warm trace file near 3 MB.
TRACE_SWEEPS = 20
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Calibration passes averaged at each point of set-up, which is timed
#: only a few times, so each of its calibrations must be precise.
SETUP_CALIBRATIONS = 3
#: A run short of samples keeps sweeping past ``--seconds`` until this
#: many seconds after process start, so it still exits well within
#: three minutes.
HARD_LIMIT_S = 150.0


#: Sweeps ``sweep_s.norm`` needs: a run short of them keeps sweeping.
MEAN_SAMPLES = 20


def min_samples(q: int) -> int:
    """Samples needed for ``MIN_BEYOND`` of them to lie beyond pq."""
    return -(-MIN_BEYOND * 100 // (100 - q))


def normalized_mean(ratios: list) -> float:
    """``sweep_s.norm``: the mean of a run's sweep-to-calibration
    ratios, in seconds on the reference host."""
    if len(ratios) < MEAN_SAMPLES:
        raise ValueError(f"sweep_s.norm needs at least {MEAN_SAMPLES} "
                         f"sweeps, got {len(ratios)}")
    return statistics.fmean(ratios) * CALIBRATION_REF_S


def paired_ratio(elapsed: float, before: float, after: float) -> float:
    """A timed interval's seconds ÷ the mean of the calibrations just
    before and just after it, which track the host's speed during the
    interval more closely than either alone."""
    return elapsed * 2 / (before + after)


def highest_percentile(count: int) -> int:
    """The highest whole percentile ``count`` samples can report."""
    return min(99, 100 - -(-MIN_BEYOND * 100 // count))


def percentile(samples: list, q: int) -> float:
    """The q-th percentile; refuses too few samples to estimate it."""
    need = min_samples(q)
    if len(samples) < need:
        raise ValueError(
            f"p{q} needs at least {need} samples so that {MIN_BEYOND} "
            f"lie beyond it, got {len(samples)}")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def clean_environment(environ=os.environ) -> list:
    """Drop every ``REPRO_*`` variable, so ambient knobs cannot change
    a workload; returns the names removed."""
    removed = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in removed:
        del environ[name]
    return removed


def process_age_s() -> float:
    """Seconds since this process started, from ``/proc``."""
    with open("/proc/self/stat") as stat:
        start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as uptime:
        now = float(uptime.read().split()[0])
    return now - start_ticks / os.sysconf("SC_CLK_TCK")


def source_revision() -> dict:
    """Git revision when the checkout is a repository, and a digest of
    the program's sources either way."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git = None
    return {"git_revision": git, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

END_TO_END = {
    "sweep_s.norm": "s", "cells_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio", "sim.spade_vs_dense": "x",
    "sim.spade_vs_pointacc": "x", "sim.table1_gops_err": "ratio",
}

LAYER_EXTRAS = {
    "data.voxelize": {"pillars": "count"},
    "sparse.rulegen": {"pairs": "count"},
    "core.gsu": {"tiles": "count"},
    "engine.result": {"bytes": "B"},
    "engine.cache": {"hits": "count", "misses": "count",
                     "disk_hits": "count", "disk_writes": "count",
                     "hit_ratio": "ratio"},
    "engine.dist": {"msgs": "count", "bytes": "B", "trace_stage_s": "s",
                    "wait_s": "s", "worker_ready_s": "s",
                    "worker_rss_mb": "MB"},
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        for key, unit in LAYER_EXTRAS.get(layer, {}).items():
            units[f"{layer}.{key}"] = unit
    for layer in LAYERS:
        units[f"worker.{layer}.self_s"] = "s"
    units["sweep.unattributed_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Per-layer ledger of a traced run
# ---------------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _worker_self_s(files: list) -> dict:
    """Main-thread self seconds per layer, summed over a sweep's
    worker span files."""
    totals = {}
    for data in files:
        for layer, _, _, self_s, on_main, _ in data["spans"]:
            if on_main:
                totals[layer] = totals.get(layer, 0.0) + self_s
    return totals


def _dist_timing(spans: list, thread) -> tuple:
    """(trace-stage seconds, wait seconds) of one dist sweep: from the
    coordinator listening to ``serve`` starting, and ``serve`` itself."""
    listening = serve = None
    for span in spans:
        if span.thread != thread or span.layer != "engine.dist":
            continue
        event = (span.args or {}).get("event")
        if event == "listening" and listening is None:
            listening = span
        elif event == "serve":
            serve = span
    if listening is None or serve is None:
        return 0.0, 0.0
    return serve.start - listening.end, serve.duration


def layer_metrics(recorder, traced: list, worker_files: dict,
                  cache_counts: dict, workload, seconds: dict) -> tuple:
    """Per-layer metrics (means per traced sweep) and the ledger rows."""
    from layers import (CACHE_COUNTERS, LAYERS, SWEEP, network_layer_rows,
                        sweep_ledger)

    by_sweep = {}
    for span in recorder.spans:
        by_sweep.setdefault(span.sweep, []).append(span)
    ledgers = {index: sweep_ledger(by_sweep.get(index, []), index)
               for index in traced}
    wall = _mean(ledger["wall_s"] for ledger in ledgers.values())
    metrics = {}

    def layer_sum(layer, key):
        return _mean(ledger["layers"].get(layer, {}).get(key, 0)
                     for ledger in ledgers.values())

    for layer in LAYERS:
        self_s = layer_sum(layer, "self_s")
        metrics[f"{layer}.calls"] = layer_sum(layer, "calls")
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / wall if wall else 0.0
        for key in LAYER_EXTRAS.get(layer, {}):
            metrics[f"{layer}.{key}"] = layer_sum(layer, key)
    for key in CACHE_COUNTERS:
        metrics[f"engine.cache.{key}"] = _mean(
            cache_counts[index][key] for index in traced)
    looked_up = sum(metrics[f"engine.cache.{key}"]
                    for key in ("hits", "misses", "disk_hits"))
    metrics["engine.cache.hit_ratio"] = (
        metrics["engine.cache.hits"] / looked_up if looked_up else 0.0)
    stages = []
    for index in traced:
        roots = [span for span in by_sweep.get(index, [])
                 if span.layer == SWEEP]
        if roots:
            stages.append(_dist_timing(by_sweep[index], roots[0].thread))
    metrics["engine.dist.trace_stage_s"] = _mean(s for s, _ in stages)
    metrics["engine.dist.wait_s"] = _mean(w for _, w in stages)
    metrics["engine.dist.worker_ready_s"] = _mean(workload.worker_ready_s)
    metrics["engine.dist.worker_rss_mb"] = _mean(workload.worker_rss_mb)
    workers = [_worker_self_s(worker_files.get(index, []))
               for index in traced]
    for layer in LAYERS:
        metrics[f"worker.{layer}.self_s"] = _mean(
            totals.get(layer, 0.0) for totals in workers)
    metrics["sweep.unattributed_share"] = (
        layer_sum(SWEEP, "self_s") / wall if wall else 0.0)
    plain = [seconds[index] for index in seconds if index not in traced]
    with_hooks = [seconds[index] for index in seconds if index in traced]
    metrics["trace.overhead"] = (
        statistics.median(with_hooks) / statistics.median(plain) - 1.0
        if plain and with_hooks else 0.0)
    ledger = {
        "sweeps": {str(index): ledgers[index] for index in traced},
        "network_layers": network_layer_rows(recorder.spans),
    }
    return metrics, ledger


def write_trace(path: Path, recorder, worker_files: dict,
                sweeps: list) -> None:
    """Merge the coordinator's and the workers' spans of ``sweeps``
    into one Chrome trace."""
    from layers import chrome_trace

    keep = set(sweeps)
    events = chrome_trace([span for span in recorder.spans
                           if span.sweep in keep], os.getpid(), "benchmark")
    for files in (worker_files[index] for index in sweeps):
        for data in files:
            pid = data["pid"]
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {
                               "name": f"worker w{data['slot']} "
                                       f"sweep {data['sweep']}"}})
            for layer, start, end, _, on_main, args in data["spans"]:
                events.append({
                    "name": layer, "cat": layer.split(".")[0], "ph": "X",
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "pid": pid, "tid": 0 if on_main else 1,
                    "args": dict(args or {}, sweep=data["sweep"]),
                })
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"},
                               separators=(",", ":")))


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-warm", "drive-seq", "kitti-dist"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    """Set up, sweep, check; returns the full result record."""
    import numpy

    from forge import WorkerForge, peak_rss_mb
    from layers import LayerHooks, SpanRecorder
    from workloads import (GOLDEN_SEED, WORKLOADS, KittiDist, load_goldens,
                           oracle_ok, sim_metrics)

    load_start = os.getloadavg()
    run_dir = OUT / "runs" / f"{args.workload}-{os.getpid()}"
    forge = None
    if args.workload == "kitti-dist":
        # Start the workers' fork server within the import time.
        forge = WorkerForge(run_dir)
        workload = KittiDist(args.seed, run_dir, forge)
    else:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
    once_s = process_age_s()
    recorder = SpanRecorder()
    hooks = LayerHooks(recorder)
    seconds, ok_seconds, worker_files, cache_counts = {}, [], {}, {}
    # Calibration seconds by sweep index, measured just before it (and
    # after the last sweep, under the next index).
    calibration = {}
    traced = []
    attempted = failed = 0
    rows = 0
    rss = None
    try:
        # Imports, then each set-up repetition, each followed by a
        # calibration: imports are scaled by the first, a repetition by
        # the two around it.
        repeats = []
        setup_cal = [_setup_calibration()]
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.set_up()
            repeats.append(time.perf_counter() - started)
            setup_cal.append(_setup_calibration())
        setup_raw_s = once_s + statistics.median(repeats)
        setup_s = CALIBRATION_REF_S * (
            once_s / setup_cal[0]
            + statistics.median(map(paired_ratio, repeats, setup_cal,
                                    setup_cal[1:])))
        reference = workload.reference()
        ref_digest, ref_sims = reference
        golden = (load_goldens()[args.workload]
                  if args.seed == GOLDEN_SEED else None)
        if golden not in (None, ref_digest):
            print(f"e2ebench: reference CSV digest {ref_digest} differs "
                  f"from the golden {golden}", file=sys.stderr)
        started = time.perf_counter()
        hard_stop = started - process_age_s() + HARD_LIMIT_S
        for index in itertools.count():
            if index == RSS_SWEEPS:
                rss = (peak_rss_mb(), list(workload.worker_peak_mb))
            now = time.perf_counter()
            # Past --seconds, a run short of samples sweeps on to reach
            # them, unless a sweep already failed: the run is then
            # incorrect whatever follows, and failures are never retried.
            if now - started >= args.seconds and (
                    len(ok_seconds) >= MEAN_SAMPLES or failed
                    or now >= hard_stop):
                break
            is_traced = bool(args.trace) and index % 2 == 1
            next_traced = bool(args.trace) and index % 2 == 0
            attempted = index + 1
            calibration[index] = calibrate()
            if is_traced:
                recorder.sweep = index
                hooks.enable()
            try:
                elapsed, table = workload.sweep(
                    index, recorder if is_traced else None, next_traced)
                digest = workload.csv_digest()
                sims = sim_metrics(table)
            except Exception:  # noqa: BLE001 - a failed sweep, counted
                failed += 1
                print(f"e2ebench: sweep {index} failed:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                hooks.disable()
                if is_traced:
                    cache_counts[index] = recorder.take_cache_counts()
            if is_traced:
                traced.append(index)
                worker_files[index] = _read_worker_files(run_dir, index)
            if not oracle_ok(digest, sims, reference, golden):
                failed += 1
                print(f"e2ebench: sweep {index} failed the oracle "
                      f"(digest {digest})", file=sys.stderr)
            else:
                ok_seconds.append(elapsed)
                seconds[index] = elapsed
                rows = len(table)
        calibration[attempted] = calibrate()
    finally:
        workload.close()
        if forge is not None:
            forge.close()
    ratios = [paired_ratio(elapsed, calibration[index],
                           calibration[index + 1])
              for index, elapsed in seconds.items()]
    own_rss, worker_rss = rss or (peak_rss_mb(), workload.worker_peak_mb)
    peak_rss = own_rss + sum(worker_rss)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "samples": ok_seconds, "attempted": attempted, "failed": failed,
        "setup_once_s": once_s, "setup_repeats_s": repeats,
        "setup_raw_s": setup_raw_s, "setup_calibration_s": setup_cal,
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_s": [calibration[index]
                          for index in sorted(calibration)],
        "ratios": ratios,
        "peak_rss_mb": {"benchmark": own_rss, "worker_slots": worker_rss,
                        "benchmark_at_end": peak_rss_mb()},
        "reference_digest": ref_digest, "golden_digest": golden,
        "provenance": {
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **source_revision(),
        },
    }
    if args.trace:
        metrics, ledger = layer_metrics(recorder, traced, worker_files,
                                        cache_counts, workload, seconds)
        units = per_layer_units()
        stamp = f"{args.workload}-s{args.seed}-{os.getpid()}"
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        write_trace(traces / f"{stamp}.trace.json", recorder, worker_files,
                    traced[:TRACE_SWEEPS])
        (traces / f"{stamp}.ledger.json").write_text(
            json.dumps(dict(ledger, metrics=metrics), indent=1))
        record["traced_sweeps"] = len(traced)
    else:
        # Too few passing sweeps (failures, or sweeps so slow the hard
        # limit came first) leave the timing metrics null; the rest of
        # the record and the result line are still written.
        timed = len(ok_seconds) >= MEAN_SAMPLES
        norm = normalized_mean(ratios) if timed else None
        tail_q = highest_percentile(len(ok_seconds)) if timed else None
        record.update({
            "sweep_s.n": len(ok_seconds),
            "sweep_s.p50": (statistics.median(ok_seconds)
                            if ok_seconds else None),
            "sweep_s.norm": norm,
            "tail_percentile": tail_q,
            "sweep_s.tail": percentile(ok_seconds, tail_q) if timed else None,
        })
        metrics = {
            "sweep_s.norm": norm,
            "cells_per_s": rows / norm if timed else None,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "ok_frac": (attempted - failed) / attempted,
            **ref_sims,
        }
        record["sim"] = ref_sims
        units = END_TO_END
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record


def _setup_calibration() -> float:
    return statistics.fmean(calibrate() for _ in range(SETUP_CALIBRATIONS))


def _read_worker_files(run_dir: Path, index: int) -> list:
    files = []
    for path in sorted(run_dir.glob(f"spans-{index}-*.json")):
        files.append(json.loads(path.read_text()))
        path.unlink()
    return files


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no program sources at {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    removed = clean_environment()
    run_dir = OUT / "runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Temporary files stay inside the checkout.  The directory outlives
    # the run directory: multiprocessing removes its own temporary
    # directory there only at interpreter exit.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    try:
        record = run(args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["removed_env"] = removed
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-s{args.seed}-t{args.trace}-"
            f"{datetime.now(timezone.utc):%Y%m%dT%H%M%S}-{os.getpid()}.json")
    (results / name).write_text(json.dumps(record, indent=1))
    if not args.trace and record["sweep_s.norm"] is None:
        print(f"{args.workload} seed {args.seed}: {record['sweep_s.n']} "
              f"of {record['attempted']} sweeps passed, too few for "
              f"sweep_s.norm")
    elif not args.trace:
        print(f"{args.workload} seed {args.seed}: {record['sweep_s.n']} "
              f"sweeps, p50 {record['sweep_s.p50']:.4f} s, "
              f"p{record['tail_percentile']} {record['sweep_s.tail']:.4f} s, "
              f"normalized mean {record['sweep_s.norm']:.4f} s, set-up "
              f"{record['setup_raw_s']:.3f} s raw, "
              f"{record['result']['metrics']['setup_s']['value']:.3f} s "
              f"normalized")
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

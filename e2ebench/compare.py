"""Compare two sets of benchmark results metric by metric.

    python3 e2ebench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (by default
``e2ebench/.out/results``; copy them aside per commit).  For every
workload and end-to-end metric the command prints each side's median
and quartiles, the ratio of the medians (new / base) and a verdict
against the metric's bound in ``BENCHMARK.json``.  Sets measured on
different CPU counts are refused: a verdict across machines means
nothing.  Exit status: 0, or 1 when any metric regressed, or 2 when
the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_set(directory: Path) -> dict:
    """Untraced result records of one directory, by workload."""
    by_workload = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def cpu_counts(results: dict) -> set:
    return {record["provenance"]["nproc"]
            for records in results.values() for record in records}


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return mid, low, high


def verdict(metric: dict, base: float, new: float) -> str:
    bound = metric.get("bound", 0.0)
    if base == 0:
        return "same" if new == 0 else "changed"
    change = (new - base) / abs(base)
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "REGRESSED"
    if change < -bound:
        return "better"
    return "within bound"


def compare(base: dict, new: dict, spec: dict) -> list:
    """One row per (workload, metric) present in both sets."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for records in (base[workload], new[workload]):
                sides.append([record["result"]["metrics"][name]["value"]
                              for record in records])
            (b_mid, b_lo, b_hi), (n_mid, n_lo, n_hi) = map(summary, sides)
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric.get("bound"),
                "base": (b_mid, b_lo, b_hi), "new": (n_mid, n_lo, n_hi),
                "runs": (len(sides[0]), len(sides[1])),
                "ratio": n_mid / b_mid if b_mid else float("nan"),
                "verdict": verdict(metric, b_mid, n_mid),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load_set(args.base), load_set(args.new)
    if not base or not new:
        print("compare: each directory needs untraced result files",
              file=sys.stderr)
        return 2
    counts = (cpu_counts(base), cpu_counts(new))
    if len(counts[0] | counts[1]) != 1:
        print(f"compare: refusing to compare sets measured with "
              f"different CPU counts (base {sorted(counts[0])}, new "
              f"{sorted(counts[1])})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec)
    print(f"{'workload':11} {'metric':23} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'new/base':>8}  verdict")
    for row in rows:
        cells = ["{:.5g} [{:.5g}, {:.5g}]".format(*row[side])
                 for side in ("base", "new")]
        print(f"{row['workload']:11} {row['metric']:23} {cells[0]:>34} "
              f"{cells[1]:>34} {row['ratio']:8.4f}  {row['verdict']} "
              f"(bound {row['bound']}, runs {row['runs'][0]}/"
              f"{row['runs'][1]}, {row['unit']})")
    return 1 if any(row["verdict"] == "REGRESSED" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

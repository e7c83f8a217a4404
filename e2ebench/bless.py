"""Re-bless the committed golden CSV digests of the benchmark.

    python3 e2ebench/bless.py [--workload NAME]

For each workload this makes the serial reference sweep at the golden
seed, prints the old and the new sha256 of its CSV, and writes the new
digest to ``e2ebench/goldens.json``.  Bless only when the program's
output is meant to change, and say why where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=("grid-warm", "drive-seq", "kitti-dist"))
    args = parser.parse_args(argv)
    run.clean_environment()
    sys.path.insert(0, str(run.SRC))
    from workloads import GOLDEN_SEED, GOLDENS, SPECS, reference_sweep

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    for name in args.workload or sorted(SPECS):
        with tempfile.TemporaryDirectory() as out_dir:
            digest, _ = reference_sweep(SPECS[name](GOLDEN_SEED),
                                        Path(out_dir))
        print(f"{name}: old {goldens.get(name)}")
        print(f"{name}: new {digest}")
        goldens[name] = digest
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

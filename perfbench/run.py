"""stiffgeo benchmark: three seeded workloads, end to end or per layer.

    python3 perfbench/run.py --workload transport-mix --seed 1 --seconds 25 --trace 0

Builds nothing for the end-to-end runs: stiffgeo is imported from src/ of the
checkout this file sits in.  See bench.py for the runs and README.md in this
directory for the workloads and metrics.  Exits 2 without a result when the
directory is not a stiffgeo checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "stiffgeo" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"error: {ROOT} is not a stiffgeo checkout "
                         "(src/stiffgeo or BENCHMARK.json missing)\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    sys.exit(bench.main())

"""Regenerate reference/figures.json.gz, the stored output of the eight figure recipes.

Run from the repository root, on a commit whose figure output is trusted:

    python3 perfbench/make_reference.py

The file maps each recipe to its CSV files, and each file to its two header
lines and its tau and value columns. The ``figures`` workload compares
every run against it at criterion 06's tolerance, not byte for byte.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import gzip  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rydcorr.cli  # noqa: E402

from workloads import FIGURE_REFERENCE, read_series_csv  # noqa: E402


def main():
    tmp_root = ROOT / ".bench_build" / "perfbench" / "reference"
    reference = {}
    for figure in rydcorr.cli.FIGURES:
        out = tmp_root / figure
        code = rydcorr.cli.main(["figure", figure, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{figure} exited with {code}")
        reference[figure] = {}
        for path in sorted(out.glob("*.csv")):
            header, rows = read_series_csv(path)
            reference[figure][path.name] = [header, rows[:, 0].tolist(), rows[:, 1].tolist()]
    shutil.rmtree(tmp_root)
    FIGURE_REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(FIGURE_REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode())
    print(f"wrote {FIGURE_REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Golden-results check: the fast figure tables must regenerate byte for byte.

Runs each figure harness at --jobs=4 into a temporary directory and
compares the CSV it writes (plus any image listed in EXTRA_FILES) with
the checked-in copy under results/. Any difference (or a harness
failure) is a test failure, with a unified diff of the first differing
lines of a CSV. fig12_throughput also matches but takes about 35 s, so
it is left out of this check; CI byte-compares it in its own
golden-fig12 step.

    golden_results.py <bench-binary-dir> <results-dir>
"""

import difflib
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURES = (
    "fig09_latency_breakdown",
    "fig10_compression",
    "fig11_flit_reduction",
    "fig13_error_threshold",
    "fig14_approx_ratio",
    "fig15_power",
    "ablation_codec",
    "ablation_flit_width",
    "ablation_pmt_size",
    "area_overhead",
    "closed_loop_latency",
    "fig16_app_output",
    "fig17_bodytrack",
)
# Binary artifacts a harness writes next to its CSV.
EXTRA_FILES = {
    "fig17_bodytrack": ("fig17_precise.pgm", "fig17_approx.pgm"),
}
MAX_DIFF_LINES = 20


def check(bench_dir, results_dir, out_dir, name):
    exe = bench_dir / name
    proc = subprocess.run([str(exe), "--jobs=4", f"--csv-dir={out_dir}"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return [f"{name}: exit {proc.returncode}\n{proc.stderr}"]
    failures = []
    got = (out_dir / f"{name}.csv").read_bytes()
    want = (results_dir / f"{name}.csv").read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(), got.decode().splitlines(),
            fromfile=f"results/{name}.csv", tofile="regenerated",
            lineterm="")
        failures.append(f"{name}: differs from results/\n" +
                        "\n".join(list(diff)[:MAX_DIFF_LINES]))
    for extra in EXTRA_FILES.get(name, ()):
        got = (out_dir / extra).read_bytes()
        want = (results_dir / extra).read_bytes()
        if got != want:
            failures.append(f"{name}: results/{extra} differs "
                            f"({len(want)} B checked in, {len(got)} B "
                            f"regenerated)")
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench_dir, results_dir = Path(sys.argv[1]), Path(sys.argv[2])
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIGURES:
            failures += check(bench_dir, results_dir, Path(tmp), name)
    for f in failures:
        print(f, file=sys.stderr)
    if not failures:
        print(f"golden: {len(FIGURES)} tables match results/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

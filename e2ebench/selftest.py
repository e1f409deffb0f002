#!/usr/bin/env python3
"""Self-test of the benchmark, on short job sizes (about a minute).

For every workload it checks that

  * a short untraced run emits every end-to-end metric BENCHMARK.json
    names, with its unit, and a short traced run every per-layer one;
  * the output check passes against outputs recorded by a first run,
    for a second seed (which permutes the grid's point order and maps
    to the same mesh traffic);
  * the output check fails, with a nonzero exit, once one expected
    value is altered.

    python3 e2ebench/selftest.py

Expected values for the short sizes are recorded afresh under the
build directory; the stored full-size ones in expected/ are untouched.
"""

import contextlib
import io
import json
import shutil
import sys

import run

SEED, CHECK_SEED = 0, 8  # 8 % 8 == 0: the same mesh traffic variant


def bench(workload, seed, trace, expected, *extra):
    """Run run.main in-process; return (exit code, result line)."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--short", "--expected", str(expected),
            *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def alter(expected, workload):
    """Nudge one expected number; return a description of the change."""
    path = expected / f"{workload}.short.json"
    exp = json.loads(path.read_text())
    table = exp["rows"] if workload == "paper_grid" else exp["variants"]
    row = table[sorted(table)[0]]
    key = "total_lat"
    row[key] += 1e-9 * max(1.0, abs(row[key]))
    path.write_text(json.dumps(exp))
    return f"{sorted(table)[0]}.{key}"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        sys.exit(f"BENCHMARK.json workloads {names} != {run.WORKLOADS}")

    expected = run.build_dir() / "selftest-expected"
    shutil.rmtree(expected, ignore_errors=True)
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    for w in names:
        code, _ = bench(w, SEED, 0, expected, "--write-expected")
        expect(code == 0, f"{w}: record short expected outputs")
        for trace in (0, 1):
            code, res = bench(w, CHECK_SEED, trace, expected)
            expect(code == 0 and res and res["correct"] and not res["failed"],
                   f"{w} trace {trace}: outputs match at seed {CHECK_SEED}")
            got = {k: v["unit"] for k, v in (res or {}).get("metrics",
                                                           {}).items()}
            expect(got == want[trace],
                   f"{w} trace {trace}: metrics and units as BENCHMARK.json")
        changed = alter(expected, w)
        code, res = bench(w, CHECK_SEED, 0, expected)
        expect(code != 0 and res and not res["correct"] and res["failed"] > 0,
               f"{w}: altered expected {changed} is caught")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

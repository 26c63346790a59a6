#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that a short
run verifies all outputs and exits 0, and that the same run with
--plant-fault (one expected image corrupted) reports correct=false, a
nonzero failed count, and exits nonzero. It also checks that the benchmark
refuses to run, without printing a result, from a directory that holds
only BENCHMARK.json and perfbench/, and that every result carries exactly
the metrics BENCHMARK.json names, with the units it names.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream_hetero", "stream_homo", "broker_open", "format_churn")


def run(args, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--seed", "7", "--seconds", "1"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(r):
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            r = run(["--workload", w, "--trace", trace])
            res = result(r)
            if r.returncode != 0 or res is None or not res["correct"] or res["failed"] != 0:
                failures.append(f"{w} trace={trace}: clean run failed (rc={r.returncode})")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{w} trace={trace}: metrics/units differ from BENCHMARK.json")
        r = run(["--workload", w, "--trace", "0", "--plant-fault"])
        res = result(r)
        if r.returncode == 0 or res is None or res["correct"] or res["failed"] == 0:
            failures.append(f"{w}: planted fault not detected (rc={r.returncode})")
        print(f"{w}: checked", flush=True)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run(["--workload", "stream_homo", "--trace", "0"], cwd=bare)
        if r.returncode == 0 or r.stdout.strip():
            failures.append("bare directory: expected a nonzero exit and no result")

    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

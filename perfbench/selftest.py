"""Self-test of the benchmark at tiny sizes (about two minutes on 2 cores).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py once untraced and
twice traced at --scale tiny, and checks that
  - each run is correct with no failed command,
  - the metrics are exactly the BENCHMARK.json lists, each a finite number
    carrying its declared unit,
  - every per-layer count repeats exactly across the two traced runs,
  - the scalar SL(3) fallback fires on compress_cms and not on
    stretch_roundtrip.
It also checks that run.py exits nonzero without a result in a directory
holding only BENCHMARK.json and the benchmark's files.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=180)


def check_metrics(errors, label, result, spec):
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{label}: not correct: {result}")
        return
    got = result["metrics"]
    if set(got) != {m["name"] for m in spec}:
        errors.append(f"{label}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ {m['name'] for m in spec})}")
    for m in spec:
        rec = got.get(m["name"])
        if rec is None:
            continue
        v = rec.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{label}: {m['name']} = {v!r}")
        if rec.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {rec.get('unit')!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = []
    for w in (w["name"] for w in bench["workloads"]):
        results = {}
        for label, trace in (("untraced", 0), ("traced 1", 1), ("traced 2", 1)):
            proc = run(ROOT, w, trace)
            if proc.returncode != 0:
                errors.append(f"{w} {label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            results[label] = json.loads(proc.stdout.strip().splitlines()[-1])
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(errors, f"{w} {label}", results[label], spec)
        if "traced 1" not in results or "traced 2" not in results:
            continue
        a, b = results["traced 1"]["metrics"], results["traced 2"]["metrics"]
        for m in bench["per_layer"]:
            if m["unit"] == "count" and m["name"] in a and \
                    a[m["name"]]["value"] != b.get(m["name"], {}).get("value"):
                errors.append(f"{w}: count {m['name']} did not repeat: "
                              f"{a[m['name']]['value']} vs {b[m['name']]['value']}")
        frac = a.get("material.scalar_fallback_frac", {}).get("value")
        if frac is not None and (frac > 0) != (w == "compress_cms"):
            errors.append(f"{w}: scalar_fallback_frac {frac}")

    # without the program's sources the benchmark must refuse to run
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, "
                      f"stdout {proc.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

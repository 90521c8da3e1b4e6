"""One benchmark pass in a fresh process: the workload's CLI commands in order.

    python3 perfbench/one_pass.py --workload W --seed N --trace 0|1 \
        --scale full|tiny --dir PASS_DIR

Run from the repository root; imports volknit from ./src.  Writes
pass.json (monotonic timestamps of every command, exit codes, peak RSS,
library versions) and, when tracing, spans.json into PASS_DIR.  The
parent times the process itself and checks the outputs.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import volknit  # noqa: E402
from volknit import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def libraries():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    configs, steps = workloads.plan(args.workload, args.seed, args.scale)
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    for name, cfg in configs.items():
        with open(f"{name}.json", "w") as fh:
            json.dump(cfg, fh, indent=1)

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install(volknit)

    commands = []
    for cmd, cfg_name, out in steps:
        t0 = time.monotonic()
        try:
            rc = cli.main([cmd, "--config", f"{cfg_name}.json", "--out", out])
        except Exception:
            # an uncaught error is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = -1
        commands.append({"command": cmd, "rc": rc,
                         "start": t0, "end": time.monotonic()})
        if rc != 0:
            break

    if tr is not None:
        tr.dump("spans.json")
    with open("pass.json", "w") as fh:
        json.dump({"commands": commands,
                   "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "libraries": libraries()}, fh, indent=1)


if __name__ == "__main__":
    main()

"""volknit benchmark: the CLI round trip, timed end to end and traced by layer.

    python3 perfbench/run.py --workload stretch_roundtrip --seed 1 \
        --seconds 55 --trace 0

Run from the repository root.  Each pass is a fresh process
(perfbench/one_pass.py) that runs the workload's CLI commands in order,
one at a time.  This process times each pass from outside, checks its
outputs, and prints one JSON line last:

  --trace 0  untraced passes until --seconds is spent (at least three); the
             end-to-end metrics are medians over passes, step percentiles
             pool the steps of every pass.
  --trace 1  one untraced and one traced pass; the per-layer metrics come
             from the traced pass's spans, and both passes must produce
             bit-identical results.

Pass workspaces, logs, spans and the full result go to
.perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 170.0         # a run must end within 180 s
MIN_PASSES = 3
# one process with one BLAS thread: the load stays within nproc and a
# shared host's other tenants perturb it less
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MASS_RTOL = 1e-10

END_TO_END = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("simulate_s", "s"),
    ("sim_step_ms.p50", "ms"),
    ("sim_step_ms.p75", "ms"),
    ("total_s", "s"),
    ("relative_rms", "1"),
    ("fit_loss", "1"),
    ("peak_rss_mb", "MB"),
]


def layer_metrics():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for module, path, _ in tracing.TARGETS:
        name = tracing.span_name(module, path)
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        if name in tracing.PARENTS:
            out.append((f"{name}.self_s", "s"))
    out += [
        ("material.batch_projections.elements", "count"),
        ("material.projection_jacobians_batch.elements", "count"),
        ("material.us_per_elem", "us"),
        ("material.scalar_fallback_frac", "1"),
        ("pdsolver.GlobalSolver.solve.direct.calls", "count"),
        ("pdsolver.GlobalSolver.solve.direct.s", "s"),
        ("pdsolver.GlobalSolver.solve.cms.calls", "count"),
        ("pdsolver.GlobalSolver.solve.cms.s", "s"),
        ("pdsolver.newton_polish.iters", "count"),
        ("fitting.adjoint_gauss_newton.rejected", "count"),
        ("cli.frame_write_ms.p50", "ms"),
        ("trace.overhead_ratio", "1"),
        ("trace.untraced_total_s", "s"),
        ("trace.traced_total_s", "s"),
    ]
    return out


# ---------------------------------------------------------------------------
# passes


def run_pass(args, trace, pass_dir, deadline):
    """Run one pass process; returns its spawn and exit times and pass.json."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--scale", args.scale, "--dir", pass_dir]
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    with open(pass_dir + ".log", "w") as log:
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                           stderr=subprocess.STDOUT,
                           timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            print(f"pass {pass_dir} killed at the run deadline",
                  file=sys.stderr)
    t1 = time.monotonic()
    info = None
    if os.path.exists(os.path.join(pass_dir, "pass.json")):
        with open(os.path.join(pass_dir, "pass.json")) as fh:
            info = json.load(fh)
    return {"dir": pass_dir, "spawn": t0, "exit": t1, "info": info}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_timings(path):
    """stage -> milliseconds rows of the timings.csv that simulate writes."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("stage,"):
                continue
            stage, ms = line.strip().split(",")
            rows.append((stage, float(ms)))
    return rows


def obj_vertices_finite(path):
    n = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                if not all(math.isfinite(float(t)) for t in line.split()[1:4]):
                    return False
                n += 1
    return n > 0


def check_pass(p, workload, steps_planned, n_steps):
    """Per-command failure reasons of one pass (empty list = ok)."""
    fails = {i: [] for i in range(len(steps_planned))}
    cmds = p["info"]["commands"] if p["info"] else []
    for i, (cmd, _, out) in enumerate(steps_planned):
        if i >= len(cmds):
            fails[i].append("not run")
            continue
        if cmds[i]["rc"] != 0:
            fails[i].append(f"exit {cmds[i]['rc']}")
            continue
        ws = os.path.join(p["dir"], out)
        try:
            if cmd == "voxelize":
                r = read_json(os.path.join(ws, "mesh_report.json"))
                if abs(r["node_mass"] - r["yarn_mass"]) > MASS_RTOL * r["yarn_mass"]:
                    fails[i].append("mesh mass differs from yarn mass")
            elif cmd == "fit":
                r = read_json(os.path.join(ws, "fit_report.json"))
                if r["gate_violations"] != 0:
                    fails[i].append(f"{r['gate_violations']} gate violations")
            elif cmd == "simulate":
                frames = os.path.join(ws, "frames")
                for k in range(n_steps):
                    for kind in ("mesh", "yarn"):
                        f = os.path.join(frames, f"{kind}_{k:04d}.obj")
                        if not obj_vertices_finite(f):
                            fails[i].append(f"non-finite or empty {f}")
                steps = [s for s, _ in read_timings(os.path.join(ws, "timings.csv"))
                         if s.startswith("step_")]
                if len(steps) != n_steps:
                    fails[i].append(f"{len(steps)} step timings")
            elif cmd == "compare":
                rel = read_json(os.path.join(ws, "compare_report.json"))["relative_rms"]
                bound = workloads.WORKLOADS[workload]["max_relative_rms"]
                if not math.isfinite(rel) or (bound is not None and rel > bound):
                    fails[i].append(f"relative_rms {rel}")
        except (OSError, ValueError, KeyError) as exc:
            fails[i].append(f"unreadable output: {exc}")
    return fails


def result_fingerprint(p, n_steps):
    """command -> the output bytes that must repeat exactly."""
    def raw(*parts):
        with open(os.path.join(p["dir"], *parts), "rb") as fh:
            return fh.read()

    last = n_steps - 1
    return {
        "fit": raw("train", "material.csv"),
        "simulate": (raw("held", "frames", f"mesh_{last:04d}.obj"),
                     raw("held", "frames", f"yarn_{last:04d}.obj")),
        "compare": raw("held", "compare_report.json"),
    }


# ---------------------------------------------------------------------------
# metrics


def pct(values, q):
    """Percentile q (50 or 75) by the inclusive quartile rule."""
    quart = statistics.quantiles(values, n=4, method="inclusive")
    return {50: quart[1], 75: quart[2]}[q]


def command_span(p, name):
    for c in p["info"]["commands"]:
        if c["command"] == name:
            return c
    raise KeyError(name)


def pass_times(p):
    fit, sim = command_span(p, "fit"), command_span(p, "simulate")
    return {"setup_s": min(fit["start"], sim["start"]) - p["spawn"],
            "fit_s": fit["end"] - fit["start"],
            "simulate_s": sim["end"] - sim["start"],
            "total_s": p["exit"] - p["spawn"],
            "peak_rss_mb": p["info"]["max_rss_kb"] / 1024.0}


def end_to_end(passes):
    per = [pass_times(p) for p in passes]
    out = {k: statistics.median(t[k] for t in per) for k in per[0]}
    steps = []
    for p in passes:
        steps += [ms for s, ms in read_timings(os.path.join(p["dir"], "held", "timings.csv"))
                  if s.startswith("step_")]
    out["sim_step_ms.p50"] = pct(steps, 50)
    out["sim_step_ms.p75"] = pct(steps, 75)
    d = passes[0]["dir"]
    out["relative_rms"] = read_json(os.path.join(d, "held", "compare_report.json"))["relative_rms"]
    out["fit_loss"] = read_json(os.path.join(d, "train", "fit_report.json"))["final_loss"]
    return out, len(steps)


def per_layer(untraced, traced):
    with open(os.path.join(traced["dir"], "spans.json")) as fh:
        summary = tracing.summarize(json.load(fh))
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for module, path, _ in tracing.TARGETS:
        name = tracing.span_name(module, path)
        rec = summary.get(name, zero)
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.s"] = rec["s"]
        if name in tracing.PARENTS:
            out[f"{name}.self_s"] = rec["self_s"]
    bp = summary.get("material.batch_projections", {})
    pj = summary.get("material.projection_jacobians_batch", {})
    n_bp, n_pj = bp.get("elements", 0), pj.get("elements", 0)
    out["material.batch_projections.elements"] = n_bp
    out["material.projection_jacobians_batch.elements"] = n_pj
    out["material.us_per_elem"] = 1e6 * bp["s"] / n_bp if n_bp else 0.0
    scalar = summary.get("material.sl3_sigma_project", zero)["calls"]
    out["material.scalar_fallback_frac"] = scalar / (n_bp + n_pj) if n_bp + n_pj else 0.0
    solve = summary.get("pdsolver.GlobalSolver.solve", {})
    for mode in ("direct", "cms"):
        rec = solve.get(mode, {"calls": 0, "s": 0.0})
        out[f"pdsolver.GlobalSolver.solve.{mode}.calls"] = rec["calls"]
        out[f"pdsolver.GlobalSolver.solve.{mode}.s"] = rec["s"]
    out["pdsolver.newton_polish.iters"] = summary.get("pdsolver.newton_polish", {}).get("iters", 0)
    out["fitting.adjoint_gauss_newton.rejected"] = \
        summary.get("fitting.adjoint_gauss_newton", {}).get("rejected", 0)
    writes = [ms for s, ms in read_timings(os.path.join(untraced["dir"], "held", "timings.csv"))
              if s.startswith("write_")]
    out["cli.frame_write_ms.p50"] = pct(writes, 50)
    base = untraced["exit"] - untraced["spawn"]
    with_trace = traced["exit"] - traced["spawn"]
    out["trace.overhead_ratio"] = with_trace / base
    out["trace.untraced_total_s"] = base
    out["trace.traced_total_s"] = with_trace
    return out


# ---------------------------------------------------------------------------
# provenance


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def src_identity():
    """(line count, sha256) over the .py files under src/."""
    digest = hashlib.sha256()
    lines = 0
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + data)
                lines += data.count(b"\n")
    return lines, digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, passes):
    lines, sha = src_identity()
    libs = next((p["info"]["libraries"] for p in passes if p["info"]), {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "passes": len(passes),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": sys.version.split()[0],
        **libs, "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(), "src_lines": lines, "src_sha256": sha,
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                    help="problem size; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.exists(os.path.join(ROOT, "src", "volknit", "cli.py")):
        print(f"error: no volknit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    _, steps_planned = workloads.plan(args.workload, args.seed, args.scale)
    n_steps = workloads.SCALES[args.scale]["steps"]

    order = [cmd for cmd, _, _ in steps_planned]
    passes, failures = [], []
    attempted = failed = 0
    reference = None
    wanted = 2 if args.trace else MIN_PASSES
    while not failures:
        if passes:
            durations = [p["exit"] - p["spawn"] for p in passes]
            now = time.monotonic()
            if len(passes) >= wanted and (args.trace or now - t_begin
                                          + statistics.median(durations) > args.seconds):
                break
            if now + 1.2 * max(durations) > deadline:
                if len(passes) < wanted:
                    failures.append("run deadline reached before all passes")
                break
        kind = len(passes) if args.trace else 0     # traced second
        p = run_pass(args, kind, os.path.join(work, f"p{len(passes)}"), deadline)
        passes.append(p)
        fails = check_pass(p, args.workload, steps_planned, n_steps)
        if not any(fails.values()):
            prints = result_fingerprint(p, n_steps)
            reference = reference or prints
            for cmd, value in prints.items():
                if value != reference[cmd]:
                    fails[order.index(cmd)].append(
                        "differs from the first pass" + (" (traced)" if kind else ""))
        attempted += len(fails)
        failed += sum(1 for v in fails.values() if v)
        failures += [f"p{len(passes) - 1} {order[i]}: {'; '.join(v)}"
                     for i, v in fails.items() if v]

    correct = not failures
    metrics, detail = {}, {}
    if correct:
        if args.trace:
            values = per_layer(passes[0], passes[1])
            units = dict(layer_metrics())
        else:
            values, detail["step_samples"] = end_to_end(passes)
            units = dict(END_TO_END)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    prov = provenance(args, passes)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "detail": detail, "failures": failures,
                   "result": result}, fh, indent=1)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps({"provenance": prov, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

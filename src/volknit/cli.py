"""Batch pipeline front-end: generate yarn poses, build the volume mesh,
fit materials, run the forward solver, compare trajectories.

All commands operate on a workspace directory given with --out:

    config.resolved.json            merged config and its hash
    sequence/                       ground-truth yarn frames     (generate)
    mesh.node/.ele/.json            tetrahedral mesh             (voxelize)
    material.csv, convergence.csv, fit_report.json               (fit)
    fit_state.json                  checkpoint for --resume      (fit)
    frames/, sim_yarn/, timings.csv, sim_report.json             (simulate)
    compare_report.json                                          (compare)

Exit codes: 0 ok, 2 usage/config error, 3 numerical failure.  Every
artifact carries the config hash so a result can be traced to the exact
configuration that produced it.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import fitting, material as mat, pdsolver, transfer, volmesh, yarn_model

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULTS = {
    "seed": 0,
    "paths": {
        "yarn_file": None,          # external rest yarn; None builds from cfg
        "sequence": None,           # defaults to <out>/sequence
        "mesh": None,               # defaults to <out>/mesh
        "material": None,           # defaults to <out>/material.csv
        "sim": None,                # compare: defaults to <out>/sim_yarn
        "ref": None,                # compare: defaults to <out>/sequence
    },
    "yarn": {
        "kind": "rib",              # rib | strand
        "courses": 10,
        "wales": 40,
        "course_spacing": 0.01,
        "wale_spacing": 0.01,
        "amplitude": 0.004,
        "rib_period": 4,
        "strand_vertices": 40,
        "strand_length": 1.0,
        "linear_density": 0.002,
        "radius": None,
        "jitter": 0.0,              # seeded rest-position perturbation
    },
    "generate": {
        "scenario": "stretch",      # stretch | twist | hold | drape
        "steps": 40,
        "dt": 1e-3,
        "stretch": 0.1,             # fraction of the rest x extent
        "twist_angle": 1.5707963267948966,
        "gravity": [0.0, 0.0, 0.0],
        "rod": {
            "stretch_stiffness": 500.0,
            "bend_stiffness": 0.5,
            "contact_stiffness": 200.0,
            "damping": 0.995,
            "pd_iters": 24,
            "contacts": True,
        },
        "colliders": [],
    },
    "mesh": {
        "cell_size": None,          # None picks a size from the yarn spacing
    },
    "fit": {
        "samples": None,            # explicit frame indices; None = stride
        "sample_stride": 1,
        "ranks": [1, 10, 30, None],
        "gd_iters": 12,
        "gn_iters": 30,
        "dt": None,                 # load-term step; None = sequence dt
        "alpha": 0.1,
        "gamma_init": [1.0, 1.0],
        "use_inertia": True,
        "loss_ceiling": None,       # exit 0 requires final loss <= ceiling
        "resume": False,            # continue from fit_state.json if present
        "max_samples": None,        # per-invocation cap on sequence samples
    },
    "simulate": {
        "scenario": "hold",         # hold | stretch | twist
        "steps": 20,
        "dt": 1e-2,
        "pd_iters": 30,
        "stretch": 0.15,
        "twist_angle": 1.5707963267948966,
        "gravity": [0.0, 0.0, 0.0],
        "solver": "direct",         # direct | cms
        "domains": 2,
        "modes_per_domain": 20,
        "refine_sweeps": 30,
        "aggregation": 2,
        "chebyshev": False,
        "damping": 1.0,
        "polish_tol": None,
        "colliders": [],
    },
    "compare": {
        "frames": None,             # explicit frame indices; None = overlap
    },
}


class ConfigError(ValueError):
    """Configuration problems that map to the usage exit code."""


# ---------------------------------------------------------------------------
# config handling


def _merge(base, override, path=""):
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _merge(base[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def load_config(path=None):
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    return cfg


def validate_config(cfg):
    for section in ("generate", "fit", "simulate"):
        dt = cfg[section]["dt"]
        if dt is None and section == "fit":
            dt = 1.0                # resolved to the sequence dt at run time
        if dt <= 0.0:
            raise ConfigError(f"{section}.dt must be positive")
        if cfg[section].get("steps", 1) < 1:
            raise ConfigError(f"{section}.steps must be at least 1")
    if cfg["mesh"]["cell_size"] is not None and cfg["mesh"]["cell_size"] <= 0.0:
        raise ConfigError("mesh.cell_size must be positive")
    if cfg["fit"]["alpha"] < 0.0:
        raise ConfigError("fit.alpha must be non-negative")
    ceiling = cfg["fit"]["loss_ceiling"]
    if ceiling is not None and ceiling <= 0.0:
        raise ConfigError("fit.loss_ceiling must be positive")
    if cfg["fit"]["sample_stride"] < 1:
        raise ConfigError("fit.sample_stride must be at least 1")
    cap = cfg["fit"]["max_samples"]
    if cap is not None and cap < 1:
        raise ConfigError("fit.max_samples must be at least 1")
    tol = cfg["simulate"]["polish_tol"]
    if tol is not None and tol <= 0.0:
        raise ConfigError("simulate.polish_tol must be positive")
    if any(g < 0 for g in cfg["fit"]["gamma_init"]):
        raise ConfigError("fit.gamma_init entries must be non-negative")


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _workspace(cfg, out):
    p = cfg["paths"]
    return dict(
        sequence=p["sequence"] or os.path.join(out, "sequence"),
        mesh=p["mesh"] or os.path.join(out, "mesh"),
        material=p["material"] or os.path.join(out, "material.csv"),
        sim=p["sim"] or os.path.join(out, "sim_yarn"),
        ref=p["ref"] or os.path.join(out, "sequence"),
    )


# ---------------------------------------------------------------------------
# artifact helpers


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, header, rows, chash):
    with open(path, "w") as fh:
        fh.write(f"# config {chash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_material(path, field, chash):
    rows = [(e, field.gamma_s[e], field.gamma_v[e]) for e in range(len(field))]
    write_csv(path, ["element", "gamma_s", "gamma_v"], rows, chash)


def read_material(path):
    gs, gv = [], []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("element"):
                    continue
                _, a, b = line.split(",")
                gs.append(float(a))
                gv.append(float(b))
    except OSError as exc:
        raise ConfigError(f"cannot read material file {path}: {exc}") from exc
    if not gs:
        raise ConfigError(f"material file {path} holds no rows")
    return mat.MaterialField(np.array(gs), np.array(gv))


def _write_report(path, payload, chash):
    payload = dict(payload)
    payload["config_hash"] = chash
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_colliders(items):
    out = []
    for c in items:
        kind = c.get("kind")
        if kind == "plane":
            out.append(("plane", np.asarray(c["point"], float),
                        np.asarray(c["normal"], float)))
        elif kind == "sphere":
            out.append(("sphere", np.asarray(c["center"], float),
                        float(c["radius"])))
        else:
            raise ConfigError(f"unknown collider kind {kind!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# scenario plumbing shared by generate and simulate


def build_yarn(cfg, rng):
    y = cfg["yarn"]
    if cfg["paths"]["yarn_file"]:
        path = cfg["paths"]["yarn_file"]
        try:
            model = yarn_model.read_yarn(path, linear_density=y["linear_density"],
                                         radius=y["radius"])
        except OSError as exc:
            raise ConfigError(f"cannot read yarn file {path}: {exc}") from exc
    elif y["kind"] == "rib":
        model = yarn_model.rib_patch(
            courses=y["courses"], wales=y["wales"],
            course_spacing=y["course_spacing"], wale_spacing=y["wale_spacing"],
            amplitude=y["amplitude"], rib_period=y["rib_period"],
            linear_density=y["linear_density"], radius=y["radius"])
    elif y["kind"] == "strand":
        model = yarn_model.straight_strand(
            y["strand_vertices"], length=y["strand_length"],
            linear_density=y["linear_density"], radius=y["radius"])
    else:
        raise ConfigError(f"unknown yarn kind {y['kind']!r}")
    if y["jitter"] > 0.0:
        pts = model.rest_vertices + y["jitter"] * rng.standard_normal(
            model.rest_vertices.shape)
        model = yarn_model.YarnModel(pts, model.polylines,
                                     y["linear_density"], y["radius"])
    yarn_model.compute_segment_normals(model)
    return model


def _end_groups(points):
    """Vertex indices at the min-x and max-x extremes."""
    x = points[:, 0]
    ext = x.max() - x.min()
    eps = max(1e-12, 1e-6 * ext)
    left = np.flatnonzero(x <= x.min() + eps)
    right = np.flatnonzero(x >= x.max() - eps)
    return left, right, ext


def _x_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def scenario_pin_path(points, scenario, steps, stretch, twist_angle):
    """Pinned vertices plus their per-step target path for one scenario.

    The left extreme stays put; the right extreme translates (stretch) or
    rotates about the x axis through its centroid (twist).
    """
    left, right, ext = _end_groups(points)
    pins = np.concatenate([left, right])
    path = np.repeat(points[pins][None], steps, axis=0)
    s = (np.arange(steps) + 1.0) / steps
    if scenario == "stretch":
        path[:, len(left):, 0] += s[:, None] * stretch * ext
    elif scenario == "twist":
        center = points[right].mean(axis=0)
        for i in range(steps):
            R = _x_rotation(s[i] * twist_angle)
            path[i, len(left):] = (points[right] - center) @ R.T + center
    elif scenario == "hold":
        pass
    else:
        raise ConfigError(f"unknown scenario {scenario!r}")
    return pins, path


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg, out, chash):
    rng = np.random.default_rng(cfg["seed"])
    model = build_yarn(cfg, rng)
    gen = cfg["generate"]
    params = yarn_model.RodParams(**gen["rod"])
    colliders = parse_colliders(gen["colliders"])
    gravity = np.asarray(gen["gravity"], dtype=float)
    forces = model.vertex_mass()[:, None] * gravity

    if gen["scenario"] == "drape":
        left, _, _ = _end_groups(model.rest_vertices)
        pins, path = left, None
    else:
        pins, path = scenario_pin_path(model.rest_vertices, gen["scenario"],
                                       gen["steps"], gen["stretch"],
                                       gen["twist_angle"])

    ws = _workspace(cfg, out)
    comment = f"config {chash}"
    try:
        seq = yarn_model.simulate_yarn(
            model, gen["steps"], gen["dt"], forces=forces, pins=pins,
            pin_targets=path, params=params, colliders=colliders)
    except RuntimeError as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None and partial.n_frames:
            yarn_model.write_sequence(model, partial, ws["sequence"],
                                      comment=comment)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    yarn_model.write_sequence(model, seq, ws["sequence"], comment=comment)
    spans = seq.frames[:, :, 0].max(axis=1) - seq.frames[:, :, 0].min(axis=1)
    _write_report(os.path.join(out, "generate_report.json"), dict(
        scenario=gen["scenario"], frames=int(seq.n_frames),
        n_vertices=int(model.n_vertices), dt=gen["dt"],
        x_extent=[float(v) for v in spans],
    ), chash)
    return EXIT_OK


def cmd_voxelize(cfg, out, chash):
    ws = _workspace(cfg, out)
    model, _ = yarn_model.read_sequence(ws["sequence"])
    cell = cfg["mesh"]["cell_size"]
    if cell is None:
        cell = volmesh.auto_cell_size(model)
    mesh = volmesh.voxelize(model, cell)
    emb = volmesh.embed_yarn(mesh, model)
    volmesh.lump_mass(mesh, model, emb)
    volmesh.write_mesh(mesh, ws["mesh"], comment=f"config {chash}")
    yarn_mass = float(np.sum(model.vertex_mass()))
    _write_report(os.path.join(out, "mesh_report.json"), dict(
        cell_size=float(cell), n_nodes=int(mesh.n_nodes),
        n_elements=int(mesh.n_elements),
        node_mass=float(np.sum(mesh.node_mass)), yarn_mass=yarn_mass,
    ), chash)
    return EXIT_OK


def _load_stage(cfg, out):
    """Sequence, mesh, and embedding shared by fit and simulate."""
    ws = _workspace(cfg, out)
    model, seq = yarn_model.read_sequence(ws["sequence"])
    yarn_model.compute_segment_normals(model)
    mesh = volmesh.read_mesh(ws["mesh"])
    emb = volmesh.embed_yarn(mesh, model)
    if mesh.node_mass is None:
        volmesh.lump_mass(mesh, model, emb)
    return ws, model, seq, mesh, emb


def _load_fit_state(path, indices, n_elements):
    """Read a fit checkpoint and reject structural mismatches."""
    with open(path) as fh:
        ck = json.load(fh)
    if ck.get("indices") != list(indices) or ck.get("n_elements") != n_elements:
        raise ConfigError("fit_state.json does not match this mesh/sample set")
    return ck


def cmd_fit(cfg, out, chash):
    t0 = time.perf_counter()
    ws, model, seq, mesh, emb = _load_stage(cfg, out)
    fc = cfg["fit"]
    if fc["samples"] is None:
        indices = list(range(0, seq.n_frames, fc["sample_stride"]))
    else:
        indices = [int(i) for i in fc["samples"]]
    if not indices:
        raise ConfigError("fit.samples selects no frames")
    bad = [i for i in indices if i < 0 or i >= seq.n_frames]
    if bad:
        raise ConfigError(
            f"fit.samples out of range {bad} for {seq.n_frames} frames")

    op = transfer.Y2VOperator(mesh, emb, model, alpha=fc["alpha"])
    dt_inertia = seq.dt if fc["use_inertia"] else None
    samples = [
        fitting.build_sample(op, seq.frames, i, dt=dt_inertia,
                             yarn_pins=seq.pins,
                             yarn_force=seq.force(i) if fc["use_inertia"] else None)
        for i in indices
    ]
    fit_dt = seq.dt if fc["dt"] is None else fc["dt"]
    problem = fitting.FitProblem(mesh, emb, dt=fit_dt, alpha=fc["alpha"])
    nE = mesh.n_elements
    state_path = os.path.join(out, "fit_state.json")
    logger = fitting.FitLogger()

    ck = None
    if fc["resume"] and os.path.exists(state_path):
        ck = _load_fit_state(state_path, indices, nE)
    if ck is None:
        gs0, gv0 = fc["gamma_init"]
        gamma0 = np.concatenate([np.full(nE, float(gs0)),
                                 np.full(nE, float(gv0))])
        x0, _, _ = problem.solve_equilibrium(
            mat.MaterialField.from_stacked(gamma0), samples[0])
        initial_loss = problem.loss(x0, samples[0])
        res0, stages = fitting.fit_staged(
            problem, samples[0], gamma0, ranks=tuple(fc["ranks"]),
            logger=logger, gd_iters=fc["gd_iters"], gn_iters=fc["gn_iters"])
        ck = dict(indices=indices, n_elements=nE, initial_loss=initial_loss,
                  stages=stages, done=0, w=0.0, gamma=res0.gamma.tolist(),
                  per_sample=[], rows=logger.rows, gate=logger.gate)
        _write_report(state_path, ck, chash)
    else:
        logger.rows = list(ck["rows"])
        logger.gate = [tuple(g) for g in ck["gate"]]

    done0 = int(ck["done"])
    gamma0 = np.asarray(ck["gamma"], dtype=float)
    prior = list(ck["per_sample"])
    prior_ok = any(r["progressed"] or not r["stalled"] for r in prior)

    todo = samples[done0:]
    if fc["max_samples"] is not None:
        todo = todo[:fc["max_samples"]]
    rows_new = []

    def save_state(k, gamma, w, row):
        rows_new.append(row)
        ck.update(done=done0 + k + 1, w=w, gamma=gamma.tolist(),
                  per_sample=prior + rows_new,
                  rows=logger.rows, gate=logger.gate)
        _write_report(state_path, ck, chash)

    if todo:
        field, report = fitting.fit_sequence(
            problem, todo, gamma0, logger=logger,
            gd_iters=fc["gd_iters"], gn_iters=fc["gn_iters"],
            w0=float(ck["w"]), prior_ok=prior_ok, checkpoint=save_state)
        all_rows = prior + report["samples"]
        failed = report["failed"]
    else:
        field = mat.MaterialField.from_stacked(gamma0)
        all_rows, failed = prior, not prior_ok
    done = int(ck["done"])
    complete = done == len(samples)

    # loss of the blended field on every sample
    finals = []
    for s in samples:
        x, resid, ok = problem.solve_equilibrium(field, s)
        finals.append(problem.loss(x, s) if ok else float("inf"))
    final_loss = max(finals)

    write_material(ws["material"], field, chash)
    write_csv(os.path.join(out, "convergence.csv"),
              ["sample", "iteration", "phase", "loss", "step_size", "grad_norm"],
              [(r["sample"], r["iteration"], r["phase"], r["loss"], r["step"],
                r["grad_norm"]) for r in logger.rows], chash)
    gate_max = max((g[1] for g in logger.gate), default=0.0)
    payload = dict(
        samples=all_rows, failed=failed, completed=done, total=len(samples),
        gate_violations=sum(1 for g in logger.gate if not g[2]),
        gate_evaluations=len(logger.gate), gate_max_residual=gate_max,
        initial_loss=ck["initial_loss"], stage_losses=ck["stages"],
        final_losses=finals, final_loss=final_loss,
        loss_ceiling=fc["loss_ceiling"],
        elapsed_s=time.perf_counter() - t0,
    )
    _write_report(os.path.join(out, "fit_report.json"), payload, chash)

    if failed:
        print("error: all samples stalled", file=sys.stderr)
        return EXIT_NUMERIC
    if complete and fc["loss_ceiling"] is not None and final_loss > fc["loss_ceiling"]:
        print(f"error: final loss {final_loss:.3e} above ceiling "
              f"{fc['loss_ceiling']:.3e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _write_obj(path, vertices, faces=None, lines=None, comment=None):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for p in vertices:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for f in faces if faces is not None else ():
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
        for run in lines if lines is not None else ():
            fh.write("l " + " ".join(str(int(i) + 1) for i in run) + "\n")


def cmd_simulate(cfg, out, chash):
    timings = []

    def clock(stage, t_start):
        timings.append((stage, 1000.0 * (time.perf_counter() - t_start)))

    t = time.perf_counter()
    ws, model, seq, mesh, emb = _load_stage(cfg, out)
    field = read_material(ws["material"])
    if len(field) != mesh.n_elements:
        raise ConfigError("material file does not match the mesh")
    clock("load", t)

    sc = cfg["simulate"]
    if len(seq.pins):
        # each yarn pin group (min-x / max-x extreme) drags the full node set
        # of its host tets rigidly, mirroring the generation-side pin motion
        yl, yr, _ = _end_groups(model.rest_vertices[seq.pins])
        left_nodes = np.unique(mesh.tets[emb.host_elem[seq.pins[yl]]])
        right_nodes = np.unique(mesh.tets[emb.host_elem[seq.pins[yr]]])
        pins = np.union1d(left_nodes, right_nodes)
        moving = np.isin(pins, np.setdiff1d(right_nodes, left_nodes))
    else:
        pins = np.empty(0, dtype=int)
    if len(pins):
        _, yarn_right, ext = _end_groups(model.rest_vertices)
        pin_path = np.repeat(mesh.nodes[pins][None], sc["steps"], axis=0)
        s = (np.arange(sc["steps"]) + 1.0) / sc["steps"]
        if sc["scenario"] == "stretch":
            pin_path[:, moving, 0] += s[:, None] * sc["stretch"] * ext
        elif sc["scenario"] == "twist":
            center = model.rest_vertices[yarn_right].mean(axis=0)
            base = mesh.nodes[pins][moving]
            for i in range(sc["steps"]):
                R = _x_rotation(s[i] * sc["twist_angle"])
                pin_path[i, moving] = (base - center) @ R.T + center
        elif sc["scenario"] != "hold":
            raise ConfigError(f"unknown scenario {sc['scenario']!r}")
    else:
        pin_path = None

    gravity = np.asarray(sc["gravity"], dtype=float)
    forces = mesh.node_mass[:, None] * gravity
    colliders = parse_colliders(sc["colliders"])

    t = time.perf_counter()
    K = pdsolver.assemble_global(mesh, field, sc["dt"])
    free = np.setdiff1d(np.arange(mesh.n_nodes), pins)
    clock("assemble", t)
    t = time.perf_counter()
    if sc["solver"] == "cms":
        cms = pdsolver.build_cms(K[free][:, free].tocsc(), mesh,
                                 n_domains=sc["domains"],
                                 modes_per_domain=sc["modes_per_domain"],
                                 free=free)
        solver = pdsolver.GlobalSolver(K, free, pins, mode="cms", cms=cms,
                                       refine_sweeps=sc["refine_sweeps"],
                                       aggregation=sc["aggregation"],
                                       chebyshev=sc["chebyshev"])
    elif sc["solver"] == "direct":
        solver = pdsolver.GlobalSolver(K, free, pins)
    else:
        raise ConfigError(f"unknown solver {sc['solver']!r}")
    clock("factorize", t)

    frames_dir = os.path.join(out, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    tris = volmesh.boundary_faces(mesh)
    comment = f"config {chash}"

    state = pdsolver.SimState(
        x=mesh.nodes.copy(), v=np.zeros_like(mesh.nodes), dt=sc["dt"],
        pins=pins, pin_targets=None if pin_path is None else pin_path[0],
        colliders=colliders)
    yarn_frames = np.empty((sc["steps"], model.n_vertices, 3))
    det_dev = []
    for i in range(sc["steps"]):
        if pin_path is not None:
            state.pin_targets = pin_path[i]
        t = time.perf_counter()
        try:
            pdsolver.pd_step(state, mesh, field, iterations=sc["pd_iters"],
                             forces=forces, solver=solver if not colliders else None,
                             damping=sc["damping"])
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        clock(f"step_{i:04d}", t)
        t = time.perf_counter()
        F = mesh.deformation_gradients(state.x.reshape(-1))
        det_dev.append(float(np.abs(np.linalg.det(F) - 1.0).max()))
        yarn_frames[i] = transfer.v2y(emb, state.x)
        _write_obj(os.path.join(frames_dir, f"mesh_{i:04d}.obj"), state.x,
                   faces=tris, comment=comment)
        _write_obj(os.path.join(frames_dir, f"yarn_{i:04d}.obj"),
                   yarn_frames[i], lines=model.polylines, comment=comment)
        clock(f"write_{i:04d}", t)

    sim_seq = yarn_model.YarnSequence(frames=yarn_frames, dt=sc["dt"],
                                      pins=seq.pins)
    yarn_model.write_sequence(model, sim_seq, ws["sim"], comment=comment)
    write_csv(os.path.join(out, "timings.csv"), ["stage", "milliseconds"],
              timings, chash)
    _write_report(os.path.join(out, "sim_report.json"), dict(
        frames=int(sc["steps"]), scenario=sc["scenario"], solver=sc["solver"],
        # with colliders every step reassembles and factorizes K directly
        solver_used="direct" if colliders else sc["solver"],
        max_det_deviation=max(det_dev), det_deviation=det_dev,
    ), chash)
    return EXIT_OK


def cmd_compare(cfg, out, chash):
    ws = _workspace(cfg, out)
    model_a, seq_a = yarn_model.read_sequence(ws["sim"])
    model_b, seq_b = yarn_model.read_sequence(ws["ref"])
    if model_a.n_vertices != model_b.n_vertices:
        raise ConfigError("sequences have different vertex counts")
    overlap = min(seq_a.n_frames, seq_b.n_frames)
    sel = cfg["compare"]["frames"]
    if sel is None:
        sel = list(range(overlap))
    else:
        sel = [int(i) for i in sel]
        bad = [i for i in sel if i < 0 or i >= overlap]
        if bad:
            raise ConfigError(f"compare.frames out of range {bad}")
    if not sel:
        raise ConfigError("compare selects no frames")

    per_frame = []
    sq_sum = 0.0
    count = 0
    for i in sel:
        d = seq_a.frames[i] - seq_b.frames[i]
        sq = np.sum(d * d, axis=1)
        per_frame.append(float(np.sqrt(sq.mean())))
        sq_sum += float(sq.sum())
        count += sq.size
    overall = float(np.sqrt(sq_sum / count))
    lo = model_b.rest_vertices.min(axis=0)
    hi = model_b.rest_vertices.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    _write_report(os.path.join(out, "compare_report.json"), dict(
        frames=sel, frame_rms=per_frame, overall_rms=overall,
        max_frame_rms=max(per_frame), bbox_diagonal=diag,
        relative_rms=overall / diag if diag > 0 else float("inf"),
    ), chash)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "generate": cmd_generate,
    "voxelize": cmd_voxelize,
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="volknit",
        description="homogenized-knitwear pipeline: generate, voxelize, "
                    "fit, simulate, compare")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", required=True, help="workspace directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override for the config")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        validate_config(cfg)
        os.makedirs(args.out, exist_ok=True)
        chash = config_hash(cfg)
        with open(os.path.join(args.out, "config.resolved.json"), "w") as fh:
            json.dump({"config_hash": chash, "config": cfg}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        return COMMANDS[args.command](cfg, args.out, chash)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

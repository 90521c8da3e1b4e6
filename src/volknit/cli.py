"""Batch pipeline front-end: generate yarn poses, build the volume mesh,
fit materials, run the forward solver, compare trajectories.

All commands operate on a workspace directory given with --out:

    config.resolved.json            merged config, user config hash
    sequence/                       ground-truth yarn frames     (generate)
        rest.yarn                   rest polylines, text
        frames.npy                  (frames, vertices, 3) float64 poses
        external_force.npy          per-frame forces; sim_yarn/ lacks it
        sequence.json               dt, pins, density, radius
    mesh.json                       the cells read_mesh rebuilds (voxelize)
    mesh.node/.ele/_boundary.obj    exports of the same mesh     (voxelize)
    material.csv, convergence.csv, fit_report.json               (fit)
    frames/, sim_yarn/, timings.csv, sim_report.json             (simulate)
    compare_report.json                                          (compare)

The fit minimizes the summed loss of its samples, so convergence.csv rows
name no sample; fit_report.json's `samples` entries give each sample's loss
after the full-space pass, beside that pass's stalled and progressed flags.

Exit codes: 0 ok, 2 usage/config error, 3 numerical failure.  Exit 2
covers any config value outside its kind or domain.  Every artifact
carries the hash of the user's config (with any --seed override) so a
result can be traced to the configuration that produced it; a change of
DEFAULTS leaves the hash alone.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict

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
        "alpha": 0.1,
        "gamma_init": [1.0, 1.0],
        "use_inertia": True,
        "loss_ceiling": None,       # exit 0 requires summed final loss <= ceiling
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
        elif isinstance(base[key], dict):
            raise ConfigError(f"config key {path + key!r} must be an object")
        else:
            out[key] = val
    return out


def read_config(path):
    """The user's config object as written, {} without a path."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return user


def load_config(user=None):
    """DEFAULTS overridden by the user's config object."""
    return _merge(copy.deepcopy(DEFAULTS), user or {})


# dotted key -> what it takes besides the kind of its default: a tuple of
# choices, POSITIVE, a [low, high] closed interval, or the least value (of
# each entry, for a list)
POSITIVE = "positive"
DOMAIN = {
    "seed": 0, "yarn.kind": ("rib", "strand"), "yarn.courses": 1, "yarn.wales": 2,
    "yarn.course_spacing": POSITIVE, "yarn.wale_spacing": POSITIVE,
    "yarn.rib_period": 1, "yarn.strand_vertices": 2, "yarn.strand_length": POSITIVE,
    "yarn.linear_density": POSITIVE, "yarn.radius": 0, "yarn.jitter": 0,
    "generate.scenario": ("stretch", "twist", "hold", "drape"), "generate.steps": 1,
    "generate.dt": POSITIVE, "generate.rod.stretch_stiffness": POSITIVE,
    "generate.rod.bend_stiffness": 0, "generate.rod.contact_stiffness": 0,
    "generate.rod.damping": [0, 1], "generate.rod.pd_iters": 1, "mesh.cell_size": POSITIVE,
    "fit.sample_stride": 1, "fit.gd_iters": 0, "fit.gn_iters": 0,
    "fit.alpha": POSITIVE, "fit.gamma_init": 0, "fit.loss_ceiling": POSITIVE,
    "simulate.scenario": ("hold", "stretch", "twist"), "simulate.steps": 1,
    "simulate.dt": POSITIVE, "simulate.pd_iters": 1, "simulate.solver": ("direct", "cms"),
    "simulate.domains": 1, "simulate.modes_per_domain": 1, "simulate.refine_sweeps": 0,
    "simulate.aggregation": (2, 3), "simulate.damping": [0, 1], "simulate.polish_tol": POSITIVE,
}
KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _check_value(name, val, kind, rule):
    if type(val) not in ((int, float) if kind is float else (kind,)):
        raise ConfigError(f"{name} must be {KINDS[kind]}, not {val!r}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{name} must be finite, not {val!r}")
    if isinstance(rule, tuple) and val not in rule:
        raise ConfigError(f"unknown {name} {val!r}")
    if rule == POSITIVE and val <= 0:
        raise ConfigError(f"{name} must be positive")
    if type(rule) is int and val < rule:
        raise ConfigError(f"{name} must be at least {rule}")
    if type(rule) is list and not rule[0] <= val <= rule[1]:
        raise ConfigError(f"{name} must be at least {rule[0]} and at most {rule[1]}")


def _check_values(cfg, defaults=DEFAULTS, path=""):
    """Every key holds a value of its default's kind, finite if a number and
    within its DOMAIN entry.  A null default takes null, a string under
    paths, or a number where DOMAIN bounds it; fit.samples, compare.frames,
    fit.ranks and the colliders are checked by validate_config."""
    for key, default in defaults.items():
        name, val, rule = path + key, cfg[key], DOMAIN.get(path + key)
        if isinstance(default, dict):
            _check_values(val, default, name + ".")
        elif default is None:
            if val is not None and (rule is not None or path == "paths."):
                _check_value(name, val, str if rule is None else float, rule)
        elif type(default) is not list:
            _check_value(name, val, type(default), rule)
        elif default and type(default[0]) is float:
            if type(val) is not list or len(val) != len(default):
                raise ConfigError(f"{name} must be a list of {len(default)} numbers, not {val!r}")
            for v in val:
                _check_value(name + " entries", v, float, rule)


def validate_config(cfg):
    _check_values(cfg)
    samples = cfg["fit"]["samples"]
    for key, sel in (("fit.samples", samples), ("compare.frames", cfg["compare"]["frames"])):
        if sel is not None and not (isinstance(sel, list) and sel
                                    and all(type(i) is int for i in sel)):
            raise ConfigError(f"{key} must be null or a non-empty list of integers")
    if samples is not None and len(set(samples)) < len(samples):
        # under the summed loss a repeated frame would count twice
        raise ConfigError("fit.samples must not repeat a frame")
    if samples is not None and cfg["fit"]["sample_stride"] != 1:
        raise ConfigError("fit.sample_stride applies only when fit.samples is null")
    if cfg["simulate"]["polish_tol"] is not None and cfg["simulate"]["colliders"]:
        # simulate_mesh rejects it too: collider steps are never polished
        raise ConfigError("simulate.polish_tol cannot be combined with simulate.colliders")
    ranks = cfg["fit"]["ranks"]
    if not isinstance(ranks, list) or not ranks or not all(
            r is None or (type(r) is int and r >= 1) for r in ranks):
        raise ConfigError("fit.ranks must be a non-empty list of nulls and integers >= 1")
    if len(set(ranks)) < len(ranks):
        # fit_report.json keys the stage losses by rank, so a repeat would drop one
        raise ConfigError("fit.ranks must not repeat a rank")
    for section in ("generate", "simulate"):
        items = cfg[section]["colliders"]
        if not isinstance(items, list):
            raise ConfigError(f"{section}.colliders must be a list")
        for i, c in enumerate(items):
            _check_collider(c, f"{section}.colliders[{i}]")


# collider kind -> (key, shape) of its two parameters
COLLIDER_KEYS = {"plane": (("point", (3,)), ("normal", (3,))),
                 "sphere": (("center", (3,)), ("radius", ()))}


def _check_collider(c, name):
    if not isinstance(c, dict):
        raise ConfigError(f"{name} must be an object")
    if c.get("kind") not in ("plane", "sphere"):
        raise ConfigError(f"unknown {name}.kind {c.get('kind')!r}")
    for key, shape in COLLIDER_KEYS[c["kind"]]:
        if key not in c:
            raise ConfigError(f"{name} lacks {key!r}")
        try:
            v = np.asarray(c[key], dtype=float)
        except (TypeError, ValueError):
            v = None
        if v is None or v.shape != shape or not np.all(np.isfinite(v)):
            raise ConfigError(f"{name}.{key} must be finite, of shape {shape}")
        if key == "normal" and not 0.0 < np.linalg.norm(v) < np.inf:
            raise ConfigError(f"{name}.normal must have a non-zero, finite length")
        if key == "radius" and not v > 0.0:
            raise ConfigError(f"{name}.radius must be positive")


def config_hash(user):
    """Hash of the user's config, so a change of defaults leaves it alone."""
    blob = json.dumps(user, sort_keys=True, separators=(",", ":"))
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


def write_material(path, gammas, chash):
    rows = [(e, gs, gv) for e, (gs, gv) in enumerate(zip(*gammas))]
    write_csv(path, ["element", "gamma_s", "gamma_v"], rows, chash)


def read_material(path):
    """The material of a material.csv, a (2, nE) float array."""
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith(("#", "element")):
                    _, a, b = line.split(",")
                    rows.append((float(a), float(b)))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read material file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"material file {path} holds no rows")
    bad = [e for e, row in enumerate(rows) if not all(0.0 <= g < np.inf for g in row)]
    if bad:
        raise ConfigError(f"material {path}: element {bad[0]} has a negative or non-finite gamma")
    return np.array(rows).T.copy()


def _write_report(path, payload, chash):
    payload = dict(payload)
    payload["config_hash"] = chash
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_colliders(items):
    """Collider tuples (kind, point, normal) or (kind, center, radius) of a
    validated config list."""
    out = []
    for c in items:
        (a, _), (b, _) = COLLIDER_KEYS[c["kind"]]
        out.append((c["kind"], np.asarray(c[a], float), np.asarray(c[b], float)))
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
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read yarn file {path}: {exc}") from exc
    elif y["kind"] == "rib":
        model = yarn_model.rib_patch(
            courses=y["courses"], wales=y["wales"],
            course_spacing=y["course_spacing"], wale_spacing=y["wale_spacing"],
            amplitude=y["amplitude"], rib_period=y["rib_period"],
            linear_density=y["linear_density"], radius=y["radius"])
    else:
        model = yarn_model.straight_strand(
            y["strand_vertices"], length=y["strand_length"],
            linear_density=y["linear_density"], radius=y["radius"])
    if y["jitter"] > 0.0:
        pts = model.rest_vertices + y["jitter"] * rng.standard_normal(
            model.rest_vertices.shape)
        model = yarn_model.YarnModel(pts, model.polylines,
                                     y["linear_density"], y["radius"])
    return model


def _end_groups(points, model):
    """Indices of points within half the shortest rest segment of the min-x
    and max-x extremes, so a jittered end column is pinned whole."""
    x = points[:, 0]
    tol = 0.5 * model.rest_lengths.min()
    left = np.flatnonzero(x <= x.min() + tol)
    right = np.flatnonzero(x >= x.max() - tol)
    return left, right, x.max() - x.min()


def _x_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def scenario_pin_path(points, moving, scenario, steps, stretch, ext, center,
                      twist_angle):
    """Per-step targets (steps, nP, 3) of pinned points for one scenario.

    Points outside the `moving` mask stay put; the moving ones translate
    along x by up to stretch * ext (stretch) or rotate about the x axis
    through `center` by up to twist_angle (twist).
    """
    path = np.repeat(points[None], steps, axis=0)
    s = (np.arange(steps) + 1.0) / steps
    if scenario == "stretch":
        path[:, moving, 0] += s[:, None] * stretch * ext
    elif scenario == "twist":
        for i in range(steps):
            R = _x_rotation(s[i] * twist_angle)
            path[i, moving] = (points[moving] - center) @ R.T + center
    return path


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

    left, right, ext = _end_groups(model.rest_vertices, model)
    if gen["scenario"] == "drape":
        pins, path = left, None
    else:
        pins = np.concatenate([left, right])
        path = scenario_pin_path(
            model.rest_vertices[pins], np.arange(len(pins)) >= len(left),
            gen["scenario"], gen["steps"], gen["stretch"], ext,
            model.rest_vertices[right].mean(axis=0), gen["twist_angle"])

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
    model, _ = _read_sequence(ws["sequence"])
    cell = cfg["mesh"]["cell_size"] or volmesh.auto_cell_size(model)
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


def _read_sequence(directory):
    """read_sequence with a bad layout, such as a sequence written as one
    file per frame, reported as a usage error."""
    try:
        return yarn_model.read_sequence(directory)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_stage(cfg, out):
    """Sequence, mesh, and embedding shared by fit and simulate."""
    ws = _workspace(cfg, out)
    model, seq = _read_sequence(ws["sequence"])
    mesh = volmesh.read_mesh(ws["mesh"])
    emb = volmesh.embed_yarn(mesh, model)
    if mesh.node_mass is None:
        volmesh.lump_mass(mesh, model, emb)
    return ws, model, seq, mesh, emb


def cmd_fit(cfg, out, chash):
    t0 = time.perf_counter()
    ws, model, seq, mesh, emb = _load_stage(cfg, out)
    fc = cfg["fit"]
    # validate_config leaves fit.samples null or a non-empty list
    indices = fc["samples"] or list(range(0, seq.n_frames, fc["sample_stride"]))
    bad = [i for i in indices if i < 0 or i >= seq.n_frames]
    if bad:
        raise ConfigError(f"fit.samples out of range {bad} for {seq.n_frames} frames")
    # a fit that fails leaves no material, not an earlier fit's
    if os.path.exists(ws["material"]):
        os.remove(ws["material"])

    op = transfer.Y2VOperator(mesh, emb, model, alpha=fc["alpha"])
    dt_inertia = seq.dt if fc["use_inertia"] else None
    samples = [
        fitting.build_sample(op, seq.frames, i, dt=dt_inertia,
                             yarn_pins=seq.pins,
                             yarn_force=seq.force(i) if fc["use_inertia"] else None)
        for i in indices
    ]
    problem = fitting.FitProblem(op, dt=seq.dt)
    nE = mesh.n_elements
    logger = fitting.FitLogger()

    def write_fit_report(**fields):
        # what the fit has done so far, failed or not
        _write_report(os.path.join(out, "fit_report.json"), dict(
            fields, total=len(samples), gate_violations=logger.gate_violations,
            gate_evaluations=len(logger.gate),
            gate_max_residual=max((g[1] for g in logger.gate), default=0.0),
            equilibrium=asdict(problem.stats), gauss_newton=logger.gauss_newton,
            elapsed_s=time.perf_counter() - t0), chash)

    gamma0 = np.repeat(np.asarray(fc["gamma_init"], dtype=float), nE)
    try:
        res0, stages = fitting.fit_staged(
            problem, samples, gamma0, ranks=tuple(fc["ranks"]),
            logger=logger, gd_iters=fc["gd_iters"], gn_iters=fc["gn_iters"])
        gammas, report = fitting.fit_sequence(
            problem, samples, res0.gamma, logger=logger,
            gd_iters=fc["gd_iters"], gn_iters=fc["gn_iters"])
    except fitting.EquilibriumGateError as exc:
        # the last gate row is the one that missed; main still exits 3
        write_fit_report(failed=True, error=str(exc), failed_sample=logger.gate[-1][0])
        raise

    # loss of the fitted material on every sample, each from a cold solve
    solved = [problem.solve_equilibrium(gammas, s) for s in samples]
    finals = [problem.loss(x, s) if ok else float("inf")
              for s, (x, _, ok) in zip(samples, solved)]
    unconverged = [s.index for s, (_, _, ok) in zip(samples, solved) if not ok]
    # the fit minimizes the sum of the per-sample losses
    final_loss = float(sum(finals))

    write_material(ws["material"], gammas, chash)
    write_csv(os.path.join(out, "convergence.csv"),
              ["iteration", "phase", "loss", "step_size", "grad_norm"],
              [(r["iteration"], r["phase"], r["loss"], r["step"], r["grad_norm"])
               for r in logger.rows], chash)
    # the first stage's cold evaluation is the loss at gamma_init
    write_fit_report(samples=report["samples"], failed=report["failed"],
                     initial_loss=res0.losses[0], stage_losses=stages,
                     final_losses=finals, final_loss=final_loss,
                     final_unconverged=len(unconverged), loss_ceiling=fc["loss_ceiling"])

    if report["failed"]:
        print("error: the full-space pass stalled without lowering the loss",
              file=sys.stderr)
        return EXIT_NUMERIC
    if unconverged:
        print(f"error: final equilibrium did not converge for samples "
              f"{unconverged}", file=sys.stderr)
        return EXIT_NUMERIC
    if fc["loss_ceiling"] is not None and final_loss > fc["loss_ceiling"]:
        print(f"error: final loss {final_loss:.3e} above ceiling "
              f"{fc['loss_ceiling']:.3e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_simulate(cfg, out, chash):
    timings = []
    counts = dict(mat.COUNTS)

    def clock(stage, t_start):
        timings.append((stage, 1000.0 * (time.perf_counter() - t_start)))

    t = time.perf_counter()
    ws, model, seq, mesh, emb = _load_stage(cfg, out)
    gammas = read_material(ws["material"])
    if gammas.shape[1] != mesh.n_elements:
        raise ConfigError("material file does not match the mesh")
    clock("load", t)

    sc = cfg["simulate"]
    pins, pin_path = np.empty(0, dtype=int), None
    if len(seq.pins):
        # each yarn pin group (min-x / max-x extreme) drags the full node set
        # of its host tets rigidly, mirroring the generation-side pin motion
        yl, yr, _ = _end_groups(model.rest_vertices[seq.pins], model)
        left_nodes = np.unique(mesh.tets[emb.host_elem[seq.pins[yl]]])
        right_nodes = np.unique(mesh.tets[emb.host_elem[seq.pins[yr]]])
        pins = np.union1d(left_nodes, right_nodes)
        moving = np.isin(pins, np.setdiff1d(right_nodes, left_nodes))
        _, yarn_right, ext = _end_groups(model.rest_vertices, model)
        pin_path = scenario_pin_path(
            mesh.nodes[pins], moving, sc["scenario"], sc["steps"], sc["stretch"],
            ext, model.rest_vertices[yarn_right].mean(axis=0), sc["twist_angle"])

    gravity = np.asarray(sc["gravity"], dtype=float)
    forces = mesh.node_mass[:, None] * gravity
    colliders = parse_colliders(sc["colliders"])

    # a collider step with a penetrating node factorizes its own matrix
    # directly, so under colliders the base solver is direct too
    solver_used = "direct" if colliders else sc["solver"]
    t = time.perf_counter()
    K = pdsolver.assemble_global(mesh, gammas, sc["dt"])
    clock("assemble", t)
    t = time.perf_counter()
    solver = pdsolver.GlobalSolver(
        K, pins, mode=solver_used, mesh=mesh, n_domains=sc["domains"],
        modes_per_domain=sc["modes_per_domain"],
        refine_sweeps=sc["refine_sweeps"], aggregation=sc["aggregation"])
    clock("factorize", t)

    frames_dir = os.path.join(out, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    tris = volmesh.boundary_faces(mesh)
    comment = f"config {chash}"
    yarn_frames = np.empty((sc["steps"], model.n_vertices, 3))
    det_dev, polish = [], []

    def write_frame(i, x, step_polish):
        # a step's time runs from the end of the previous write
        nonlocal t
        clock(f"step_{i:04d}", t)
        t = time.perf_counter()
        F = mesh.deformation_gradients(x.reshape(-1))
        det_dev.append(float(np.abs(np.linalg.det(F) - 1.0).max()))
        if step_polish is not None:
            polish.append(step_polish)
        yarn_frames[i] = transfer.v2y(emb, x)
        volmesh.write_obj(os.path.join(frames_dir, f"mesh_{i:04d}.obj"), x,
                          faces=tris, comment=comment)
        volmesh.write_obj(os.path.join(frames_dir, f"yarn_{i:04d}.obj"),
                          yarn_frames[i], lines=model.polylines, comment=comment)
        clock(f"write_{i:04d}", t)
        t = time.perf_counter()

    t = time.perf_counter()
    pdsolver.simulate_mesh(
        mesh, gammas, sc["steps"], sc["dt"], forces=forces, pins=pins,
        pin_targets=pin_path, colliders=colliders, iterations=sc["pd_iters"],
        solver=solver, damping=sc["damping"], polish_tol=sc["polish_tol"],
        on_step=write_frame)

    sim_seq = yarn_model.YarnSequence(frames=yarn_frames, dt=sc["dt"],
                                      pins=seq.pins)
    yarn_model.write_sequence(model, sim_seq, ws["sim"], comment=comment)
    write_csv(os.path.join(out, "timings.csv"), ["stage", "milliseconds"],
              timings, chash)
    _write_report(os.path.join(out, "sim_report.json"), dict(
        frames=int(sc["steps"]), scenario=sc["scenario"], solver=sc["solver"],
        solver_used=solver_used,
        max_det_deviation=max(det_dev), det_deviation=det_dev,
        polish_iters=[it for _, it in polish],
        polish_unconverged=sum(not ok for ok, _ in polish),
        counters={k: mat.COUNTS[k] - v for k, v in counts.items()},
    ), chash)
    return EXIT_OK


def cmd_compare(cfg, out, chash):
    ws = _workspace(cfg, out)
    model_a, seq_a = _read_sequence(ws["sim"])
    model_b, seq_b = _read_sequence(ws["ref"])
    if model_a.n_vertices != model_b.n_vertices:
        raise ConfigError("sequences have different vertex counts")
    overlap = min(seq_a.n_frames, seq_b.n_frames)
    # validate_config leaves compare.frames null or a non-empty list
    sel = cfg["compare"]["frames"] or list(range(overlap))
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
        user = read_config(args.config)
        if args.seed is not None:
            user["seed"] = int(args.seed)
        cfg = load_config(user)
        validate_config(cfg)
        os.makedirs(args.out, exist_ok=True)
        chash = config_hash(user)
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

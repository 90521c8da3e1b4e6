"""Acceptance gate for the shipped pipeline.

One test per guarantee, in a fixed order, each printing a single
PASS/FAIL line with the measured value (run with -s to see the lines as
they happen).  The large round-trip fixture is shared by the last three
tests; the equilibrium-gate tally at the end covers every adjoint
evaluation made anywhere in this file.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from volknit import cli, fitting, material as mat, pdsolver, transfer, \
    volmesh, yarn_model

import oracles
from test_fitting import (equilibrate, fd_gamma_gradient, loss_at,
                          make_scene, synthetic_sample)
from test_material import _grid_polish_oracle
from test_pdsolver import random_spd, wavy_mesh

# (evaluations, violations, max residual) per fitting run in this file
GATE_TALLY = []


def tally(evaluations, violations, max_resid):
    GATE_TALLY.append((int(evaluations), int(violations), float(max_resid)))


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_yarn_scene(seed, truth_span=(2.0, 10.0, 1.0, 5.0)):
    """Random wavy yarn in a voxel mesh with a random per-element truth."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 26))
    t = np.linspace(0.0, 1.0, n)
    amp = rng.uniform(0.02, 0.06, size=2)
    freq = rng.uniform(4.0, 9.0, size=2)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
    pts = np.c_[0.8 * t,
                amp[0] * np.sin(freq[0] * t + ph[0]),
                amp[1] * np.cos(freq[1] * t + ph[1])]
    yarn = yarn_model.YarnModel(pts, [list(range(n))], linear_density=0.01)
    cell = float(rng.uniform(0.11, 0.16))
    mesh = volmesh.voxelize(yarn, cell)
    emb = volmesh.embed_yarn(mesh, yarn)
    volmesh.lump_mass(mesh, yarn, emb)
    lo_s, hi_s, lo_v, hi_v = truth_span
    truth = np.array([rng.uniform(lo_s, hi_s, mesh.n_elements),
                      rng.uniform(lo_v, hi_v, mesh.n_elements)])
    end_verts = np.array([0, 1, n - 2, n - 1])
    pins = np.unique(mesh.tets[emb.host_elem[end_verts]])
    pin_vals = mesh.nodes[pins].copy()
    xm = 0.5 * (mesh.nodes[:, 0].min() + mesh.nodes[:, 0].max())
    pin_vals[pin_vals[:, 0] > xm, 0] += 0.1 * 0.8
    sc = dict(yarn=yarn, mesh=mesh, emb=emb, gam_true=truth, pins=pins,
              pin_vals=pin_vals, end_verts=end_verts)
    sc["problem"] = fitting.FitProblem(transfer.Y2VOperator(mesh, emb, yarn), dt=1e-2)
    sc["sample"], sc["xstar"] = synthetic_sample(sc)
    sc["rng"] = rng
    return sc


def state_at(sc, gvec, logger=None):
    problem, sample = sc["problem"], sc["sample"]
    gf = gvec.reshape(2, -1)
    x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-10,
                                             max_newton=150)
    assert ok
    return fitting.adjoint_gradient(problem, sample, gf, x, residual=resid,
                                    logger=logger)


@pytest.fixture(scope="module")
def bar_scene():
    sc = make_scene(24, 0.09, ((3.0, 2.0), (12.0, 6.0)))
    sc["problem"] = fitting.FitProblem(
        transfer.Y2VOperator(sc["mesh"], sc["emb"], sc["yarn"]), dt=1e-2)
    sc["sample"], sc["xstar"] = synthetic_sample(sc)
    return sc


def test_01_adjoint_gradient_matches_central_differences():
    t0 = time.perf_counter()
    worst = 0.0
    sizes = []
    for seed in (11, 23, 47):
        sc = random_yarn_scene(seed)
        nE = sc["mesh"].n_elements
        assert nE <= 200
        sizes.append(nE)
        gvec = sc["rng"].uniform(1.0, 6.0, size=2 * nE)
        lg = fitting.FitLogger()
        state = state_at(sc, gvec, logger=lg)
        tally(len(lg.gate), lg.gate_violations,
              max(g[1] for g in lg.gate))
        fd = fd_gamma_gradient(sc["problem"], sc["sample"], gvec)
        rel = np.linalg.norm(state.grad - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report("adjoint gradient vs central differences",
           worst < 1e-3 and elapsed < 300.0,
           f"rel L2 {worst:.2e} on meshes {sizes}, {elapsed:.0f}s")


def test_02_gauss_newton_direction_matches_dense_oracle():
    worst = 0.0
    for seed, pairs in ((5, ((3.0, 2.0), (12.0, 6.0))),
                        (9, ((6.0, 1.0), (2.0, 8.0)))):
        sc = make_scene(16, 0.3, pairs)
        sc["problem"] = fitting.FitProblem(
        transfer.Y2VOperator(sc["mesh"], sc["emb"], sc["yarn"]), dt=1e-2)
        sc["sample"], _ = synthetic_sample(sc)
        nE = sc["mesh"].n_elements
        assert nE <= 60
        rng = np.random.default_rng(seed)
        for _ in range(2):
            gvec = rng.uniform(1.5, 5.0, size=2 * nE)
            lg = fitting.FitLogger()
            state = state_at(sc, gvec, logger=lg)
            tally(len(lg.gate), lg.gate_violations,
                  max(g[1] for g in lg.gate))
            d, kappa, ok = fitting.adjoint_gauss_newton([state])
            assert ok
            dense = oracles.dense_gauss_newton_direction([state], kappa)
            worst = max(worst, np.linalg.norm(d - dense)
                        / np.linalg.norm(dense))
    report("Gauss-Newton direction vs dense oracle", worst < 1e-6,
           f"rel {worst:.2e}")


def test_03_volume_projection_determinant_floor_and_objective():
    rng = np.random.default_rng(77)
    n = 1000
    sig = np.exp(rng.uniform(-3.5, 1.8, size=(n, 3)))
    F = np.empty((n, 3, 3))
    for i in range(n):
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q1 *= np.linalg.det(q1)
        q2 *= np.linalg.det(q2)
        F[i] = q1 @ np.diag(sig[i]) @ q2.T
    assert np.all(np.linalg.det(F) > 0.0)

    _, V = mat.batch_projections(F)
    det_err = float(np.abs(np.linalg.det(V) - 1.0).max())

    floor_ok = True
    obj_gap = -np.inf
    for i in range(n):
        s, _, _, ok = mat.sl3_sigma_project(sig[i])
        assert ok
        floor_ok &= bool(s.min() >= 0.01 - 1e-9)
        ours = float(np.sum((s - sig[i]) ** 2))
        obj_gap = max(obj_gap, ours - _grid_polish_oracle(sig[i]))
    report("volume projection det/floor/objective",
           det_err < 1e-8 and floor_ok and obj_gap <= 1e-6,
           f"|det-1| {det_err:.1e}, worst oracle gap {obj_gap:.1e}")


def test_04_subspace_solve_exact_with_complete_bases():
    mesh, _, _ = wavy_mesh(n=34, cell=0.07, mass_floor=1e-5)
    rng = np.random.default_rng(13)
    gam = np.array([rng.uniform(2.0, 8.0, mesh.n_elements),
                    rng.uniform(1.0, 4.0, mesh.n_elements)])
    K = pdsolver.assemble_global(mesh, gam, 1e-2)
    dof = K.shape[0]
    assert dof <= 600
    labels = pdsolver.partition_elements(mesh, 2)
    interior, _ = pdsolver.classify_nodes(mesh, labels, np.arange(mesh.n_nodes))
    modes = max(len(s) for s in interior)
    cms = pdsolver.build_cms(K, mesh, np.arange(mesh.n_nodes), modes_per_domain=modes)
    worst = 0.0
    for _ in range(3):
        b = rng.normal(size=dof)
        x_ref = spla.spsolve(K.tocsc(), b)
        rel = np.linalg.norm(cms.solve(b) - x_ref) / np.linalg.norm(x_ref)
        worst = max(worst, rel)
    report("complete-basis subspace solve vs direct", worst < 1e-8,
           f"rel {worst:.2e} on {dof} unknowns, 2 domains")


def test_05_aggregated_jacobi_equals_repeated_plain_sweeps():
    worst = 0.0
    for seed in (3, 19, 31, 53):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, 50)
        b = rng.normal(size=50)
        x0 = rng.normal(size=50)
        xa, info = pdsolver.a_jacobi_refine(A, b, x0, sweeps=6,
                                            aggregation=2, omega=0.7)
        assert not info["diverged"]
        invd = 1.0 / A.diagonal()
        xp = x0.copy()
        for _ in range(12):
            xp = xp + 0.7 * (invd * (b - A @ xp))
        worst = max(worst, float(np.abs(xa - xp).max()))
    report("aggregated Jacobi identity", worst < 1e-12, f"max |d| {worst:.1e}")


def test_06_lumped_mesh_mass_matches_yarn_mass_on_all_assets():
    def shifted_rib(**kw):
        cell = kw.pop("cell")
        model = yarn_model.rib_patch(**kw)
        model.rest_vertices[:, 1] += 0.5 * cell
        model.rest_vertices[:, 2] += 0.5 * cell
        return model, cell

    assets = [
        ("strand", yarn_model.straight_strand(40, length=1.0,
                                              linear_density=0.002), None),
        ("short strand", yarn_model.straight_strand(
            30, length=0.3, linear_density=0.002, radius=0.004), None),
        ("small rib", yarn_model.rib_patch(
            courses=6, wales=18, course_spacing=0.01, wale_spacing=0.01,
            amplitude=0.004, rib_period=4, linear_density=0.002), 0.025),
        ("wavy", make_scene(24, 0.09, ((3.0, 2.0), (12.0, 6.0)))["yarn"],
         0.09),
        ("large rib", yarn_model.rib_patch(
            courses=25, wales=200, course_spacing=0.005, wale_spacing=0.005,
            amplitude=0.002, rib_period=4, linear_density=0.002), 0.04),
    ]
    model, cell = shifted_rib(courses=9, wales=27, course_spacing=0.008,
                              wale_spacing=0.008, amplitude=0.0011,
                              rib_period=4, linear_density=0.01,
                              radius=0.003, cell=0.024)
    assets.append(("two-block rib", model, cell))

    worst = 0.0
    names = []
    for name, model, cell in assets:
        if cell is None:
            cell = volmesh.auto_cell_size(model)
        mesh = volmesh.voxelize(model, cell)
        emb = volmesh.embed_yarn(mesh, model)
        volmesh.lump_mass(mesh, model, emb)
        rel = abs(mesh.node_mass.sum() - model.vertex_mass().sum()) \
            / model.vertex_mass().sum()
        worst = max(worst, rel)
        names.append(name)
    report("mass conservation on all assets", worst <= 1e-10,
           f"worst rel {worst:.1e} over {len(names)} assets")


def test_07_two_stage_schedule_beats_first_order_only(bar_scene):
    t0 = time.perf_counter()
    problem, sample = bar_scene["problem"], bar_scene["sample"]
    nE = problem.mesh.n_elements
    g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
    initial = loss_at(problem, sample, g0)

    lg = fitting.FitLogger()
    res = fitting.fit_sample(problem, [sample], g0, gd_iters=12, gn_iters=30,
                             logger=lg)
    tally(len(lg.gate), lg.gate_violations, max(g[1] for g in lg.gate))
    two_stage = res.loss / initial

    lg_gd = fitting.FitLogger()
    res_gd = fitting.fit_sample(problem, [sample], g0, gd_iters=300,
                                gn_iters=0, logger=lg_gd)
    tally(len(lg_gd.gate), lg_gd.gate_violations,
          max(g[1] for g in lg_gd.gate))
    gd_only = res_gd.loss / initial
    elapsed = time.perf_counter() - t0
    report("two-stage schedule vs first-order only",
           two_stage <= 1e-2 and gd_only > 1e-1 and elapsed < 1800.0,
           f"12gd+30gn {two_stage:.2e}, 300gd {gd_only:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# end-to-end round trip shared by the remaining criteria

ROUND_YARN = {"kind": "rib", "courses": 25, "wales": 200,
              "course_spacing": 0.005, "wale_spacing": 0.005,
              "amplitude": 0.002, "rib_period": 4, "linear_density": 0.002}
ROUND_ROD = {"stretch_stiffness": 500.0, "bend_stiffness": 0.5,
             "contact_stiffness": 200.0, "damping": 0.85, "pd_iters": 24,
             "contacts": False}


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """Rod-simulated patch, staged fit, held-out stretch replay."""
    base = tmp_path_factory.mktemp("round_trip")
    train, held = str(base / "train"), str(base / "held")
    t0 = time.perf_counter()

    cfg = {"yarn": ROUND_YARN,
           "generate": {"scenario": "stretch", "steps": 80, "dt": 2e-3,
                        "stretch": 0.10, "rod": ROUND_ROD},
           "mesh": {"cell_size": 0.04},
           "fit": {"samples": [79], "ranks": [1, 10, 30, None],
                   "gd_iters": 6, "gn_iters": 12}}
    path = str(base / "train.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for cmd in ("generate", "voxelize", "fit"):
        assert cli.main([cmd, "--config", path, "--out", train]) == 0, cmd

    cfg = {"yarn": ROUND_YARN,
           "generate": {"scenario": "stretch", "steps": 80, "dt": 2e-3,
                        "stretch": 0.16, "rod": ROUND_ROD},
           "paths": {"mesh": os.path.join(train, "mesh"),
                     "material": os.path.join(train, "material.csv")},
           "simulate": {"scenario": "stretch", "steps": 80, "dt": 2e-2,
                        "pd_iters": 30, "stretch": 0.16, "damping": 0.8}}
    path = str(base / "held.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for cmd in ("generate", "simulate", "compare"):
        assert cli.main([cmd, "--config", path, "--out", held]) == 0, cmd

    out = {"elapsed": time.perf_counter() - t0}
    for name, root in (("fit", train), ("mesh", train), ("generate", train),
                       ("compare", held)):
        with open(os.path.join(root, f"{name}_report.json")) as fh:
            out[name] = json.load(fh)
    tally(out["fit"]["gate_evaluations"], out["fit"]["gate_violations"],
          out["fit"]["gate_max_residual"])
    return out


def test_08_round_trip_tracks_held_out_stretch(round_trip):
    n_verts = round_trip["generate"]["n_vertices"]
    rel = round_trip["compare"]["relative_rms"]
    elapsed = round_trip["elapsed"]
    report("round trip on held-out stretch",
           4800 <= n_verts <= 5200 and rel <= 0.05 and elapsed < 7200.0,
           f"{n_verts} yarn vertices, rel RMS {rel:.4f}, {elapsed:.0f}s")


def test_09_stage_losses_monotone_on_every_run(round_trip, bar_scene):
    chains = []
    st = round_trip["fit"]["stage_losses"]
    chains.append([st["r1"], st["r10"], st["r30"], st["full"]])

    problem, sample = bar_scene["problem"], bar_scene["sample"]
    nE = problem.mesh.n_elements
    g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
    lg = fitting.FitLogger()
    _, stages = fitting.fit_staged(problem, [sample], g0,
                                   ranks=(1, 10, 30, None), logger=lg)
    tally(len(lg.gate), lg.gate_violations, max(g[1] for g in lg.gate))
    chains.append([stages["r1"], stages["r10"], stages["r30"],
                   stages["full"]])

    ok = all(c[0] >= c[1] >= c[2] >= c[3] for c in chains)
    detail = "; ".join("->".join(f"{v:.2e}" for v in c) for c in chains)
    report("stage losses monotone", ok, detail)


def test_10_equilibrium_gate_clean_across_all_runs():
    evals = sum(t[0] for t in GATE_TALLY)
    viols = sum(t[1] for t in GATE_TALLY)
    worst = max(t[2] for t in GATE_TALLY)
    report("equilibrium gate", evals > 0 and viols == 0 and worst < 1e-5,
           f"{evals} evaluations, {viols} violations, max resid {worst:.1e}")

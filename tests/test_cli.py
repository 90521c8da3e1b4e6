"""Pipeline front-end tests: every subcommand end to end on small synthetic
workspaces, the documented exit codes, artifact provenance, checkpointed
resume, and the fitted-material round trip against its own ground truth."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from volknit import cli, fitting, material as mat, pdsolver, transfer, \
    volmesh, yarn_model


def run_cli(cmd, out, cfg=None):
    """Invoke the CLI in-process; returns (exit code, workspace path)."""
    args = [cmd, "--out", str(out)]
    if cfg is not None:
        path = str(out) + f".{cmd}.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        args += ["--config", path]
    return cli.main(args), str(out)


def read_report(out, name):
    with open(os.path.join(str(out), name)) as fh:
        return json.load(fh)


def csv_body(path):
    """Data lines only, so files from different configs can be compared."""
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# synthetic two-block ground truth
#
# A flat-ish rib patch whose left half is sixteen times stiffer than the
# right, pulled to a known piecewise-uniform stretch.  Both end voxel
# columns are pinned, with the inner columns displaced per the 1D force
# balance so the end segments deform exactly like their block interior.
# The written sequence holds the four ramp equilibria; the last frame is
# the full stretch.

BLOCK_GAMMA = (8.0, 0.5)
BLOCK_STRETCH = 0.4
BLOCK_CELL = 0.024


def make_two_block_asset(dest):
    cell = BLOCK_CELL
    model = yarn_model.rib_patch(courses=9, wales=27, course_spacing=0.008,
                                 wale_spacing=0.008, amplitude=0.0011,
                                 rib_period=4, linear_density=0.01,
                                 radius=0.003)
    # half-cell offset keeps the single course layer clear of voxel faces
    model.rest_vertices[:, 1] += 0.5 * cell
    model.rest_vertices[:, 2] += 0.5 * cell
    yarn_model.compute_segment_normals(model)
    mesh = volmesh.voxelize(model, cell)
    emb = volmesh.embed_yarn(mesh, model)
    volmesh.lump_mass(mesh, model, emb)

    xs = model.rest_vertices[:, 0]
    ux = np.unique(np.round(xs, 9))
    yarn_pins = np.flatnonzero(np.isin(np.round(xs, 9),
                                       np.concatenate([ux[:2], ux[-2:]])))
    pins = np.unique(mesh.tets[emb.host_elem[yarn_pins]])
    ext = xs.max() - xs.min()

    vox_ix = mesh.voxels[mesh.tet_voxel][:, 0]
    lo = vox_ix <= np.median(np.unique(vox_ix))
    ghi, glo = BLOCK_GAMMA
    truth = mat.MaterialField(gamma_s=np.where(lo, ghi, glo),
                              gamma_v=np.zeros(mesh.n_elements))

    # ideal piecewise stretch: ghi*(sh-1) = glo*(ss-1) with the total
    # extension split over the hard span [min, xb) and soft span [xb, max]
    xb = (np.unique(vox_ix).max() // 2 + 1) * cell + mesh.origin[0]
    span_h = xb - xs.min()
    span_s = xs.max() - xb
    ss1 = BLOCK_STRETCH * ext / (span_h * glo / ghi + span_s)
    sh1 = glo / ghi * ss1
    px = mesh.nodes[pins, 0]
    dx_pin = np.where(px < xb, (px - xs.min()) * sh1,
                      span_h * sh1 + (px - xb) * ss1)

    a = np.zeros((mesh.n_nodes, 3))
    x = mesh.nodes.copy()
    frames = np.empty((4, model.n_vertices, 3))
    for k in range(4):
        s = (k + 1.0) / 4
        pv = mesh.nodes[pins].copy()
        pv[:, 0] += s * dx_pin
        x = pdsolver.pd_equilibrium(mesh, truth, a, x, pins, pv, 2e-2,
                                    iterations=8)
        x, ok, _ = pdsolver.newton_polish(mesh, truth, x, dt=2e-2, pins=pins,
                                          pin_vals=pv, inertia_target=a,
                                          tol=1e-11, max_iters=300, exact=True)
        assert ok
        frames[k] = transfer.v2y(emb, x)

    os.makedirs(dest, exist_ok=True)
    seq = yarn_model.YarnSequence(frames=frames, dt=2e-2, pins=yarn_pins)
    yarn_model.write_sequence(model, seq, os.path.join(dest, "sequence"))
    volmesh.write_mesh(mesh, os.path.join(dest, "mesh"), comment="two-block")
    return truth


BLOCK_FIT = {
    "yarn": {"kind": "rib"},
    "fit": {"samples": [3], "ranks": [1, 10, None], "use_inertia": False,
            "gd_iters": 6, "gn_iters": 30, "gamma_init": [1.0, 1.0]},
}


@pytest.fixture(scope="module")
def block_ws(tmp_path_factory):
    """Two-block asset with one completed fit in place."""
    ws = tmp_path_factory.mktemp("two_block")
    make_two_block_asset(ws)
    rc, _ = run_cli("fit", ws, BLOCK_FIT)
    assert rc == cli.EXIT_OK
    return ws


# ---------------------------------------------------------------------------
# full pipeline workspace shared by the generate/simulate/compare tests

PIPELINE_CFG = {
    "yarn": {"kind": "rib", "courses": 6, "wales": 18, "course_spacing": 0.01,
             "wale_spacing": 0.01, "amplitude": 0.004, "rib_period": 4,
             "linear_density": 0.002},
    "generate": {"scenario": "stretch", "steps": 60, "dt": 2e-3,
                 "stretch": 0.08,
                 "rod": {"stretch_stiffness": 500.0, "bend_stiffness": 0.5,
                         "contact_stiffness": 200.0, "damping": 0.85,
                         "pd_iters": 24, "contacts": False}},
    "mesh": {"cell_size": 0.025},
    "fit": {"samples": [59], "ranks": [1, 10, None], "gd_iters": 6,
            "gn_iters": 12},
    "simulate": {"scenario": "stretch", "steps": 60, "dt": 2e-2,
                 "pd_iters": 30, "stretch": 0.08, "damping": 0.8},
}


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    """generate -> voxelize -> fit -> simulate -> compare, one workspace."""
    ws = tmp_path_factory.mktemp("pipeline")
    path = str(ws / "config.json")
    with open(path, "w") as fh:
        json.dump(PIPELINE_CFG, fh)
    for cmd in ("generate", "voxelize", "fit", "simulate", "compare"):
        rc = cli.main([cmd, "--config", path, "--out", str(ws)])
        assert rc == cli.EXIT_OK, cmd
    return ws


def alias_cfg(ws, **extra):
    """Config running against another workspace's sequence/mesh/material."""
    cfg = {"paths": {"sequence": os.path.join(str(ws), "sequence"),
                     "mesh": os.path.join(str(ws), "mesh"),
                     "material": os.path.join(str(ws), "material.csv")}}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# generate


def test_generate_stretch_elongates_monotonically(pipeline_ws):
    spans = read_report(pipeline_ws, "generate_report.json")["x_extent"]
    assert all(b >= a - 1e-12 for a, b in zip(spans, spans[1:]))
    rest_ext = 17 * 0.01
    assert spans[-1] == pytest.approx(rest_ext * 1.08, rel=0.02)


def test_generate_drape_settles_on_sphere(tmp_path):
    center, radius = [0.1, 0.0, -0.08], 0.05
    cfg = {
        "yarn": {"kind": "strand", "strand_vertices": 30,
                 "strand_length": 0.3, "radius": 0.004},
        "generate": {"scenario": "drape", "steps": 700, "dt": 2e-3,
                     "gravity": [0.0, 0.0, -9.81],
                     "rod": {"stretch_stiffness": 500.0,
                             "bend_stiffness": 0.05,
                             "contact_stiffness": 200.0, "damping": 0.85,
                             "pd_iters": 24, "contacts": True},
                     "colliders": [{"kind": "sphere", "center": center,
                                    "radius": radius}]},
    }
    rc, out = run_cli("generate", tmp_path / "drape", cfg)
    assert rc == cli.EXIT_OK
    _, seq = yarn_model.read_sequence(os.path.join(out, "sequence"))
    last = seq.frames[-1]
    dist = np.linalg.norm(last - np.asarray(center), axis=1) - radius
    # resting contact: touching the sphere, not sunk into it
    assert -1e-5 < dist.min() < 1e-3
    motion = np.abs(seq.frames[-1] - seq.frames[-2]).max()
    assert motion < 2e-4


def test_generate_bad_yarn_path_exits_2(tmp_path):
    cfg = {"paths": {"yarn_file": str(tmp_path / "no_such_file.obj")}}
    rc, _ = run_cli("generate", tmp_path / "bad", cfg)
    assert rc == cli.EXIT_USAGE


def test_generate_divergence_exits_3_keeping_partial_frames(tmp_path):
    # absurd load with no damping margin blows the rod solve up mid-run
    cfg = {
        "yarn": {"kind": "strand", "strand_vertices": 24,
                 "strand_length": 0.3},
        "generate": {"scenario": "hold", "steps": 60, "dt": 1e-3,
                     "gravity": [0.0, 0.0, -2e4],
                     "rod": {"stretch_stiffness": 0.05,
                             "bend_stiffness": 0.0005, "damping": 1.0,
                             "pd_iters": 24, "contacts": False,
                             "contact_stiffness": 200.0}},
    }
    rc, out = run_cli("generate", tmp_path / "boom", cfg)
    assert rc == cli.EXIT_NUMERIC
    _, seq = yarn_model.read_sequence(os.path.join(out, "sequence"))
    assert 0 < seq.n_frames < 60


# ---------------------------------------------------------------------------
# fit


def test_fit_two_block_recovery_ratio(block_ws):
    rep = read_report(block_ws, "fit_report.json")
    assert rep["failed"] is False
    assert rep["final_loss"] <= 1e-2 * rep["initial_loss"]


def test_fit_stage_losses_decrease_along_schedule(block_ws):
    st = read_report(block_ws, "fit_report.json")["stage_losses"]
    assert st["full"] <= st["r10"] <= st["r1"]


def test_fit_gate_clean_and_counted(block_ws):
    rep = read_report(block_ws, "fit_report.json")
    assert rep["gate_violations"] == 0
    assert rep["gate_evaluations"] > 0
    assert rep["gate_max_residual"] < 1e-5


def test_fit_recovers_block_contrast(block_ws):
    field = cli.read_material(os.path.join(str(block_ws), "material.csv"))
    mesh = volmesh.read_mesh(os.path.join(str(block_ws), "mesh"))
    vox_ix = mesh.voxels[mesh.tet_voxel][:, 0]
    lo = vox_ix <= np.median(np.unique(vox_ix))
    hard = np.median(field.gamma_s[lo])
    soft = np.median(field.gamma_s[~lo])
    assert hard > 2.0 * soft


def test_fit_resume_matches_uninterrupted_run(block_ws, tmp_path):
    plain, parts = tmp_path / "plain", tmp_path / "parts"
    for d in (plain, parts):
        shutil.copytree(block_ws / "sequence", d / "sequence")
        for ext in (".node", ".ele", ".json"):
            shutil.copy(str(block_ws / "mesh") + ext, str(d / "mesh") + ext)
    fit = dict(BLOCK_FIT["fit"], samples=[2, 3])
    rc, _ = run_cli("fit", plain, {"fit": fit})
    assert rc == cli.EXIT_OK

    rc, _ = run_cli("fit", parts, {"fit": dict(fit, max_samples=1)})
    assert rc == cli.EXIT_OK
    assert read_report(parts, "fit_report.json")["completed"] == 1
    rc, _ = run_cli("fit", parts, {"fit": dict(fit, resume=True)})
    assert rc == cli.EXIT_OK

    rep_a = read_report(plain, "fit_report.json")
    rep_b = read_report(parts, "fit_report.json")
    assert rep_b["completed"] == rep_b["total"] == 2
    assert rep_b["final_loss"] == rep_a["final_loss"]
    for name in ("material.csv", "convergence.csv"):
        assert csv_body(plain / name) == csv_body(parts / name)


def test_fit_empty_sample_list_exits_2(block_ws, tmp_path):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], samples=[]))
    rc, _ = run_cli("fit", tmp_path / "empty", cfg)
    assert rc == cli.EXIT_USAGE


def test_fit_out_of_range_sample_exits_2(block_ws, tmp_path):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], samples=[99]))
    rc, _ = run_cli("fit", tmp_path / "range", cfg)
    assert rc == cli.EXIT_USAGE


def test_fit_loss_ceiling_violation_exits_3(block_ws, tmp_path):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], loss_ceiling=1e-30))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "ceiling", cfg)
    assert rc == cli.EXIT_NUMERIC
    assert read_report(out, "fit_report.json")["final_loss"] > 1e-30


def test_fit_all_samples_stalled_exits_3(block_ws, tmp_path, monkeypatch):
    def stalled_fit(problem, sample, gamma0, *, basis=None, q0=None,
                    logger=None, init_state=None, **kw):
        gamma = np.maximum(np.asarray(gamma0, dtype=float), mat.GAMMA_FLOOR)
        res = fitting.FitResult(gamma=gamma, loss=1.0,
                                x=np.asarray(sample.x_init).copy(),
                                losses=[1.0], stalled=True)
        if basis is not None:
            nE = problem.mesh.n_elements
            q = np.concatenate([basis.T @ gamma[:nE], basis.T @ gamma[nE:]])
            return res, q
        return res

    monkeypatch.setattr(fitting, "fit_sample", stalled_fit)
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"]))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "stall", cfg)
    assert rc == cli.EXIT_NUMERIC
    rep = read_report(out, "fit_report.json")
    assert rep["failed"] is True
    assert all(r["stalled"] for r in rep["samples"])


# ---------------------------------------------------------------------------
# simulate


def test_simulate_hold_without_forces_stays_static(pipeline_ws, tmp_path):
    cfg = alias_cfg(pipeline_ws,
                    simulate={"scenario": "hold", "steps": 5, "dt": 1e-2})
    rc, out = run_cli("simulate", tmp_path / "hold", cfg)
    assert rc == cli.EXIT_OK
    model, sim = yarn_model.read_sequence(os.path.join(out, "sim_yarn"))
    drift = np.abs(sim.frames - sim.frames[0]).max()
    assert drift < 1e-9


def test_simulate_determinism_bit_identical_objs(pipeline_ws, tmp_path):
    sim = dict(PIPELINE_CFG["simulate"], steps=3)
    outs = []
    for name in ("a", "b"):
        cfg = alias_cfg(pipeline_ws, simulate=sim)
        rc, out = run_cli("simulate", tmp_path / name, cfg)
        assert rc == cli.EXIT_OK
        outs.append(out)
    for i in range(3):
        for kind in ("mesh", "yarn"):
            fa = os.path.join(outs[0], "frames", f"{kind}_{i:04d}.obj")
            fb = os.path.join(outs[1], "frames", f"{kind}_{i:04d}.obj")
            with open(fa, "rb") as a, open(fb, "rb") as b:
                assert a.read() == b.read(), (kind, i)


def test_simulate_twist_reports_det_deviation(pipeline_ws, tmp_path):
    cfg = alias_cfg(pipeline_ws,
                    simulate=dict(PIPELINE_CFG["simulate"], scenario="twist",
                                  steps=6, twist_angle=0.6))
    rc, out = run_cli("simulate", tmp_path / "twist", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "sim_report.json")
    assert rep["max_det_deviation"] == max(rep["det_deviation"])
    assert rep["max_det_deviation"] > 1e-6
    assert len(rep["det_deviation"]) == 6


def test_simulate_colliders_report_direct_solver_used(pipeline_ws, tmp_path):
    floor = {"kind": "plane", "point": [0.0, -1.0, 0.0], "normal": [0.0, 1.0, 0.0]}
    cfg = alias_cfg(pipeline_ws,
                    simulate={"scenario": "hold", "steps": 2, "dt": 1e-2,
                              "solver": "cms", "colliders": [floor]})
    rc, out = run_cli("simulate", tmp_path / "plane", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "sim_report.json")
    assert rep["solver"] == "cms"
    assert rep["solver_used"] == "direct"


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_sequences_all_zero(pipeline_ws, tmp_path):
    seq_dir = os.path.join(str(pipeline_ws), "sequence")
    cfg = {"paths": {"sim": seq_dir, "ref": seq_dir}}
    rc, out = run_cli("compare", tmp_path / "same", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "compare_report.json")
    assert rep["overall_rms"] == 0.0
    assert rep["max_frame_rms"] == 0.0


def test_compare_rigid_offset_rms_equals_offset(pipeline_ws, tmp_path):
    model, seq = yarn_model.read_sequence(
        os.path.join(str(pipeline_ws), "sequence"))
    offset = 0.037
    moved = yarn_model.YarnSequence(frames=seq.frames + [offset, 0.0, 0.0],
                                    dt=seq.dt, pins=seq.pins)
    moved_dir = tmp_path / "moved_seq"
    yarn_model.write_sequence(model, moved, str(moved_dir))
    cfg = {"paths": {"sim": str(moved_dir),
                     "ref": os.path.join(str(pipeline_ws), "sequence")}}
    rc, out = run_cli("compare", tmp_path / "offset", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "compare_report.json")
    assert rep["overall_rms"] == pytest.approx(offset, rel=1e-12)


def test_compare_fitted_replay_tracks_ground_truth(pipeline_ws):
    rep = read_report(pipeline_ws, "compare_report.json")
    assert rep["relative_rms"] <= 0.05
    assert len(rep["frame_rms"]) == 60


# ---------------------------------------------------------------------------
# config handling and provenance


def test_unknown_config_key_exits_2(tmp_path):
    rc, _ = run_cli("generate", tmp_path / "w", {"nonsense": 1})
    assert rc == cli.EXIT_USAGE


def test_malformed_config_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = cli.main(["generate", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_USAGE


def test_nonpositive_dt_exits_2(tmp_path):
    rc, _ = run_cli("generate", tmp_path / "dt", {"generate": {"dt": 0.0}})
    assert rc == cli.EXIT_USAGE


def test_console_entry_point_reports_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "volknit.cli", "generate", "--out",
         "/tmp/volknit_entry_test", "--config", "/nonexistent.json"],
        capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_USAGE
    assert "error:" in proc.stderr


def test_artifacts_carry_one_config_hash(pipeline_ws):
    chash = read_report(pipeline_ws, "config.resolved.json")["config_hash"]
    for name in ("generate_report.json", "mesh_report.json",
                 "fit_report.json", "sim_report.json",
                 "compare_report.json"):
        assert read_report(pipeline_ws, name)["config_hash"] == chash
    for name in ("material.csv", "convergence.csv", "timings.csv"):
        with open(os.path.join(str(pipeline_ws), name)) as fh:
            assert fh.readline().strip() == f"# config {chash}"


def test_mesh_mass_matches_yarn_mass(pipeline_ws):
    rep = read_report(pipeline_ws, "mesh_report.json")
    assert rep["node_mass"] == pytest.approx(rep["yarn_mass"], rel=1e-10)

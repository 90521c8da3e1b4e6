"""Pipeline front-end tests: every subcommand end to end on small synthetic
workspaces, the documented exit codes, artifact provenance, and the
fitted-material round trip against its own ground truth."""

import importlib.util
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
    truth = np.array([np.where(lo, ghi, glo), np.zeros(mesh.n_elements)])

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
        x, ok, _, _ = pdsolver.newton_polish(mesh, truth, x, dt=2e-2, pins=pins,
                                             pin_vals=pv, inertia_target=a,
                                             tol=1e-11, max_iters=300)
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


def test_generate_jittered_rib_pins_whole_end_columns(tmp_path):
    courses, wales = 4, 12
    cfg = {"yarn": {"kind": "rib", "courses": courses, "wales": wales,
                    "jitter": 1e-4},
           "generate": {"scenario": "stretch", "steps": 2, "dt": 2e-3,
                        "rod": PIPELINE_CFG["generate"]["rod"]}}
    rc, out = run_cli("generate", tmp_path / "jitter", cfg)
    assert rc == cli.EXIT_OK
    _, seq = yarn_model.read_sequence(os.path.join(out, "sequence"))
    ends = [c * wales + w for c in range(courses) for w in (0, wales - 1)]
    assert len(seq.pins) == 2 * courses
    assert sorted(seq.pins) == ends


def test_generate_bad_yarn_path_exits_2(tmp_path):
    cfg = {"paths": {"yarn_file": str(tmp_path / "no_such_file.obj")}}
    rc, _ = run_cli("generate", tmp_path / "bad", cfg)
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("text", [
    "yarn 3 1\nv 0 0 0\nv 1 0 0\nl 0 1 2\n",      # one vertex short
    "yarn 2\nv 0 0 0\nv 1 0 0\nl 0 1\n",          # header without a count
    "yarn 2 1\nv 0 0 zero\nv 1 0 0\nl 0 1\n",     # non-numeric coordinate
    "yarn 2 1\nv 0 0 0\nv 1 0 0\nl 0 5\n",        # missing vertex
], ids=["count", "header", "coordinate", "index"])
def test_generate_malformed_yarn_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.yarn"
    path.write_text(text)
    rc, _ = run_cli("generate", tmp_path / "bad", {"paths": {"yarn_file": str(path)}})
    assert rc == cli.EXIT_USAGE
    assert f"error: cannot read yarn file {path}" in capsys.readouterr().err


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


def test_fit_report_counts_equilibrium_solves(block_ws):
    rep = read_report(block_ws, "fit_report.json")
    eq = rep["equilibrium"]
    assert set(eq) == {"cold", "warm", "newton_iters", "unconverged",
                       "max_residual", "ridges"}
    assert all(np.isfinite(v) and v >= 0 for v in eq.values())
    # cold, once per sample each: the first evaluation of the staged fit,
    # which also gives the initial loss, and the final loss; the full-space
    # pass continues warm from the staged states, and every trial is warm
    # and takes at least one Newton step
    assert eq["cold"] == 2 * rep["total"]
    assert eq["warm"] >= 1
    assert eq["newton_iters"] >= eq["warm"]
    assert eq["unconverged"] <= eq["cold"] + eq["warm"]
    # every gated state is some solve's final state
    assert eq["max_residual"] >= rep["gate_max_residual"]
    if eq["unconverged"] == 0:
        assert eq["max_residual"] < 1e-6


def test_fit_warm_solves_are_the_line_search_trials(block_ws):
    # every warm solve is a line-search trial of some sample: GD tries its
    # fixed step once, an accepted GN step took log2(1/t) halvings before
    # its trial, and a rejected one tried MAX_HALVINGS + 1 points
    rep = read_report(block_ws, "fit_report.json")
    with open(os.path.join(str(block_ws), "convergence.csv")) as fh:
        rows = [line.split(",") for line in fh if line[:1].isdigit()]
    trials = 0
    for _, phase, _, step, _ in rows:
        t = float(step) / fitting.GN_STEP
        if phase == "gd":
            trials += 1
        elif t > 0.0:
            trials += round(np.log2(1.0 / t)) + 1
        else:
            trials += fitting.MAX_HALVINGS + 1
    assert trials > len(rows) > 0
    assert rep["equilibrium"]["warm"] == trials * rep["total"]


def test_fit_report_counts_gauss_newton_solves(block_ws):
    gn = read_report(block_ws, "fit_report.json")["gauss_newton"]
    assert set(gn) == {"solves", "escalations", "exhausted"}
    with open(os.path.join(str(block_ws), "convergence.csv")) as fh:
        gn_rows = sum(1 for line in fh if line.split(",")[1:2] == ["gn"])
    # each GN row took one direction: a solve that succeeded, or the
    # gradient after five failed ones
    assert gn["solves"] - gn["escalations"] + gn["exhausted"] == gn_rows > 0


def test_fit_keeps_every_coefficient_on_or_above_the_floor(block_ws):
    gam = cli.read_material(os.path.join(str(block_ws), "material.csv"))
    assert gam.min() >= mat.GAMMA_FLOOR


def test_fit_recovers_block_contrast(block_ws):
    gam = cli.read_material(os.path.join(str(block_ws), "material.csv"))
    mesh = volmesh.read_mesh(os.path.join(str(block_ws), "mesh"))
    vox_ix = mesh.voxels[mesh.tet_voxel][:, 0]
    lo = vox_ix <= np.median(np.unique(vox_ix))
    hard = np.median(gam[0, lo])
    soft = np.median(gam[0, ~lo])
    assert hard > 2.0 * soft


def test_second_fit_in_one_process_writes_the_same_bytes(block_ws):
    # the material module keeps decompositions across calls; nothing kept
    # from the fixture's fit or from the tests between may reach a later fit
    def outputs():
        return [open(os.path.join(str(block_ws), name), "rb").read()
                for name in ("material.csv", "convergence.csv")]

    first = outputs()
    rc, _ = run_cli("fit", block_ws, BLOCK_FIT)
    assert rc == cli.EXIT_OK
    assert outputs() == first


def test_fit_two_samples_in_one_pass(block_ws, tmp_path):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], samples=[2, 3]))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "two", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "fit_report.json")
    assert rep["total"] == 2
    assert [r["index"] for r in rep["samples"]] == [2, 3]
    assert "completed" not in rep
    assert not os.path.exists(os.path.join(out, "fit_state.json"))


@pytest.mark.parametrize("key,value", [("resume", True), ("max_samples", 1)])
def test_removed_fit_keys_exit_2(tmp_path, capsys, key, value):
    rc, _ = run_cli("fit", tmp_path / "w", {"fit": {key: value}})
    assert rc == cli.EXIT_USAGE
    assert f"unknown config key 'fit.{key}'" in capsys.readouterr().err


def test_fit_empty_sample_list_exits_2(block_ws, tmp_path):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], samples=[]))
    rc, _ = run_cli("fit", tmp_path / "empty", cfg)
    assert rc == cli.EXIT_USAGE


def test_fit_out_of_range_sample_exits_2(block_ws, tmp_path):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], samples=[99]))
    rc, _ = run_cli("fit", tmp_path / "range", cfg)
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("cmd,section,key,value,match", [
    ("fit", "fit", "samples", ["a"], "fit.samples must be null or a non-empty list of integers"),
    ("fit", "fit", "samples", [3.7], "fit.samples must be null or a non-empty list of integers"),
    ("fit", "fit", "samples", [True], "fit.samples must be null or a non-empty list of integers"),
    ("fit", "fit", "samples", 3, "fit.samples must be null or a non-empty list of integers"),
    ("fit", "fit", "samples", [2, 3, 2], "fit.samples must not repeat a frame"),
    ("compare", "compare", "frames", [1.5], "compare.frames must be null or a non-empty list of integers"),
    ("compare", "compare", "frames", "all", "compare.frames must be null or a non-empty list of integers"),
    ("compare", "compare", "frames", [], "compare.frames must be null or a non-empty list of integers"),
], ids=["string", "float", "bool", "scalar", "duplicate", "frame-float", "frame-string",
        "frame-empty"])
def test_malformed_frame_lists_exit_2(tmp_path, capsys, cmd, section, key, value, match):
    with pytest.raises(cli.ConfigError, match=match):
        cli.validate_config(cli.load_config({section: {key: value}}))
    rc, _ = run_cli(cmd, tmp_path / "w", {section: {key: value}})
    assert rc == cli.EXIT_USAGE
    assert f"error: {match}" in capsys.readouterr().err


def test_sample_stride_with_explicit_samples_exits_2(tmp_path, capsys):
    for fit in ({"samples": [1, 3]}, {"sample_stride": 2},
                {"samples": [1], "sample_stride": 1}):
        cli.validate_config(cli.load_config({"fit": fit}))
    fit = {"samples": [1, 3], "sample_stride": 2}
    with pytest.raises(cli.ConfigError, match="fit.sample_stride"):
        cli.validate_config(cli.load_config({"fit": fit}))
    rc, _ = run_cli("fit", tmp_path / "w", {"fit": fit})
    assert rc == cli.EXIT_USAGE
    assert "fit.sample_stride applies only when fit.samples is null" in \
        capsys.readouterr().err


def test_fit_loss_ceiling_violation_exits_3(block_ws, tmp_path, capsys):
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"], loss_ceiling=1e-30))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "ceiling", cfg)
    assert rc == cli.EXIT_NUMERIC
    rep = assert_failed_without_material(out, capsys, "above ceiling")
    assert rep["final_loss"] > 1e-30


def test_fit_missing_the_gate_reports_and_exits_3(block_ws, tmp_path, monkeypatch,
                                                  capsys):
    # no residual is below a zero gate, so the first adjoint gradient raises
    monkeypatch.setattr(fitting, "EQ_GATE", 0.0)
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"]))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "gate", cfg)
    assert rc == cli.EXIT_NUMERIC
    assert "error: adjoint evaluation rejected: residual" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "material.csv"))
    rep = read_report(out, "fit_report.json")
    assert rep["failed"] is True
    assert rep["error"].startswith("adjoint evaluation rejected: residual")
    assert rep["failed_sample"] == BLOCK_FIT["fit"]["samples"][0]
    assert (rep["gate_evaluations"], rep["gate_violations"]) == (1, 1)
    assert rep["gate_max_residual"] >= 0.0
    eq = rep["equilibrium"]
    assert (eq["cold"], eq["warm"]) == (rep["total"], 0) == (1, 0)
    assert rep["gauss_newton"]["solves"] == 0
    assert rep["elapsed_s"] > 0.0


def test_failed_fit_leaves_no_earlier_material(block_ws, tmp_path, monkeypatch, capsys):
    # a re-fit that fails removes the earlier fit's material, so simulate
    # cannot run on it
    out = tmp_path / "refit"
    out.mkdir()
    shutil.copy(os.path.join(str(block_ws), "material.csv"), out / "material.csv")
    monkeypatch.setattr(fitting, "EQ_GATE", 0.0)
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"]))
    cfg["paths"]["material"] = None
    rc, _ = run_cli("fit", out, cfg)
    assert rc == cli.EXIT_NUMERIC
    assert not os.path.exists(out / "material.csv")
    capsys.readouterr()
    rc, _ = run_cli("simulate", out, cfg)
    assert rc == cli.EXIT_USAGE
    assert "cannot read material file" in capsys.readouterr().err


def assert_failed_without_material(out, capsys, error):
    """A fit that exits 3 reports why, as on stderr, and leaves its
    convergence rows but no material that simulate could run on."""
    rep = read_report(out, "fit_report.json")
    assert rep["failed"] is True and error in rep["error"]
    assert f"error: {rep['error']}\n" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "material.csv"))
    assert os.path.exists(os.path.join(out, "convergence.csv"))
    return rep


def quick_fit(stalled):
    """A fit_sample stand-in that returns gamma0 (floored) at once."""
    def fit(problem, samples, gamma0, **kw):
        gamma = np.maximum(np.asarray(gamma0, dtype=float), mat.GAMMA_FLOOR)
        eqs = [fitting.Equilibrium(s.x_init.copy(), 0.0, True, problem.loss(s.x_init, s))
               for s in samples]
        return fitting.FitResult(gamma=gamma, loss=1.0, equilibria=eqs,
                                 losses=[1.0] if stalled else [2.0, 1.0],
                                 stalled=stalled)
    return fit


def test_fit_all_samples_stalled_exits_3(block_ws, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fitting, "fit_sample", quick_fit(stalled=True))
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"]))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "stall", cfg)
    assert rc == cli.EXIT_NUMERIC
    rep = assert_failed_without_material(out, capsys, "stalled without lowering the loss")
    assert rep["failed"] is True
    assert all(r["stalled"] for r in rep["samples"])


def test_fit_reports_and_checks_the_summed_loss(block_ws, tmp_path, monkeypatch,
                                                capsys):
    # the fit minimizes the sum of the per-sample losses, so the report and
    # the ceiling use that sum; the stub leaves gamma_init as the field
    monkeypatch.setattr(fitting, "fit_sample", quick_fit(stalled=False))
    fit = dict(BLOCK_FIT["fit"], samples=[2, 3])
    cfg = alias_cfg(block_ws, fit=fit)
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "sum", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "fit_report.json")
    finals = rep["final_losses"]
    assert len(finals) == 2 and min(finals) > 0.0
    assert rep["final_loss"] == sum(finals)
    # a ceiling above every sample's loss but below their sum fails the fit
    cfg["fit"]["loss_ceiling"] = 0.5 * (max(finals) + sum(finals))
    rc, out = run_cli("fit", tmp_path / "over", cfg)
    assert rc == cli.EXIT_NUMERIC
    assert "above ceiling" in capsys.readouterr().err
    cfg["fit"]["loss_ceiling"] = sum(finals)
    rc, out = run_cli("fit", tmp_path / "at", cfg)
    assert rc == cli.EXIT_OK


def test_fit_unconverged_final_solve_exits_3(block_ws, tmp_path, monkeypatch,
                                             capsys):
    # with the fit itself stubbed, the only equilibrium solves left are the
    # final losses of the blended field; none of them converges
    monkeypatch.setattr(fitting, "fit_sample", quick_fit(stalled=False))
    monkeypatch.setattr(
        fitting.FitProblem, "solve_equilibrium",
        lambda self, gammas, sample, x0=None, **kw: fitting.Equilibrium(
            sample.x_init.copy(), 1.0, False, self.loss(sample.x_init, sample)))
    cfg = alias_cfg(block_ws, fit=dict(BLOCK_FIT["fit"]))
    cfg["paths"]["material"] = None
    rc, out = run_cli("fit", tmp_path / "unconverged", cfg)
    assert rc == cli.EXIT_NUMERIC
    # an unconverged final solve fails the fit
    rep = assert_failed_without_material(out, capsys, "did not converge for samples [3]")
    assert rep["failed"] is True
    assert rep["final_unconverged"] == 1


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


def test_write_obj_bytes_match_the_per_coordinate_writer(tmp_path):
    import oracles
    rng = np.random.default_rng(7)
    V = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-300, 300, size=(60, 3))
    V[:4] = [[0.0, -0.0, 1.0], [np.inf, -np.inf, np.nan],
             [5e-324, 1e-310, 0.1], [1.0 / 3.0, 2.0 / 3.0, 1e16]]
    faces = rng.integers(0, 60, size=(40, 3))
    lines = [[0, 1, 2], np.arange(3, 50), np.array([50, 51])]
    for kw in ({}, dict(faces=faces, comment="config abc"), dict(lines=lines),
               dict(faces=faces, lines=lines), dict(faces=faces[:0], lines=[])):
        for verts in (V, V[:0]):
            volmesh.write_obj(tmp_path / "block.obj", verts, **kw)
            oracles.write_obj(tmp_path / "loop.obj", verts, **kw)
            assert ((tmp_path / "block.obj").read_bytes()
                    == (tmp_path / "loop.obj").read_bytes())


def test_simulate_reports_fallback_counters(pipeline_ws):
    # a mild stretch squares every F and keeps every Newton root
    rep = read_report(pipeline_ws, "sim_report.json")
    counters = rep["counters"]
    assert set(counters) == set(mat.COUNTS)
    assert all(type(v) is int for v in counters.values())
    mesh = volmesh.read_mesh(os.path.join(str(pipeline_ws), "mesh"))
    sim = PIPELINE_CFG["simulate"]
    assert 0 < counters["rows"] <= sim["steps"] * sim["pd_iters"] * mesh.n_elements
    assert counters["svd_lapack_rows"] == 0
    assert counters["sl3_bracketed_rows"] == 0


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


def test_simulate_polish_tol_changes_replay(pipeline_ws, tmp_path):
    frames, reports = [], []
    for name, tol in (("plain", None), ("polished", 1e-9)):
        sim = dict(PIPELINE_CFG["simulate"], steps=3, polish_tol=tol)
        rc, out = run_cli("simulate", tmp_path / name,
                          alias_cfg(pipeline_ws, simulate=sim))
        assert rc == cli.EXIT_OK
        frames.append(yarn_model.read_sequence(
            os.path.join(out, "sim_yarn"))[1].frames)
        reports.append(read_report(out, "sim_report.json"))
    assert np.all(np.isfinite(frames[1]))
    assert not np.array_equal(frames[0], frames[1])
    assert reports[0]["polish_iters"] == []
    assert reports[0]["polish_unconverged"] == 0
    # one polish per step; the exact-Jacobian Newton reaches the tolerance
    # on every step, well inside newton_polish's default cap of 20
    iters = reports[1]["polish_iters"]
    assert len(iters) == 3 and all(1 <= it < 20 for it in iters)
    assert reports[1]["polish_unconverged"] == 0


def test_simulate_colliders_report_direct_solver_used(pipeline_ws, tmp_path,
                                                      monkeypatch):
    # under colliders the base solver is direct, so no CMS basis is built
    calls = []
    build_cms = pdsolver.build_cms
    monkeypatch.setattr(pdsolver, "build_cms",
                        lambda *a, **k: calls.append(1) or build_cms(*a, **k))
    floor = {"kind": "plane", "point": [0.0, -1.0, 0.0], "normal": [0.0, 1.0, 0.0]}
    cfg = alias_cfg(pipeline_ws,
                    simulate={"scenario": "hold", "steps": 2, "dt": 1e-2,
                              "solver": "cms", "colliders": [floor]})
    rc, out = run_cli("simulate", tmp_path / "plane", cfg)
    assert rc == cli.EXIT_OK
    rep = read_report(out, "sim_report.json")
    assert rep["solver"] == "cms"
    assert rep["solver_used"] == "direct"
    assert calls == []


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


@pytest.mark.parametrize("user,match", [
    ({"simulate": {"pd_iters": "30"}}, "simulate.pd_iters must be an integer, not '30'"),
    ({"simulate": {"pd_iters": 30.0}}, "simulate.pd_iters must be an integer"),
    ({"simulate": {"dt": None}}, "simulate.dt must be a number, not None"),
    ({"generate": {"rod": {"damping": True}}}, "generate.rod.damping must be a number"),
    ({"mesh": {"cell_size": "0.03"}}, "mesh.cell_size must be a number"),
    ({"seed": [1]}, "seed must be an integer"),
    ({"fit": 3}, "'fit' must be an object"),
    ({"fit": {"gamma_init": ["a", 1]}}, "fit.gamma_init entries must be a number, not 'a'"),
    ({"fit": {"gamma_init": [1.0, -1.0]}}, "fit.gamma_init entries must be at least 0"),
    ({"generate": {"gravity": [0, 0]}}, "generate.gravity must be a list of 3 numbers"),
    ({"generate": {"dt": float("nan")}}, "generate.dt must be finite, not nan"),
    ({"generate": {"dt": float("inf")}}, "generate.dt must be finite, not inf"),
    ({"simulate": {"dt": float("inf")}}, "simulate.dt must be finite, not inf"),
    ({"fit": {"alpha": 0}}, "fit.alpha must be positive"),
    ({"yarn": {"linear_density": 0.0}}, "yarn.linear_density must be positive"),
    ({"yarn": {"strand_length": 0.0}}, "yarn.strand_length must be positive"),
    ({"generate": {"rod": {"contacts": "no"}}}, "generate.rod.contacts must be true or false"),
    ({"fit": {"use_inertia": "no"}}, "fit.use_inertia must be true or false"),
    ({"paths": {"mesh": 5}}, "paths.mesh must be a string, not 5"),
    ({"yarn": {"course_spacing": 0}}, "yarn.course_spacing must be positive"),
    ({"yarn": {"wale_spacing": -0.01}}, "yarn.wale_spacing must be positive"),
    ({"generate": {"rod": {"stretch_stiffness": 0.0}}},
     "generate.rod.stretch_stiffness must be positive"),
    ({"simulate": {"damping": 1.5}}, "simulate.damping must be at least 0 and at most 1"),
    ({"generate": {"rod": {"damping": 1.5}}},
     "generate.rod.damping must be at least 0 and at most 1"),
], ids=["string-count", "float-count", "null-dt", "bool-float", "string-nullable", "list-seed",
        "scalar-section", "string-entry", "negative-entry", "short-list", "nan-dt", "inf-dt",
        "inf-simulate-dt", "zero-alpha", "zero-density", "zero-length", "string-bool",
        "string-inertia", "number-path", "zero-course-spacing", "negative-wale-spacing",
        "zero-stretch-stiffness", "simulate-damping-above-one", "rod-damping-above-one"])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, user, match):
    with pytest.raises(cli.ConfigError, match=match):
        cli.validate_config(cli.load_config(user))
    rc, _ = run_cli("generate", tmp_path / "w", user)
    assert rc == cli.EXIT_USAGE
    assert match.split()[0].strip("'") in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("simulate", "scenario", "shear"),
    ("simulate", "solver", "multigrid"),
    ("generate", "scenario", "drop"),
    ("simulate", "aggregation", 4),
    ("simulate", "aggregation", 1),
    ("yarn", "kind", "garter"),
])
def test_validate_config_rejects_unknown_enum(section, key, value):
    cfg = cli.load_config()
    cfg[section][key] = value
    with pytest.raises(cli.ConfigError, match=f"{section}.{key}"):
        cli.validate_config(cfg)


@pytest.mark.parametrize("name,least", [
    ("simulate.domains", 1), ("simulate.modes_per_domain", 1), ("simulate.pd_iters", 1),
    ("generate.rod.pd_iters", 1), ("yarn.courses", 1), ("yarn.wales", 2),
    ("yarn.strand_vertices", 2), ("simulate.refine_sweeps", 0), ("fit.gd_iters", 0),
    ("fit.gn_iters", 0), ("yarn.jitter", 0), ("yarn.radius", 0), ("yarn.rib_period", 1),
    ("seed", 0), ("generate.rod.bend_stiffness", 0), ("generate.rod.contact_stiffness", 0),
    ("generate.rod.damping", 0), ("simulate.damping", 0),
])
def test_validate_config_rejects_counts_below_minimum(name, least):
    cfg = cli.load_config()
    *path, key = name.split(".")
    section = cfg
    for part in path:
        section = section[part]
    section[key] = least
    cli.validate_config(cfg)
    section[key] = least - 1
    with pytest.raises(cli.ConfigError, match=f"{name} must be at least {least}"):
        cli.validate_config(cfg)


@pytest.mark.parametrize("user", [{"generate": {"rod": {"damping": 1.0}}},
                                  {"simulate": {"damping": 1.0}}], ids=["rod", "simulate"])
def test_validate_config_accepts_damping_of_one(user):
    cli.validate_config(cli.load_config(user))


@pytest.mark.parametrize("ranks", [[0, None], [-1, None], [1.5, None], [True], [], "full",
                                   [1, 1, None], [None, None]],
                         ids=["zero", "negative", "float", "bool", "empty", "string",
                              "repeated-rank", "repeated-full"])
def test_validate_config_rejects_bad_ranks(ranks):
    cfg = cli.load_config()
    for good in ([1, None], [None], [30]):
        cfg["fit"]["ranks"] = good
        cli.validate_config(cfg)
    cfg["fit"]["ranks"] = ranks
    with pytest.raises(cli.ConfigError, match="fit.ranks"):
        cli.validate_config(cfg)


def test_every_benchmark_config_validates():
    # perfbench/workloads.py is only read, as test_tracer_targets reads the
    # tracer, so the benchmark's configs are checked without running it
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            for seed in (1, 2, 3):
                for cfg in workloads.plan(workload, seed, scale)[0].values():
                    cli.validate_config(cli.load_config(cfg))


def test_zero_rank_exits_2(tmp_path):
    rc, _ = run_cli("generate", tmp_path / "w", {"fit": {"ranks": [0, None]}})
    assert rc == cli.EXIT_USAGE


PLANE = {"kind": "plane", "point": [0.0, -1.0, 0.0], "normal": [0.0, 1.0, 0.0]}
SPHERE = {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.05}


@pytest.mark.parametrize("section,collider,match", [
    ("simulate", [0.0, 1.0, 0.0], r"simulate.colliders\[1\] must be an object"),
    ("generate", {"kind": "plane", "normal": [0.0, 1.0, 0.0]}, "lacks 'point'"),
    ("simulate", {"kind": "plane", "point": [0.0, 0.0, 0.0]}, "lacks 'normal'"),
    ("generate", {"kind": "sphere", "radius": 0.05}, "lacks 'center'"),
    ("simulate", {"kind": "sphere", "center": [0.0, 0.0, 0.0]}, "lacks 'radius'"),
    ("simulate", dict(PLANE, normal=[0.0, 0.0, 0.0]), "normal must have a non-zero"),
    ("generate", dict(PLANE, normal=[0.0, float("nan"), 0.0]), "normal must be finite"),
    ("simulate", dict(SPHERE, radius=0.0), "radius must be positive"),
    ("generate", dict(SPHERE, radius=-0.05), "radius must be positive"),
    ("simulate", dict(SPHERE, radius=float("inf")), "radius must be finite"),
], ids=["non-object", "plane-no-point", "plane-no-normal", "sphere-no-center",
        "sphere-no-radius", "zero-normal", "nan-normal", "zero-radius",
        "negative-radius", "inf-radius"])
def test_bad_collider_exits_2(tmp_path, capsys, section, collider, match):
    cfg = cli.load_config()
    cfg[section]["colliders"] = [PLANE, collider]
    with pytest.raises(cli.ConfigError, match=match):
        cli.validate_config(cfg)
    rc, _ = run_cli("simulate", tmp_path / "c", {section: {"colliders": [PLANE, collider]}})
    assert rc == cli.EXIT_USAGE
    assert f"error: {section}.colliders[1]" in capsys.readouterr().err


def test_polish_tol_with_colliders_exits_2(tmp_path, capsys):
    sim = {"polish_tol": 1e-9, "colliders": [PLANE]}
    with pytest.raises(cli.ConfigError, match="simulate.polish_tol .*simulate.colliders"):
        cli.validate_config(cli.load_config({"simulate": sim}))
    rc, _ = run_cli("simulate", tmp_path / "w", {"simulate": sim})
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "simulate.polish_tol" in err and "simulate.colliders" in err


def _run_python(*args):
    """Run the interpreter on the same volknit package this test imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_console_entry_point_reports_usage_errors():
    proc = _run_python("-m", "volknit.cli", "generate", "--out",
                       "/tmp/volknit_entry_test", "--config", "/nonexistent.json")
    assert proc.returncode == cli.EXIT_USAGE
    assert "error:" in proc.stderr


def test_cli_import_leaves_scipy_spatial_out():
    # only yarn contacts need scipy.spatial, and importing it costs every
    # process about 0.14 s
    proc = _run_python("-c", "import sys, volknit.cli; "
                       "print('scipy.spatial' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("rows,match", [
    ("0,1.0\n", "cannot read material file {path}"),
    ("0,1.0,one\n", "cannot read material file {path}"),
    ("0,1.0,2.0\n1,1.0,2.0,3.0\n", "cannot read material file {path}"),
    ("0,1.0,2.0\n1,-0.5,2.0\n", "material {path}: element 1 has a negative or non-finite"),
    ("0,1.0,nan\n", "material {path}: element 0 has a negative or non-finite"),
], ids=["two-fields", "non-numeric", "four-fields", "negative", "nan"])
def test_simulate_malformed_material_file_exits_2(pipeline_ws, tmp_path, capsys, rows, match):
    path = tmp_path / "material.csv"
    path.write_text("# config 0\nelement,gamma_s,gamma_v\n" + rows)
    cfg = alias_cfg(pipeline_ws)
    cfg["paths"]["material"] = str(path)
    rc, _ = run_cli("simulate", tmp_path / "w", cfg)
    assert rc == cli.EXIT_USAGE
    assert "error: " + match.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["fit", "simulate", "compare"])
def test_sequence_without_frame_stack_exits_2(pipeline_ws, tmp_path, cmd, capsys):
    # a sequence/ directory written before frames.npy existed
    old = tmp_path / "old_sequence"
    shutil.copytree(os.path.join(str(pipeline_ws), "sequence"), old)
    os.remove(old / yarn_model.FRAMES)
    cfg = alias_cfg(pipeline_ws)
    cfg["paths"].update(sequence=str(old), sim=str(old), ref=str(old))
    rc, _ = run_cli(cmd, tmp_path / "w", cfg)
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and yarn_model.FRAMES in err


def test_artifacts_carry_one_config_hash(pipeline_ws):
    chash = read_report(pipeline_ws, "config.resolved.json")["config_hash"]
    for name in ("generate_report.json", "mesh_report.json",
                 "fit_report.json", "sim_report.json",
                 "compare_report.json"):
        assert read_report(pipeline_ws, name)["config_hash"] == chash
    for name in ("material.csv", "convergence.csv", "timings.csv"):
        with open(os.path.join(str(pipeline_ws), name)) as fh:
            assert fh.readline().strip() == f"# config {chash}"


def test_config_hash_covers_the_user_config_alone(pipeline_ws, tmp_path, monkeypatch):
    seq_dir = os.path.join(str(pipeline_ws), "sequence")
    path = tmp_path / "compare.json"
    path.write_text(json.dumps({"paths": {"sim": seq_dir, "ref": seq_dir}}))

    def run(name, *extra):
        out = tmp_path / name
        rc = cli.main(["compare", "--config", str(path), "--out", str(out), *extra])
        assert rc == cli.EXIT_OK
        resolved = read_report(out, "config.resolved.json")
        assert read_report(out, "compare_report.json")["config_hash"] == resolved["config_hash"]
        return resolved

    base = run("base")
    monkeypatch.setitem(cli.DEFAULTS["fit"], "new_default", 1)
    widened = run("widened")
    # the new default reaches the resolved config but not the hash
    assert widened["config"]["fit"]["new_default"] == 1
    assert widened["config_hash"] == base["config_hash"]
    seeded = run("seeded", "--seed", "7")
    assert seeded["config"]["seed"] == 7
    assert seeded["config_hash"] != base["config_hash"]


def test_mesh_mass_matches_yarn_mass(pipeline_ws):
    rep = read_report(pipeline_ws, "mesh_report.json")
    assert rep["node_mass"] == pytest.approx(rep["yarn_mass"], rel=1e-10)

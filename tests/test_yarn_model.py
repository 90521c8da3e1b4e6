"""Yarn model and rod simulator: frame construction, dynamics invariants,
and an independent energy-minimization oracle for static equilibria."""

import json
import os

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from volknit import pdsolver
from volknit import yarn_model as ym


# ---------------------------------------------------------------------------
# segment normals: the parallel-transport reference in oracles.py


def test_normals_straight_strand():
    y = ym.straight_strand(6, 1.0, axis=(1, 0, 0))
    normals = oracles.compute_segment_normals(y)
    for s in range(y.n_segments):
        assert np.abs(normals[s, 0] - [0, 1, 0]).max() < 1e-12
        assert np.abs(normals[s, 1] - [0, 0, 1]).max() < 1e-12


def test_normals_planar_elbow():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float)
    y = ym.YarnModel(pts, [np.arange(3)])
    normals = oracles.compute_segment_normals(y)
    # out-of-plane normal survives the 90 degree turn exactly
    assert np.abs(normals[0, 1] - [0, 0, 1]).max() < 1e-12
    assert np.abs(normals[1, 1] - [0, 0, 1]).max() < 1e-12


def test_normals_helix_orthonormal():
    t = np.linspace(0.0, 4.0 * np.pi, 21)
    pts = np.stack([np.cos(t), np.sin(t), 0.15 * t], axis=1)
    y = ym.YarnModel(pts, [np.arange(21)])
    normals = oracles.compute_segment_normals(y)
    d = y.rest_vertices[y.segments[:, 1]] - y.rest_vertices[y.segments[:, 0]]
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    n1 = normals[:, 0]
    n2 = normals[:, 1]
    # explicit Gram-Schmidt oracle per segment
    for s in range(y.n_segments):
        g1 = n1[s] - (n1[s] @ d[s]) * d[s]
        g1 /= np.linalg.norm(g1)
        assert np.abs(g1 - n1[s]).max() < 1e-12
        assert abs(n1[s] @ n1[s] - 1.0) < 1e-12
        assert abs(n2[s] @ n2[s] - 1.0) < 1e-12
        assert abs(n1[s] @ d[s]) < 1e-12
        assert abs(n2[s] @ d[s]) < 1e-12
        assert abs(n1[s] @ n2[s]) < 1e-12
        assert np.abs(np.cross(d[s], n1[s]) - n2[s]).max() < 1e-12


def test_normals_reject_degenerate():
    pts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=float)
    with pytest.raises(ValueError):
        ym.YarnModel(pts, [np.arange(3)])


# ---------------------------------------------------------------------------
# model bookkeeping


def test_mass_bookkeeping():
    y = ym.straight_strand(5, 1.0, linear_density=2.0)
    assert abs(oracles.total_mass(y) - 2.0) < 1e-12
    m = y.vertex_mass()
    assert abs(m.sum() - 2.0) < 1e-12
    assert abs(m[0] - 0.25) < 1e-12          # half of one quarter-length segment
    assert abs(m[2] - 0.5) < 1e-12


def test_density_per_polyline():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    y = ym.YarnModel(pts, [np.array([0, 1]), np.array([2, 3])], linear_density=[1.0, 3.0])
    assert np.array_equal(y.segment_density(), [1.0, 3.0])
    with pytest.raises(ValueError):
        ym.YarnModel(pts, [np.array([0, 1])], linear_density=[1.0, 2.0])


def test_bad_polyline_index():
    with pytest.raises(ValueError):
        ym.YarnModel(np.zeros((2, 3)), [np.array([0, 5])])


# ---------------------------------------------------------------------------
# simulator


def test_rest_is_equilibrium():
    y = ym.straight_strand(12, 0.5)
    seq = ym.simulate_yarn(y, 5, 0.01, params=ym.RodParams(contacts=False))
    assert np.abs(seq.frames[-1] - y.rest_vertices).max() < 1e-12


def test_momentum_conservation():
    y = ym.straight_strand(12, 0.5)
    prm = ym.RodParams(contacts=False, damping=1.0)
    seq = ym.simulate_yarn(y, 20, 0.01, params=prm)
    m = y.vertex_mass()
    com0 = (m[:, None] * y.rest_vertices).sum(0) / m.sum()
    com1 = (m[:, None] * seq.frames[-1]).sum(0) / m.sum()
    assert np.abs(com1 - com0).max() < 1e-10


def test_pins_exact_and_determinism():
    y = ym.straight_strand(10, 0.4)
    f = np.tile([0.0, 0.0, -0.2], (10, 1)) * y.vertex_mass()[:, None]
    prm = ym.RodParams(contacts=False)
    a = ym.simulate_yarn(y, 15, 0.01, forces=f, pins=[0, 9], params=prm)
    b = ym.simulate_yarn(y, 15, 0.01, forces=f, pins=[0, 9], params=prm)
    assert np.array_equal(a.frames, b.frames)
    for fr in a.frames:
        assert np.abs(fr[0] - y.rest_vertices[0]).max() == 0.0
        assert np.abs(fr[9] - y.rest_vertices[9]).max() == 0.0


@pytest.mark.parametrize("rows", [9, 2])
@pytest.mark.parametrize("path", ["pins", "forces"])
def test_path_of_wrong_length_rejected_before_first_step(rows, path, monkeypatch):
    # a per-step path must hold one row per step: longer is not truncated,
    # shorter does not run out mid-simulation
    y = ym.straight_strand(10, 0.4)
    stepped = []
    monkeypatch.setattr(ym, "collider_targets",
                        lambda x, c: stepped.append(1) or (np.empty(0, dtype=int), x[:0]))
    kw = dict(pins=[0, 9], pin_targets=np.zeros((rows, 2, 3))) if path == "pins" else \
        dict(forces=np.zeros((rows, 10, 3)))
    with pytest.raises(ValueError):
        ym.simulate_yarn(y, 4, 0.01, params=ym.RodParams(contacts=False),
                         colliders=[("sphere", (0.0, 0.0, 5.0), 0.1)], **kw)
    assert not stepped


def test_stretch_ten_percent():
    n = 11
    y = ym.straight_strand(n, 1.0)
    targets = np.array([y.rest_vertices[0], y.rest_vertices[-1] + [0.1, 0, 0]])
    prm = ym.RodParams(contacts=False, damping=0.75, pd_iters=40, bend_stiffness=0.0)
    seq = ym.simulate_yarn(y, 400, 0.01, pins=[0, n - 1], pin_targets=targets, params=prm)
    x = seq.frames[-1]
    d = x[y.segments[:, 1]] - y.rest_vertices[y.segments[:, 0]]
    seg_len = np.linalg.norm(x[y.segments[:, 1]] - x[y.segments[:, 0]], axis=1)
    strain = seg_len / y.rest_lengths - 1.0
    assert strain.min() >= -1e-9
    total = seg_len.sum()
    assert abs(total - 1.1) < 1e-6


def test_hanging_equilibrium_vs_minimization_oracle():
    g = np.array([0.0, 0.0, -9.81])
    y = ym.straight_strand(10, 0.3, axis=(1, 0, 0))
    forces = y.vertex_mass()[:, None] * g
    prm = ym.RodParams(stretch_stiffness=200.0, bend_stiffness=0.05,
                       contacts=False, damping=0.8, pd_iters=40)
    seq = ym.simulate_yarn(y, 2200, 0.005, forces=forces, pins=[0], params=prm)
    xs = seq.frames[-1]

    pin = y.rest_vertices[0]

    def obj(z):
        return oracles.rod_energy(y, np.vstack([pin, z.reshape(-1, 3)]), prm, forces)

    res = minimize(obj, y.rest_vertices[1:].ravel(), method="L-BFGS-B",
                   options=dict(maxiter=20000, ftol=1e-18, gtol=1e-14))
    xo = np.vstack([pin, res.x.reshape(-1, 3)])
    scale = np.abs(xo - y.rest_vertices).max()
    assert np.abs(xs - xo).max() / scale < 1e-4


def test_rigid_invariance_of_energy(rng):
    y = ym.straight_strand(8, 0.3)
    x = y.rest_vertices + 0.01 * rng.normal(size=(8, 3))
    prm = ym.RodParams(contacts=False)
    e0 = oracles.rod_energy(y, x, prm)
    from conftest import random_rotation
    Q = random_rotation(rng)
    e1 = oracles.rod_energy(y, x @ Q.T + np.array([0.3, -0.2, 0.9]), prm)
    assert abs(e1 - e0) < 1e-10 * max(1.0, abs(e0))


def test_divergence_reports_frame():
    y = ym.straight_strand(6, 0.1)
    f = np.full((6, 3), 1e9)
    with pytest.raises(RuntimeError, match="frame"):
        ym.simulate_yarn(y, 10, 0.1, forces=f, params=ym.RodParams(contacts=False))


def test_contacts_separate_close_strands():
    # two parallel strands closer than the contact radius get pushed apart
    n = 8
    a = ym.straight_strand(n, 0.35)
    pts = np.vstack([a.rest_vertices, a.rest_vertices + [0.0, 0.004, 0.0]])
    y = ym.YarnModel(pts, [np.arange(n), np.arange(n, 2 * n)], radius=0.01)
    prm = ym.RodParams(contacts=True, damping=0.8)
    seq = ym.simulate_yarn(y, 60, 0.005, params=prm)
    x = seq.frames[-1]
    gap0 = 0.004
    gap1 = np.linalg.norm(x[:n] - x[n:], axis=1).min()
    assert gap1 > gap0


def add_at_rhs(pairs, weights, targets, n):
    """w * S p for pair differences by unbuffered scatter-adds."""
    rhs = np.zeros((n, 3))
    wp = weights[:, None] * targets
    np.add.at(rhs, pairs[:, 1], wp)
    np.add.at(rhs, pairs[:, 0], -wp)
    return rhs


def test_pair_rhs_incidence_matches_add_at(rng):
    y = ym.rib_patch(courses=4, wales=12)
    n = y.n_vertices
    # stretch and bend pairs give each vertex at most two terms: same bits
    for pairs in (y.segments, ym._second_neighbors(y)):
        w = rng.uniform(0.5, 2.0, len(pairs))
        tgt = rng.normal(size=(len(pairs), 3))
        got = ym._pair_rhs(ym._incidence(n, pairs), w, tgt)
        assert np.array_equal(got, add_at_rhs(pairs, w, tgt, n))
    # contact pairs repeat vertices, so only the summation order differs
    pairs = rng.integers(0, 8, size=(60, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    w = rng.uniform(0.5, 2.0, len(pairs))
    tgt = rng.normal(size=(len(pairs), 3))
    got = ym._pair_rhs(ym._incidence(n, pairs), w, tgt)
    want = add_at_rhs(pairs, w, tgt, n)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_contact_filter_keys_match_set_reference(rng):
    y = ym.rib_patch(courses=3, wales=10)
    n = y.n_vertices
    connected = np.concatenate([y.segments, ym._second_neighbors(y)])
    raw = np.concatenate([connected[rng.permutation(len(connected))[:25], ::-1],
                          rng.integers(0, n, size=(80, 2))])
    raw = raw[raw[:, 0] != raw[:, 1]]
    keep = ~np.isin(ym._pair_keys(raw, n), ym._pair_keys(connected, n))
    con = set(map(tuple, np.sort(connected, axis=1).tolist()))
    want = np.array([tuple(sorted(p)) not in con for p in raw.tolist()])
    assert np.array_equal(keep, want)
    assert 25 <= (~keep).sum() < len(raw)


def test_collider_sphere_keeps_vertices_out():
    y = ym.straight_strand(12, 0.6, origin=(-0.3, 0.0, 0.06))
    forces = y.vertex_mass()[:, None] * np.array([0.0, 0.0, -9.81])
    prm = ym.RodParams(contacts=False, damping=0.8)
    seq = ym.simulate_yarn(
        y, 250, 0.005, forces=forces, params=prm,
        colliders=[("sphere", (0.0, 0.0, -0.05), 0.1)],
    )
    d = np.linalg.norm(seq.frames[-1] - np.array([0.0, 0.0, -0.05]), axis=1)
    assert d.min() > 0.1 - 5e-4


@pytest.mark.parametrize("collider", [
    ("plane", (0.1, -0.2, 0.3), (0.3, 1.0, -0.5)),
    ("plane", (0.1, -0.2, 0.3), (0.0, 0.0, 2.0)),     # surface points exact
    ("sphere", (0.1, -0.2, 0.3), 0.4),
])
def test_yarn_and_mesh_collider_targets_agree(collider, rng):
    # the yarn simulator's former inline model against the shared one, on
    # points inside, outside and on the surface at the prediction, each
    # moved on by the step so some separate and some go in
    kind, a, b = collider
    a = np.asarray(a, dtype=float)
    u = rng.normal(size=(60, 3))
    if kind == "plane":
        n = np.asarray(b) / np.linalg.norm(b)
        depth = np.concatenate([rng.uniform(-0.5, -1e-3, 20), rng.uniform(1e-3, 0.5, 20),
                                np.zeros(20)])
        xhat = a + (u - (u @ n)[:, None] * n) + depth[:, None] * n
    else:
        scale = np.concatenate([rng.uniform(0.0, 0.99, 20), rng.uniform(1.01, 2.0, 20),
                                np.ones(20)])
        xhat = a + (b * scale)[:, None] * u / np.linalg.norm(u, axis=1, keepdims=True)
    xi = xhat + 0.05 * rng.normal(size=xhat.shape)
    (idx_ref, q_ref), = oracles.yarn_collider_rows(xhat, xi, [collider])
    idx, _ = pdsolver.collider_targets(xhat, collider)
    assert np.array_equal(idx, idx_ref)
    assert 20 <= len(idx) < 60
    q = pdsolver.surface_targets(xi[idx], collider)
    assert np.abs(q - q_ref).max() <= 1e-15 * (1.0 + np.abs(xi).max())


# ---------------------------------------------------------------------------
# sequence files


def test_sequence_roundtrip(tmp_path):
    y = ym.straight_strand(7, 0.3, linear_density=0.4)
    f = y.vertex_mass()[:, None] * np.array([0.0, 0.0, -1.0])
    seq = ym.simulate_yarn(y, 6, 0.01, forces=f, pins=[0],
                           params=ym.RodParams(contacts=False))
    ym.write_sequence(y, seq, str(tmp_path), comment="cfg 123abc")
    assert sorted(os.listdir(tmp_path)) == [
        "external_force.npy", "frames.npy", "rest.yarn", "sequence.json"]
    y2, seq2 = ym.read_sequence(str(tmp_path))
    assert np.abs(y2.rest_vertices - y.rest_vertices).max() == 0.0
    assert np.abs(seq2.frames - seq.frames).max() == 0.0
    assert seq2.dt == seq.dt
    assert np.array_equal(seq2.pins, seq.pins)
    assert np.abs(seq2.external_force - seq.external_force).max() == 0.0
    assert np.array_equal(y2.linear_density, y.linear_density)
    assert y2.radius == y.radius


def test_sequence_per_frame_layout_rejected(tmp_path):
    # the text layout of one frame_NNNN.yarn per pose is no longer read
    y = ym.straight_strand(4, 0.3)
    ym.write_yarn(y, str(tmp_path / "rest.yarn"))
    ym.write_yarn(y, str(tmp_path / "frame_0000.yarn"))
    (tmp_path / "sequence.json").write_text(json.dumps(
        {"dt": 0.01, "rest": "rest.yarn", "frames": ["frame_0000.yarn"], "pins": []}))
    with pytest.raises(ValueError, match="frames.npy"):
        ym.read_sequence(str(tmp_path))


def test_yarn_file_rejects_malformed(tmp_path):
    p = tmp_path / "bad.yarn"
    p.write_text("yarn 3 1\nv 0 0 0\nv 1 0 0\nl 0 1\n")  # header says 3 verts
    with pytest.raises(ValueError):
        ym.read_yarn(str(p))


def test_rib_patch_shape():
    y = ym.rib_patch(courses=6, wales=30)
    assert y.n_vertices == 180
    assert len(y.polylines) == 6
    assert y.n_segments == 6 * 29
    spans = y.rest_vertices.max(0) - y.rest_vertices.min(0)
    assert spans[0] > spans[2]          # flat-ish sheet with small z relief

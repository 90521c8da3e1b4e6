"""Mesh/yarn shape transfer: interpolation, segment polar factors, target
deformation gradients, the least-squares reconstruction, and the inertia
estimate, each against closed forms or dense oracles."""

import dataclasses

import numpy as np
import pytest

import oracles
from volknit import material as mat
from volknit import transfer as tr
from volknit import volmesh as vm
from volknit import yarn_model as ym
from conftest import random_rotation


def wavy_setup(n=30, cell=0.05, density=0.01):
    t = np.linspace(0.0, 2.0 * np.pi, n)
    pts = np.stack([0.3 * t / (2 * np.pi), 0.04 * np.sin(3 * t), 0.04 * np.cos(2 * t)], 1)
    y = ym.YarnModel(pts, [np.arange(n)], linear_density=density)
    mesh = vm.voxelize(y, cell)
    emb = vm.embed_yarn(mesh, y)
    vm.lump_mass(mesh, y, emb)
    return y, mesh, emb


# ---------------------------------------------------------------------------
# v2y


def test_v2y_rest_and_rigid(rng):
    y, mesh, emb = wavy_setup()
    assert np.abs(tr.v2y(emb, mesh.nodes) - y.rest_vertices).max() < 1e-9
    Q = random_rotation(rng)
    c = rng.normal(size=3)
    out = tr.v2y(emb, mesh.nodes @ Q.T + c)
    assert np.abs(out - (y.rest_vertices @ Q.T + c)).max() < 1e-12


def test_v2y_matches_manual_barycentric(rng):
    y, mesh, emb = wavy_setup()
    x = mesh.nodes + 0.01 * rng.normal(size=mesh.nodes.shape)
    out = tr.v2y(emb, x)
    for vtx in range(y.n_vertices):
        e = emb.host_elem[vtx]
        ref = emb.host_weights[vtx] @ x[mesh.tets[e]]
        assert np.abs(out[vtx] - ref).max() < 1e-12


# ---------------------------------------------------------------------------
# segment polar factors


def test_deformed_normals_rigid_equals_rotated_rest(rng):
    # the deformed material normals are R times the rest ones
    y, _, _ = wavy_setup()
    Q = random_rotation(rng)
    R, S = tr.segment_polar(y, y.rest_vertices @ Q.T + [0.1, 0.2, 0.3])
    normals = oracles.compute_segment_normals(y)
    ref = np.einsum("ij,skj->ski", Q, normals)
    assert np.abs(np.einsum("sij,skj->ski", R, normals) - ref).max() < 1e-9
    assert np.abs(S - np.eye(3)).max() < 1e-12


def test_deformed_normals_stay_orthonormal(rng):
    y, _, _ = wavy_setup()
    x = y.rest_vertices + 0.03 * rng.normal(size=y.rest_vertices.shape)
    R, _ = tr.segment_polar(y, x)
    nd = np.einsum("sij,skj->ski", R, oracles.compute_segment_normals(y))
    d = x[y.segments[:, 1]] - x[y.segments[:, 0]]
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    assert np.abs(np.einsum("si,si->s", nd[:, 0], d)).max() < 1e-10
    assert np.abs(np.einsum("si,si->s", nd[:, 0], nd[:, 1])).max() < 1e-10
    assert np.abs(np.cross(d, nd[:, 0]) - nd[:, 1]).max() < 1e-10


def mixed_yarn(rng):
    """Ragged polylines (30, 2, 3 and 4 vertices) whose vertex indices are
    shuffled, so no run is contiguous; the last one is a hairpin, its first
    two segments exactly antiparallel."""
    t = np.linspace(0.0, 2.0 * np.pi, 30)
    parts = [
        np.stack([0.3 * t / (2 * np.pi), 0.04 * np.sin(3 * t), 0.04 * np.cos(2 * t)], 1),
        np.array([[0.0, 0.05, 0.0], [0.05, 0.06, 0.01]]),
        np.array([[0.1, 0.05, 0.03], [0.15, 0.06, 0.03], [0.2, 0.05, 0.04]]),
        np.array([[0.0, -0.05, 0.0], [0.1, -0.05, 0.0], [0.0, -0.05, 0.0], [0.05, -0.03, 0.01]]),
    ]
    ends = np.cumsum([len(p) for p in parts])
    runs = [np.arange(e - len(p), e) for p, e in zip(parts, ends)]
    perm = rng.permutation(ends[-1])
    return ym.YarnModel(np.concatenate(parts)[perm], [np.argsort(perm)[r] for r in runs],
                        linear_density=0.01)


def test_segment_polar_matches_frame_oracle(rng):
    # the closed form against the material-frame path: parallel-transported
    # normals, a frame inverse per segment and an SVD per gradient
    y = mixed_yarn(rng)
    d = y.rest_vertices[y.segments[:, 1]] - y.rest_vertices[y.segments[:, 0]]
    hairpin = y.segment_poly == 3
    assert np.array_equal(d[hairpin][0], -d[hairpin][1])
    for scale in (0.0, 0.01, 0.03):
        x = y.rest_vertices + scale * rng.normal(size=y.rest_vertices.shape)
        R, S = tr.segment_polar(y, x)
        R1, S1 = oracles.segment_polar(y, x)
        assert np.abs(R - R1).max() <= 1e-13
        assert np.abs(S - S1).max() <= 1e-13


def test_segment_polar_of_a_polyline_does_not_depend_on_the_others(rng):
    # each polyline alone, renumbered, gives the bits it gets in the whole
    y = mixed_yarn(rng)
    x = y.rest_vertices + 0.01 * rng.normal(size=y.rest_vertices.shape)
    R, S = tr.segment_polar(y, x)
    for pi, run in enumerate(y.polylines):
        one = ym.YarnModel(y.rest_vertices[run], [np.arange(len(run))])
        rows = y.segment_poly == pi
        R1, S1 = tr.segment_polar(one, x[run])
        assert np.array_equal(R1, R[rows]) and np.array_equal(S1, S[rows])


def test_segment_rotations_near_pi_match_oracle(rng):
    # segment rotations at and just short of pi take the symmetric-part
    # branch of the log; generic rows around them must not.  Each polyline
    # is a zigzag moved rigidly by its angle and scaled by 1.05.
    axis = rng.normal(size=(8, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = np.array([0.3, np.pi, 1.2, np.pi - 1e-8, 2.0, np.pi - 5e-7, 1e-11, 2.9])
    zigzag = np.array([[0.0, 0.0, 0.0], [0.1, 0.03, 0.0], [0.2, 0.0, 0.02], [0.3, 0.04, 0.0]])
    rest = np.concatenate([zigzag + [0.0, 0.1 * k, 0.0] for k in range(8)])
    y = ym.YarnModel(rest, [np.arange(4 * k, 4 * k + 4) for k in range(8)])
    Q = mat.rotation_exp(axis * angle[:, None])
    x = 1.05 * np.einsum("pij,pvj->pvi", Q, rest.reshape(8, 4, 3)).reshape(-1, 3)
    R, S = tr.segment_polar(y, x)
    R1, S1 = oracles.segment_polar(y, x)
    assert np.abs(R - R1).max() <= 1e-13 and np.abs(S - S1).max() <= 1e-13
    om = mat.rotation_log(R)
    near = np.pi - np.linalg.norm(om, axis=1) <= 1e-6
    assert np.array_equal(near, np.pi - angle[y.segment_poly] <= 1e-6)
    for si in range(y.n_segments):
        ref = oracles.unskew(oracles.rotation_log(R[si]))
        if near[si]:
            assert np.abs(om[si] - ref).max() <= 2e-15
        else:
            assert np.array_equal(om[si], ref)
            assert np.abs(mat.rotation_exp(om[si]) - R[si]).max() < 1e-12


def test_segment_polar_rigid_quarter_turn_and_stretch():
    y = ym.straight_strand(2, 0.2, axis=(1, 0, 0))
    # undeformed
    R, S = tr.segment_polar(y, y.rest_vertices)
    assert np.abs(mat.rotation_log(R)).max() < 1e-12 and np.abs(S - np.eye(3)).max() < 1e-12
    # quarter turn about z
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R, S = tr.segment_polar(y, y.rest_vertices @ Rz.T)
    assert np.abs(mat.rotation_log(R) - [0.0, 0.0, np.pi / 2]).max() < 1e-10
    assert np.abs(S - np.eye(3)).max() < 1e-10
    # axial stretch, no rotation
    x = y.rest_vertices.copy()
    x[1, 0] *= 1.2
    R, S = tr.segment_polar(y, x)
    assert np.abs(mat.rotation_log(R)).max() < 1e-12
    assert np.abs(S - np.diag([1.2, 1.0, 1.0])).max() < 1e-10


def test_segment_polar_reconstructs_the_frame_gradient(rng):
    y, _, _ = wavy_setup()
    x = y.rest_vertices + 0.02 * rng.normal(size=y.rest_vertices.shape)
    R, S = tr.segment_polar(y, x)
    F = oracles.yarn_segment_f(y, x)
    assert np.abs(R @ S - F).max() < 1e-8
    assert np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3)).max() < 1e-14
    assert np.all(np.linalg.det(R) > 0.0)
    assert np.array_equal(S, np.swapaxes(S, 1, 2))
    assert np.linalg.eigvalsh(S).min() > 0.0
    assert np.linalg.norm(mat.rotation_log(R), axis=1).max() < np.pi


# ---------------------------------------------------------------------------
# element targets


def test_targets_rigid_are_the_rotation(rng):
    y, mesh, emb = wavy_setup()
    Q = random_rotation(rng)
    tg = tr.element_targets(mesh, emb, y, y.rest_vertices @ Q.T + [0.0, 0.1, -0.2])
    assert np.abs(tg.per_element_f - Q).max() < 1e-9
    assert np.all(np.linalg.det(tg.per_element_f) > 0.0)


def test_targets_opposite_rotations_cancel():
    # two equal-length segments rotated +t and -t about z around the shared
    # vertex: length-weighted rotation logs cancel, stretches stay identity
    p = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
    y = ym.YarnModel(p, [np.arange(3)])
    th = 0.7
    Rp = mat.rotation_exp(np.array([0.0, 0.0, th]))
    Rm = mat.rotation_exp(np.array([0.0, 0.0, -th]))
    x = np.array([-(Rp @ [0.1, 0.0, 0.0]), [0.0, 0.0, 0.0], Rm @ [0.1, 0.0, 0.0]])
    R, (S0, S1) = tr.segment_polar(y, x)
    om0, om1 = mat.rotation_log(R)
    assert np.abs(om0 + om1).max() < 1e-9
    assert np.abs(S0 - np.eye(3)).max() < 1e-9
    assert np.abs(S1 - np.eye(3)).max() < 1e-9
    w = np.array([0.1, 0.1])
    om_avg = (w[0] * om0 + w[1] * om1) / w.sum()
    Fe = mat.rotation_exp(om_avg) @ ((S0 + S1) / 2.0)
    assert np.abs(Fe - np.eye(3)).max() < 1e-9


def test_targets_match_taylor_exponential_oracle(rng):
    # aggregation reproduced independently with a scaling-squaring 12-term
    # Taylor exponential instead of the closed-form rotation exponential
    y, mesh, emb = wavy_setup(n=20, cell=0.06)
    x = y.rest_vertices + 0.02 * rng.normal(size=y.rest_vertices.shape)
    tg = tr.element_targets(mesh, emb, y, x)
    R, St = tr.segment_polar(y, x)
    om = mat.rotation_log(R)

    def taylor_expm(A, order=12, squarings=8):
        A = A / 2.0**squarings
        out = np.eye(3)
        term = np.eye(3)
        for k in range(1, order + 1):
            term = term @ A / k
            out = out + term
        for _ in range(squarings):
            out = out @ out
        return out

    piece_w = (emb.piece_t1 - emb.piece_t0) * y.rest_lengths[emb.piece_seg]
    for e in rng.choice(np.flatnonzero(tg.covered), size=8, replace=False):
        sel = emb.piece_elem == e
        w = piece_w[sel]
        o = (w[:, None] * om[emb.piece_seg[sel]]).sum(0) / w.sum()
        S = (w[:, None, None] * St[emb.piece_seg[sel]]).sum(0) / w.sum()
        ref = taylor_expm(mat.skew(o)) @ S
        assert np.abs(ref - tg.per_element_f[e]).max() < 1e-9


def test_targets_equivariance_under_common_rotation(rng):
    # uniform scaling leaves every segment rotation-free (stretch along its
    # own axis), so a global pre-rotation must come out exactly in front
    y, mesh, emb = wavy_setup()
    Q = random_rotation(rng)
    pose = 1.15 * y.rest_vertices
    tg0 = tr.element_targets(mesh, emb, y, pose)
    tgQ = tr.element_targets(mesh, emb, y, pose @ Q.T)
    ref = np.einsum("ij,ejk->eik", Q, tg0.per_element_f)
    assert np.abs(tgQ.per_element_f - ref).max() < 1e-9


def test_targets_equivariance_generic_is_approximate(rng):
    # log-averaged rotations commute with a global rotation only up to the
    # spread of the per-segment rotations; generic poses stay close
    y, mesh, emb = wavy_setup()
    Q = random_rotation(rng)
    pose = y.rest_vertices * np.array([1.15, 1.0, 1.0])
    tg0 = tr.element_targets(mesh, emb, y, pose)
    tgQ = tr.element_targets(mesh, emb, y, pose @ Q.T)
    ref = np.einsum("ij,ejk->eik", Q, tg0.per_element_f)
    assert np.abs(tgQ.per_element_f[tg0.covered] - ref[tg0.covered]).max() < 1e-2


def test_targets_fill_matches_oracle_loops(rng):
    # keep only the pieces of the first covered voxel, so most elements fill
    # from face neighbours over several rounds
    y, mesh, emb = wavy_setup(n=20, cell=0.06)
    keep = mesh.tet_voxel[emb.piece_elem] == mesh.tet_voxel[emb.piece_elem[0]]
    emb = dataclasses.replace(emb, **{k: getattr(emb, k)[keep] for k in (
        "piece_elem", "piece_seg", "piece_t0", "piece_t1")})
    x = y.rest_vertices + 0.02 * rng.normal(size=y.rest_vertices.shape)
    tg = tr.element_targets(mesh, emb, y, x)
    F, covered, rounds = oracles.element_targets(mesh, emb, y, x)
    assert rounds >= 2
    assert np.array_equal(tg.covered, covered)
    assert np.abs(tg.per_element_f - F).max() <= 1e-14
    # the same on the whole embedding, where pass 1 fills most elements
    y, mesh, emb = wavy_setup()
    tg = tr.element_targets(mesh, emb, y, y.rest_vertices * 1.05)
    F, covered, rounds = oracles.element_targets(mesh, emb, y, y.rest_vertices * 1.05)
    assert np.array_equal(tg.covered, covered)
    assert np.abs(tg.per_element_f - F).max() <= 1e-14


def test_targets_isolated_elements_raise():
    y, mesh, emb = wavy_setup(n=12, cell=0.08)
    none = dataclasses.replace(emb, **{k: getattr(emb, k)[:0] for k in (
        "piece_elem", "piece_seg", "piece_t0", "piece_t1")})
    with pytest.raises(ValueError, match="isolated"):
        tr.element_targets(mesh, none, y, y.rest_vertices)


def test_targets_csv_dump(tmp_path, rng):
    y, mesh, emb = wavy_setup(n=16, cell=0.07)
    tg = tr.element_targets(mesh, emb, y, y.rest_vertices)
    path = tmp_path / "targets.csv"
    oracles.dump_targets_csv(tg, str(path))
    rows = path.read_text().strip().splitlines()
    assert len(rows) == mesh.n_elements + 1
    first = rows[1].split(",")
    assert int(first[0]) == 0
    vals = np.array([float(v) for v in first[2:]]).reshape(3, 3)
    assert np.abs(vals - np.eye(3)).max() < 1e-9


# ---------------------------------------------------------------------------
# y2v


def test_y2v_rest_exact(rng):
    y, mesh, emb = wavy_setup()
    op = tr.Y2VOperator(mesh, emb, y)
    x, tg = op.transfer(y.rest_vertices)
    assert np.abs(x - mesh.nodes).max() < 1e-8
    assert tg.covered.any() and not tg.covered.all()


def test_y2v_rigid_exact(rng):
    y, mesh, emb = wavy_setup()
    op = tr.Y2VOperator(mesh, emb, y)
    Q = random_rotation(rng)
    c = np.array([0.2, -0.1, 0.4])
    x, _ = op.transfer(y.rest_vertices @ Q.T + c)
    assert np.abs(x - (mesh.nodes @ Q.T + c)).max() < 1e-6
    back = tr.v2y(emb, x)
    assert np.abs(back - (y.rest_vertices @ Q.T + c)).max() < 1e-6


def test_y2v_matches_dense_normal_equations(rng):
    y, mesh, emb = wavy_setup()
    op = tr.Y2VOperator(mesh, emb, y)
    yd = y.rest_vertices + 0.02 * np.sin(y.rest_vertices[:, :1] * 20.0) * np.array([0.3, 1.0, 0.5])
    x, tg = op.transfer(yd)
    A = op.matrix().toarray()
    GT = 2.0 * np.einsum("e,enj,eij->eni", mesh.volume, mesh.shape_grad, tg.per_element_f)
    rhs = np.zeros((mesh.n_nodes, 3))
    np.add.at(rhs, mesh.tets.reshape(-1), GT.reshape(-1, 3))
    rhs += 2.0 * op.alpha * (emb.interp.T @ ((emb.yarn_mass[:, None] ** 2) * yd))
    xd = np.linalg.solve(A, rhs)
    assert np.abs(xd - x).max() < 1e-7


def test_y2v_objective_minimality(rng):
    y, mesh, emb = wavy_setup()
    op = tr.Y2VOperator(mesh, emb, y)
    yd = y.rest_vertices + 0.02 * np.sin(y.rest_vertices[:, :1] * 20.0) * np.array([0.3, 1.0, 0.5])
    x, tg = op.transfer(yd)
    best = op.objective(x, tg, yd)
    assert best <= op.objective(mesh.nodes, tg, yd) + 1e-12
    xinit, *_ = np.linalg.lstsq(emb.interp.toarray(), yd, rcond=None)
    assert best <= op.objective(xinit, tg, yd) + 1e-12
    for k in range(25):
        pert = x + 1e-3 * np.random.default_rng(k).normal(size=x.shape)
        assert op.objective(pert, tg, yd) >= best


def test_y2v_singular_without_anchor():
    # translations are exactly in the null space when the anchor is off
    y, mesh, emb = wavy_setup(n=12, cell=0.08)
    op = tr.Y2VOperator(mesh, emb, y, alpha=0.0)
    tg = tr.element_targets(mesh, emb, y, y.rest_vertices)
    with pytest.raises(ValueError, match="singular"):
        op.solve_with_targets(tg, y.rest_vertices)


# ---------------------------------------------------------------------------
# inertia estimate


def test_inertia_zero_for_constant_and_linear_motion():
    y, mesh, emb = wavy_setup()
    op = tr.Y2VOperator(mesh, emb, y)
    frames = np.tile(y.rest_vertices, (5, 1, 1))
    seq = ym.YarnSequence(frames=frames, dt=0.01)
    assert np.abs(tr.estimate_inertia(op, seq, 2)).max() < 1e-12
    vel = np.array([0.1, 0.2, -0.05])
    frames = np.stack([y.rest_vertices + i * 0.01 * vel for i in range(5)])
    seq = ym.YarnSequence(frames=frames, dt=0.01)
    assert np.abs(tr.estimate_inertia(op, seq, 3)).max() < 1e-12


def test_inertia_free_fall_cancels():
    # two-vertex yarn inside a single element: the force map and the lumped
    # masses then agree exactly and gravity cancels the second difference
    y = ym.YarnModel(
        np.array([[0.41, 0.33, 0.27], [0.45, 0.37, 0.29]]), [np.arange(2)],
        linear_density=0.02,
    )
    mesh = vm.voxelize(y, 1.0, origin=np.zeros(3))
    emb = vm.embed_yarn(mesh, y)
    assert emb.host_elem[0] == emb.host_elem[1]
    vm.lump_mass(mesh, y, emb)
    op = tr.Y2VOperator(mesh, emb, y)
    g = np.array([0.0, 0.0, -9.81])
    dt = 0.01
    frames = np.stack([y.rest_vertices + 0.5 * g * (i * dt) ** 2 for i in range(6)])
    fy = np.tile(y.vertex_mass()[:, None] * g, (6, 1, 1))
    seq = ym.YarnSequence(frames=frames, dt=dt, external_force=fy)
    assert np.abs(tr.estimate_inertia(op, seq, 4)).max() < 1e-9


def test_inertia_needs_history():
    y, mesh, emb = wavy_setup(n=12, cell=0.08)
    op = tr.Y2VOperator(mesh, emb, y)
    seq = ym.YarnSequence(frames=np.tile(y.rest_vertices, (3, 1, 1)), dt=0.01)
    with pytest.raises(ValueError):
        tr.estimate_inertia(op, seq, 1)

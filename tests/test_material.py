"""Rotation / volume projection layer: closed-form checks, sampling and
grid+polish oracles, and finite-difference verification of every Jacobian."""

import numpy as np
import pytest
import scipy.linalg

from volknit import material as mat
from conftest import random_f, random_rotation


def central_diff(fun, F, h=1e-6):
    """9x9 Jacobian d vec(fun) / d vec(F) by central differences, row-major vec.

    F may carry leading batch axes when fun maps each element on its own.
    """
    J = np.empty(F.shape[:-2] + (9, 9))
    for c in range(9):
        dF = np.zeros(9)
        dF[c] = h
        dF = dF.reshape(3, 3)
        J[..., c] = (fun(F + dF) - fun(F - dF)).reshape(F.shape[:-2] + (9,)) / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# exponential map


def test_exp_log_roundtrip(rng):
    for _ in range(300):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-5, np.pi - 1e-3)
        w = axis * angle
        R = mat.rotation_exp(mat.skew(w))
        # independent oracle route for the exponential itself
        assert np.abs(R - scipy.linalg.expm(mat.skew(w))).max() < 1e-12
        w2 = mat.unskew(mat.rotation_log(R))
        assert np.abs(w2 - w).max() < 1e-9


def test_exp_small_angle():
    R = mat.rotation_exp(mat.skew(np.array([1e-12, -2e-12, 5e-13])))
    assert np.abs(R - np.eye(3)).max() < 1e-11
    assert np.abs(mat.rotation_log(np.eye(3))).max() == 0.0


def test_log_near_pi(rng):
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = np.pi - 1e-7
        R = mat.rotation_exp(mat.skew(axis * angle))
        w = mat.unskew(mat.rotation_log(R))
        R2 = mat.rotation_exp(mat.skew(w))
        # conditioning of the log degrades as sin(angle) -> 0
        assert np.abs(R2 - R).max() < 1e-6


def test_minimal_rotation(rng):
    for _ in range(100):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        R = mat.minimal_rotation(a, b)
        assert np.abs(R @ a - b).max() < 1e-12
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        ang = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        assert abs(ang - np.arccos(np.clip(a @ b, -1.0, 1.0))) < 1e-7


def test_minimal_rotation_antiparallel():
    a = np.array([0.0, 0.0, 1.0])
    R = mat.minimal_rotation(a, -a)
    assert np.abs(R @ a + a).max() < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# rotation projection


def test_project_so3_sampling_oracle(rng):
    F = random_f(rng)
    R = mat.project_so3(F)
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    best = np.linalg.norm(F - R)
    for _ in range(10000):
        Q = random_rotation(rng)
        assert np.linalg.norm(F - Q) >= best - 1e-9


def test_project_so3_fixed_points(rng):
    for _ in range(20):
        Q = random_rotation(rng)
        assert np.abs(mat.project_so3(Q) - Q).max() < 1e-10


def test_project_so3_inverted(rng):
    # det F < 0 still yields a proper rotation
    F = random_f(rng)
    F[:, 0] *= -1.0
    R = mat.project_so3(F)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_project_so3_rejects_nonfinite():
    F = np.eye(3)
    F[0, 0] = np.nan
    with pytest.raises(ValueError):
        mat.project_so3(F)


# ---------------------------------------------------------------------------
# volume projection


def _grid_polish_oracle(sigma, floor=mat.SV_FLOOR):
    """Brute-force projection of singular values onto the constraint set.

    Grid-search two free values on a log grid (the third fixed by the
    product constraint), then polish the best cell with Nelder-Mead.
    Independent of the implementation's KKT solve.
    """
    from scipy.optimize import minimize

    def obj(ab):
        a, b = np.exp(ab)
        c = 1.0 / (a * b)
        if min(a, b, c) < floor:
            return 1e12 + (floor - min(a, b, c))
        return (a - sigma[0]) ** 2 + (b - sigma[1]) ** 2 + (c - sigma[2]) ** 2

    grid = np.log(np.geomspace(floor, 1.0 / floor**2, 60))
    best, bval = None, np.inf
    for ga in grid:
        for gb in grid:
            v = obj(np.array([ga, gb]))
            if v < bval:
                bval, best = v, np.array([ga, gb])
    res = minimize(obj, best, method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000))
    return min(bval, res.fun)


def test_sl3_matches_grid_polish_oracle(rng):
    samples = [np.exp(rng.uniform(-3.0, 1.5, size=3)) for _ in range(12)]
    # inverted elements: the signed smallest singular value is negative
    samples += [np.exp(rng.uniform(-3.0, 1.5, size=3)) * [1.0, 1.0, -1.0] for _ in range(8)]
    for sigma in samples:
        s, lam, clamped, ok = mat.sl3_sigma_project(sigma)
        assert abs(np.prod(s) - 1.0) < 1e-8
        assert s.min() >= mat.SV_FLOOR - 1e-9
        ours = np.sum((s - sigma) ** 2)
        assert ours <= _grid_polish_oracle(sigma) + 1e-6


def test_sl3_determinant_and_floor_batch(rng):
    F = np.eye(3) + 0.8 * rng.normal(size=(500, 3, 3))
    _, V = mat.batch_projections(F)
    det = np.linalg.det(V)
    assert np.abs(det - 1.0).max() < 1e-8
    s = np.linalg.svd(V, compute_uv=False)
    assert s.min() >= mat.SV_FLOOR - 1e-8


def test_sl3_identity_on_feasible(rng):
    # F already volume preserving with comfortable singular values: V = F
    for _ in range(20):
        F = random_f(rng, spread=0.3)
        F /= np.cbrt(np.linalg.det(F))
        V = mat.project_sl3(F)
        assert np.abs(V - F).max() < 1e-7


def test_sl3_uniform_scale():
    # mild uniform scaling projects back to the identity
    for t in (0.5, 1.5, 1.8):
        V = mat.project_sl3(t * np.eye(3))
        assert np.abs(V - np.eye(3)).max() < 1e-9


def test_sl3_uniform_expansion_symmetry_breaking():
    # past t ~ 1.9 the identity is only a stationary point: squashing one
    # axis and stretching the other two gets strictly closer.  At t = 2 the
    # optimum is diag(phi^-2, phi, phi) with phi the golden ratio.
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    s, _, _, ok = mat.sl3_sigma_project(np.array([2.0, 2.0, 2.0]))
    assert ok
    assert np.abs(np.sort(s) - np.array([phi**-2, phi, phi])).max() < 1e-9
    ours = np.sum((np.sort(s) - 2.0) ** 2)
    assert ours < 3.0 * (2.0 - 1.0) ** 2 - 1e-3


def test_sl3_hard_clamp():
    # with s3 on the floor, s1 s2 = 100 and s1 + s2 = 100 at the optimum;
    # (10, 10, 0.01) is only a stationary point, objective 16,200 vs 9,800
    sigma = np.array([100.0, 100.0, 1e-5])
    s, lam, clamped, ok = mat.sl3_sigma_project(sigma)
    assert ok
    r = np.sqrt(2400.0)
    assert np.abs(s - np.array([50.0 + r, 50.0 - r, 0.01])).max() < 1e-6
    assert list(clamped) == [False, False, True]
    ours = np.sum((s - sigma) ** 2)
    assert abs(ours - 9800.0) < 1e-3
    assert ours <= _grid_polish_oracle(sigma) + 1e-6


def test_sl3_degenerate_input():
    V = mat.project_sl3(np.zeros((3, 3)))
    assert abs(np.linalg.det(V) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# projection Jacobians


def test_rotation_jacobian_fd(rng):
    for _ in range(10):
        F = random_f(rng, min_gap=5e-2)
        J = mat.rotation_jacobian(F)
        Jfd = central_diff(mat.project_so3, F)
        rel = np.linalg.norm(J - Jfd) / np.linalg.norm(Jfd)
        assert rel < 1e-5, rel


def test_sl3_jacobian_fd(rng):
    for _ in range(10):
        F = random_f(rng, min_gap=5e-2)
        J = mat.sl3_jacobian(F)
        Jfd = central_diff(mat.project_sl3, F)
        rel = np.linalg.norm(J - Jfd) / np.linalg.norm(Jfd)
        assert rel < 1e-5, rel


def test_jacobians_at_identity():
    # equal singular values exercise the confluent branch
    JR = mat.rotation_jacobian(np.eye(3))
    JV = mat.sl3_jacobian(np.eye(3))
    JRfd = central_diff(mat.project_so3, np.eye(3))
    JVfd = central_diff(mat.project_sl3, np.eye(3))
    assert np.abs(JR - JRfd).max() < 1e-8
    assert np.abs(JV - JVfd).max() < 1e-8


def test_jacobians_symmetric(rng):
    # both projections are gradients of scalar potentials
    for _ in range(10):
        F = random_f(rng)
        assert np.abs(mat.rotation_jacobian(F) - mat.rotation_jacobian(F).T).max() < 1e-9
        assert np.abs(mat.sl3_jacobian(F) - mat.sl3_jacobian(F).T).max() < 1e-9


def _hard_batch(rng, n, min_gap=0.0):
    """F = Q1 diag(sigma) Q2^T with every third element inverted and every
    third one squashed hard enough to put a singular value on the floor."""
    F = np.empty((n, 3, 3))
    for k in range(n):
        while True:
            sigma = np.sort(np.exp(rng.uniform(-1.0, 1.0, size=3)))[::-1]
            if k % 3 == 1:
                sigma[2] = -sigma[2]
            elif k % 3 == 2:
                sigma *= np.array([20.0, 12.0, 0.004]) / np.sqrt(np.e)
            i, j = np.triu_indices(3, 1)
            if min(np.abs(sigma[i] - sigma[j]).min(), np.abs(sigma[i] + sigma[j]).min()) > min_gap:
                break
        F[k] = random_rotation(rng) @ np.diag(sigma) @ random_rotation(rng).T
    return F


def _assert_hard_batch(F):
    _, sig, _ = mat.svd_rv_batch(F)
    _, _, clamped = mat.sl3_sigma_project_batch(sig)
    assert np.any(np.linalg.det(F) < 0.0)
    assert np.any(clamped)


def test_jacobian_batch_matches_fd(rng):
    F = _hard_batch(rng, 30, min_gap=5e-2)
    _assert_hard_batch(F)
    JR, JV = mat.projection_jacobians_batch(F)
    JRfd = central_diff(lambda G: mat.batch_projections(G)[0], F)
    JVfd = central_diff(lambda G: mat.batch_projections(G)[1], F)
    for J, Jfd in ((JR, JRfd), (JV, JVfd)):
        rel = np.linalg.norm(J - Jfd, axis=(1, 2)) / np.linalg.norm(Jfd, axis=(1, 2))
        assert rel.max() < 1e-5, rel.max()


def test_batch_projection_matches_oracle(rng):
    F = np.concatenate([np.eye(3) + 0.7 * rng.normal(size=(30, 3, 3)), _hard_batch(rng, 30)])
    _assert_hard_batch(F)
    R, V = mat.batch_projections(F)
    for k in range(len(F)):
        # closest rotation with a reflection folded into the last axis
        U, sv, Wt = np.linalg.svd(F[k])
        d = np.sign(np.linalg.det(U @ Wt))
        assert np.abs(R[k] - U @ np.diag([1.0, 1.0, d]) @ Wt).max() < 1e-9
        assert abs(np.linalg.det(V[k]) - 1.0) < 1e-8
        assert np.linalg.svd(V[k], compute_uv=False).min() >= mat.SV_FLOOR - 1e-8
        sigma = sv * np.array([1.0, 1.0, np.sign(np.linalg.det(F[k]))])
        assert np.sum((F[k] - V[k]) ** 2) <= _grid_polish_oracle(sigma) + 1e-6


# ---------------------------------------------------------------------------
# element energy and force


def _tet_diff_op(rng):
    X = rng.normal(size=(4, 3))
    Dm = (X[1:] - X[0]).T
    if np.linalg.det(Dm) < 0:
        X[[1, 2]] = X[[2, 1]]
        Dm = (X[1:] - X[0]).T
    Dminv = np.linalg.inv(Dm)
    G = np.vstack([-Dminv.sum(axis=0), Dminv])
    D = np.zeros((9, 12))
    for n in range(4):
        for i in range(3):
            for j in range(3):
                D[3 * i + j, 3 * n + i] = G[n, j]
    return X, D, np.linalg.det(Dm) / 6.0


def test_energy_zero_iff_rotation(rng):
    for _ in range(20):
        Q = random_rotation(rng)
        assert mat.element_energy(Q, 1.0, 1.0, 1.0) < 1e-12
    for _ in range(20):
        F = random_f(rng)
        s = np.linalg.svd(F, compute_uv=False)
        if np.abs(s - 1.0).max() > 1e-2:
            assert mat.element_energy(F, 1.0, 1.0, 1.0) > 1e-8


def test_force_matches_energy_gradient(rng):
    # envelope theorem: projections may be treated as constant in the force
    for _ in range(6):
        X, D, vol = _tet_diff_op(rng)
        x = (X + 0.1 * rng.normal(size=(4, 3))).reshape(-1)
        gs, gv = 2.0, 0.7

        def energy(xv):
            F = (D @ xv).reshape(3, 3)
            return mat.element_energy(F, gs, gv, vol)

        F = (D @ x).reshape(3, 3)
        sv = np.linalg.svd(F, compute_uv=False)
        if min(abs(sv[0] - sv[1]), abs(sv[1] - sv[2]), sv[1] + sv[2]) < 1e-2:
            continue
        force, dgs, dgv = mat.element_force_and_dgamma(D, F, gs, gv, vol)
        h = 1e-6
        fd = np.empty(12)
        for k in range(12):
            e = np.zeros(12)
            e[k] = h
            fd[k] = (energy(x + e) - energy(x - e)) / (2.0 * h)
        rel = np.linalg.norm(force - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5, rel


def test_dgamma_is_exact_linear_sensitivity(rng):
    X, D, vol = _tet_diff_op(rng)
    x = (X + 0.2 * rng.normal(size=(4, 3))).reshape(-1)
    F = (D @ x).reshape(3, 3)
    f1, dgs, dgv = mat.element_force_and_dgamma(D, F, 1.3, 0.4, vol)
    f2, _, _ = mat.element_force_and_dgamma(D, F, 1.3 + 1.0, 0.4, vol)
    f3, _, _ = mat.element_force_and_dgamma(D, F, 1.3, 0.4 + 1.0, vol)
    assert np.abs((f2 - f1) - dgs).max() < 1e-10
    assert np.abs((f3 - f1) - dgv).max() < 1e-10


def test_batch_energies(rng):
    F = np.eye(3) + 0.3 * rng.normal(size=(15, 3, 3))
    gs = rng.uniform(0.5, 2.0, 15)
    gv = rng.uniform(0.5, 2.0, 15)
    vols = rng.uniform(0.1, 1.0, 15)
    tot = mat.batch_energies(F, gs, gv, vols)
    ref = sum(mat.element_energy(F[k], gs[k], gv[k], vols[k]) for k in range(15))
    assert abs(tot.sum() - ref) < 1e-9 * max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# material field container


def test_material_field_roundtrip():
    f = mat.MaterialField.uniform(7, 1.5, 0.25)
    st = f.stacked()
    assert st.shape == (14,)
    g = mat.MaterialField.from_stacked(st)
    assert np.array_equal(g.gamma_s, f.gamma_s)
    assert np.array_equal(g.gamma_v, f.gamma_v)
    assert len(g) == 7

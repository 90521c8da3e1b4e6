"""Rotation / volume projection layer: closed-form checks, sampling and
grid+polish oracles, and finite-difference verification of every Jacobian."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import oracles
from volknit import cli, material as mat
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


def _axes(rng, n):
    axis = rng.normal(size=(n, 3))
    return axis / np.linalg.norm(axis, axis=1, keepdims=True)


def test_exp_log_roundtrip(rng):
    w = _axes(rng, 300) * rng.uniform(1e-5, np.pi - 1e-3, (300, 1))
    R = mat.rotation_exp(w)
    # independent oracle route for the exponential itself
    ref = np.array([scipy.linalg.expm(oracles.skew(v)) for v in w])
    assert np.abs(R - ref).max() < 1e-12
    w2 = mat.rotation_log(R)
    assert np.abs(w2 - w).max() < 1e-9


def test_exp_small_angle():
    R = mat.rotation_exp(np.array([1e-12, -2e-12, 5e-13]))
    assert np.abs(R - np.eye(3)).max() < 1e-11
    assert np.abs(mat.rotation_log(np.eye(3))).max() == 0.0


def test_log_near_pi(rng):
    R = mat.rotation_exp(_axes(rng, 50) * (np.pi - 1e-7))
    R2 = mat.rotation_exp(mat.rotation_log(R))
    # conditioning of the log degrades as sin(angle) -> 0
    assert np.abs(R2 - R).max() < 1e-6


def test_minimal_rotation(rng):
    a, b = _axes(rng, 100), _axes(rng, 100)
    R = mat.minimal_rotation(a, b)
    assert np.abs(np.einsum("bij,bj->bi", R, a) - b).max() < 1e-12
    assert np.abs(R @ np.swapaxes(R, 1, 2) - np.eye(3)).max() < 1e-12
    ang = np.arccos(np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0))
    assert np.abs(ang - np.arccos(np.clip(np.sum(a * b, axis=1), -1.0, 1.0))).max() < 1e-7


def test_minimal_rotation_antiparallel():
    a = np.array([0.0, 0.0, 1.0])
    R = mat.minimal_rotation(a, -a)
    assert np.abs(R @ a + a).max() < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def _rotation_cases(rng):
    """Axis-angle vectors over every branch: zero, below the 1e-8 series
    and 1e-10 log thresholds, generic, and within 1e-6 of pi."""
    ang = np.concatenate([[0.0, 1e-13, 5e-11, 3e-9, 1e-7], rng.uniform(1e-5, 3.1, 40),
                          np.pi - np.array([1e-3, 2e-6, 5e-7, 1e-8, 0.0])])
    return _axes(rng, len(ang)) * ang[:, None]


def test_rotation_helpers_match_scalar_oracles(rng):
    # the batched rotations against the one-matrix oracles, on a stack whose
    # rows take every branch; the reversed stack checks that no row depends
    # on its neighbours
    w = _rotation_cases(rng)
    R = mat.rotation_exp(w)
    ref = np.array([oracles.rotation_exp(oracles.skew(v)) for v in w])
    assert np.abs(R - ref).max() <= 2e-15
    assert np.array_equal(mat.rotation_exp(w[::-1]), R[::-1])
    assert np.array_equal(mat.skew(w), np.array([oracles.skew(v) for v in w]))
    assert np.array_equal(mat.unskew(mat.skew(w)), w)

    # the log takes exactly the oracle's bits away from pi
    log = mat.rotation_log(ref)
    log_ref = np.array([oracles.unskew(oracles.rotation_log(r)) for r in ref])
    far = np.pi - np.linalg.norm(w, axis=1) > 1e-5
    assert np.array_equal(log[far], log_ref[far])
    assert np.abs(log[~far] - log_ref[~far]).max() <= 2e-15
    assert np.array_equal(mat.rotation_log(ref[::-1]), log[::-1])


def test_minimal_rotation_matches_scalar_oracle(rng):
    # generic, parallel and antiparallel pairs, mixed in one stack
    a = _axes(rng, 60)
    b = _axes(rng, 60)
    b[::3] = a[::3]
    b[1::3] = -a[1::3]
    R = mat.minimal_rotation(a, b)
    ref = np.array([oracles.minimal_rotation(p, q) for p, q in zip(a, b)])
    assert np.abs(R - ref).max() <= 2e-15
    assert np.array_equal(R[::3], np.tile(np.eye(3), (20, 1, 1)))
    assert np.array_equal(mat.minimal_rotation(a[::-1], b[::-1]), R[::-1])


# ---------------------------------------------------------------------------
# SVD from eigh(F^T F), against LAPACK

EPS = np.finfo(float).eps


def _from_sigma(rng, sig):
    """F = Q1 diag(sigma) Q2^T with random rotations, one per row of sig."""
    return np.array([random_rotation(rng) @ np.diag(s) @ random_rotation(rng).T for s in sig])


def _svd_cases(rng):
    f = mat.SV_FLOOR
    # kappa = sigma_max / sigma_min just inside and just past sqrt(1 / SVD_TAU)
    k = 1.0 / np.sqrt(mat.SVD_TAU)
    return {
        "mild": _from_sigma(rng, np.exp(rng.uniform(-0.2, 0.2, (200, 3)))),
        "floor": _from_sigma(rng, np.exp(rng.uniform(np.log(f), np.log(5.0 * f), (200, 3)))),
        "floor kappa": _from_sigma(rng, [[1.0, 0.5, f], [1.0, f, f], [3.0 * f, 2.0 * f, f]] * 20),
        "repeated": np.array([np.eye(3), np.diag([2.0, 2.0, 1.0]), np.diag([1.0, 1.0, -1.0])]),
        "repeated rotated": _from_sigma(
            rng, [[1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, -1.0]] * 20),
        "inverted": _from_sigma(rng, np.exp(rng.uniform(-1.0, 1.0, (200, 3))) * [1.0, 1.0, -1.0]),
        "tau": _from_sigma(rng, [[k * (1 - 1e-3), 2.0, 1.0], [k * (1 + 1e-3), 2.0, 1.0],
                                 [k * (1 - 1e-3), 1.0, 1.0], [k * (1 + 1e-3), k, 1.0]] * 20),
        "rank deficient": _from_sigma(rng, [[2.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]] * 5),
    }


def test_svd_matches_lapack_oracle(rng):
    for name, F in _svd_cases(rng).items():
        U, s, W = mat.svd_rv_batch(F)
        U_ref, s_ref, W_ref = oracles.svd_rv_batch(F)
        scale = np.maximum(np.abs(s_ref).max(axis=1), 1e-300)
        I = np.eye(3)
        for Q in (U, W):
            assert np.abs(np.swapaxes(Q, 1, 2) @ Q - I).max() <= 16 * EPS, name
            assert np.abs(np.linalg.det(Q) - 1.0).max() <= 16 * EPS, name
        rec = np.abs(U @ (s[:, :, None] * np.swapaxes(W, 1, 2)) - F).max(axis=(1, 2))
        assert np.all(rec <= 32 * EPS * scale), name
        assert np.all(np.abs(s - s_ref).max(axis=1) <= 32 * EPS * scale), name
        # U W^T is unique where every s_i + s_j is nonzero, with condition
        # number sigma_max / min |s_i + s_j|
        pair = np.abs(s_ref[:, [0, 0, 1]] + s_ref[:, [1, 2, 2]]).min(axis=1)
        unique = pair > 0.0
        err = np.abs(U @ np.swapaxes(W, 1, 2) - U_ref @ np.swapaxes(W_ref, 1, 2)).max(axis=(1, 2))
        assert np.all(err[unique] * pair[unique] <= 256 * EPS * scale[unique]), name


def test_svd_signs_and_fallback_rows_are_quiet():
    F = np.array([np.zeros((3, 3)), np.diag([2.0, 1.0, 0.0]), np.diag([3.0, 0.0, 0.0]),
                  np.diag([1.0, 2.0, -3.0]), np.diag([-1.0, -1.0, 2.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U, s, W = mat.svd_rv_batch(F)
    assert np.array_equal(s[0], np.zeros(3))
    assert np.all(s[:, :2] >= 0.0)
    # the last entry carries the sign of det F
    assert s[3, 2] < 0.0 and s[4, 2] > 0.0
    assert np.abs(s[3] - [3.0, 2.0, -1.0]).max() < 1e-15 * 3.0
    assert np.abs(U @ (s[:, :, None] * np.swapaxes(W, 1, 2)) - F).max() < 1e-14


# ---------------------------------------------------------------------------
# rotation projection


def test_project_so3_sampling_oracle(rng):
    F = random_f(rng)
    R = oracles.project_so3(F)
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    best = np.linalg.norm(F - R)
    for _ in range(10000):
        Q = random_rotation(rng)
        assert np.linalg.norm(F - Q) >= best - 1e-9


def test_project_so3_fixed_points(rng):
    for _ in range(20):
        Q = random_rotation(rng)
        assert np.abs(oracles.project_so3(Q) - Q).max() < 1e-10


def test_project_so3_inverted(rng):
    # det F < 0 still yields a proper rotation
    F = random_f(rng)
    F[:, 0] *= -1.0
    R = oracles.project_so3(F)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_project_so3_rejects_nonfinite():
    F = np.eye(3)
    F[0, 0] = np.nan
    with pytest.raises(ValueError):
        oracles.project_so3(F)


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
        V = oracles.project_sl3(F)
        assert np.abs(V - F).max() < 1e-7


def test_sl3_uniform_scale():
    # mild uniform scaling projects back to the identity
    for t in (0.5, 1.5, 1.8):
        V = oracles.project_sl3(t * np.eye(3))
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
    V = oracles.project_sl3(np.zeros((3, 3)))
    assert abs(np.linalg.det(V) - 1.0) < 1e-6


def _bound_rows():
    """Rows with sigma_min at, just around and well off the floor, and
    sigma_max on both sides of the 1/sqrt(f) and 0.5/sqrt(f) marks that the
    s2-clamped bound uses."""
    f = mat.SV_FLOOR
    lows = [f, f * (1 - 1e-12), f * (1 + 1e-12), 0.5 * f, 2.0 * f, 0.0, -f]
    highs = [0.3, 1.0, 4.999, 5.0, 5.001, 9.99, 10.0, 10.01, 12.0, 15.0, 20.0,
             30.0, 50.0, 1e4]
    rows = [[hi, mid, lo] for hi in highs for lo in lows
            for mid in (hi, 0.5 * hi, 0.1 * hi, 2.0 * f, lo)]
    return np.array(rows)


def _reference_sets(rng):
    return {
        "mild": mat.svd_rv_batch(np.eye(3) + 0.05 * rng.normal(size=(400, 3, 3)))[1],
        "compress": mat.svd_rv_batch(np.eye(3) + 0.3 * rng.normal(size=(400, 3, 3)))[1]
        * [1.0, 1.0, 0.3],
        "severe 0.6": mat.svd_rv_batch(np.eye(3) + 0.6 * rng.normal(size=(1000, 3, 3)))[1],
        "severe 2.0": mat.svd_rv_batch(np.eye(3) + 2.0 * rng.normal(size=(1000, 3, 3)))[1],
        "inverted": np.exp(rng.uniform(-3.0, 1.5, size=(400, 3))) * [1.0, 1.0, -1.0],
        "hand": np.array([[2.0, 2.0, 2.0], [100.0, 100.0, 1e-5], [1.0, 1.0, 1.0]]),
        "bound": _bound_rows(),
    }


def test_sl3_pruned_matches_two_lane_reference(rng):
    # the clamped lane runs only on rows the bound cannot rule out, so the
    # answer must be the reference's, which solves both lanes on every row
    for name, sig in _reference_sets(rng).items():
        s, lam, clamped = mat.sl3_sigma_project_batch(sig)
        s_ref, _, clamped_ref = oracles.sl3_sigma_project_batch(sig)
        assert np.array_equal(clamped, clamped_ref), name
        assert np.all(np.abs(s - s_ref) <= 1e-15 * np.maximum(1.0, np.abs(s_ref))), name
        obj = np.sum((s - sig) ** 2, axis=1)
        obj_ref = np.sum((s_ref - sig) ** 2, axis=1)
        assert np.all(obj <= obj_ref + 1e-15 * np.maximum(1.0, obj_ref)), name


def _s2_bound(ss):
    """Lower bound on the objective of any s2-clamped candidate of the
    descending rows ss, as sl3_sigma_project_batch takes it."""
    f = mat.SV_FLOOR
    return (f - ss[:, 2]) ** 2 + np.maximum(0.0, 0.5 / np.sqrt(f) - ss[:, 0]) ** 2


def _certified(sig):
    """The rows of descending sig that the Newton solve keeps."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return mat._plus_root(sig, _s2_bound(sig))[2]


def _clamp_bound_rows():
    """Rows whose unclamped objective plus its rounding meets the s2-clamp
    bound, found by bisection on sigma_0 along (a, k a, c), each with its
    neighbours a few ulps away on both sides."""
    def margin(a, k, c):
        ss = np.stack([a, k * a, np.full_like(a, c)], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = mat._plus_root(ss, _s2_bound(ss))[0]
        return np.sum((s - ss) ** 2, axis=1) + mat._rounding(s, ss) - _s2_bound(ss)

    rows = []
    for c in (0.021, 0.05, 0.1):
        for k in (1.0, 0.5, 0.2):
            a = np.geomspace(max(c, 2.0), 60.0, 400)
            m = margin(a, k, c)
            for i in np.flatnonzero(np.sign(m[:-1]) * np.sign(m[1:]) < 0):
                lo, hi = a[i], a[i + 1]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if np.sign(margin(np.array([mid]), k, c)[0]) == np.sign(m[i]) \
                        else (lo, mid)
                for r in lo * (1.0 + EPS * np.arange(-4, 5)):
                    rows.append([r, k * r, c])
    return np.array(rows)


def test_sl3_newton_rows_match_reference(rng):
    # every row, kept by the Newton solve or routed, carries the reference's
    # clamp mask and its roots to rounding, also near expansion at (2, 2, 2),
    # at the s2-clamp bound and just above the floor, where kept and routed
    # rows meet
    f = mat.SV_FLOOR
    t = np.linspace(1.0, 2.6, 161)
    sets = dict(_reference_sets(rng), **{
        "near (2, 2, 2)": np.concatenate([
            t[:, None] * np.ones(3),
            np.sort(2.0 * np.exp(0.05 * rng.normal(size=(400, 3))), axis=1)[:, ::-1]]),
        "clamp bound": _clamp_bound_rows(),
        "above floor": np.concatenate([
            np.array([[1.0, 1.0, 2.0 * f * (1.0 + k * EPS)] for k in range(-2, 6)]),
            np.array([[hi, 1.0, lo] for hi in (1.0, 5.0, 50.0)
                      for lo in 2.0 * f * np.array([1.0 + 1e-12, 1.001, 1.1, 1.5, 3.0])])]),
    })
    kept = 0
    for name, sig in sets.items():
        s, lam, clamped = mat.sl3_sigma_project_batch(sig)
        s_ref, _, clamped_ref = oracles.sl3_sigma_project_batch(sig)
        assert np.array_equal(clamped, clamped_ref), name
        assert np.all(np.abs(s - s_ref) <= 1e-15 * np.maximum(1.0, np.abs(s_ref))), name
        kept += int(_certified(-np.sort(-sig, axis=1)).sum())
    # both sides of every boundary are exercised
    assert 0 < np.sum(_certified(sets["clamp bound"])) < len(sets["clamp bound"])
    assert 0 < np.sum(_certified(sets["near (2, 2, 2)"])) < len(sets["near (2, 2, 2)"])
    assert 0 < np.sum(_certified(sets["above floor"])) < len(sets["above floor"])
    assert kept > 1000


def test_sl3_tangent_start_is_right_of_the_root(rng):
    # g is concave and decreasing, so its tangent at lam = 0 lies above it
    # and crosses zero right of the root: g(lam0) <= 0 wherever lam0 lies
    # in the domain lam <= sigma_min^2 / 4
    sig = np.sort(np.exp(rng.uniform(-3.0, 1.5, size=(10000, 3))), axis=1)[:, ::-1]
    lam0 = np.log(np.prod(sig, axis=1)) / np.sum(sig ** -2.0, axis=1)
    inside = 4.0 * lam0 <= sig[:, 2] ** 2
    sig, lam0 = sig[inside], lam0[inside, None]
    g = np.sum(np.log(0.5 * (sig + np.sqrt(sig * sig - 4.0 * lam0))), axis=1)
    assert inside.sum() > 5000
    assert np.all(g <= 0.0)


def test_sl3_uncertified_rows_take_the_bracketed_solve(monkeypatch):
    f = mat.SV_FLOOR
    sig = np.array([
        [1.1, 1.0, 0.9],            # mild: kept
        [2.0, 2.0, 2.0],            # expansive: the start leaves the domain
        [1.0, 1.0, -0.5],           # inverted
        [50.0, 1.0, 1.5 * f],       # near the floor
        [1e4, 0.02, 0.02],          # the s2-clamped candidate ties
        [1.2, 0.8, 0.3],            # compressive: kept
    ])
    seen = []
    bracketed = mat._bracketed
    monkeypatch.setattr(mat, "_bracketed",
                        lambda ss, bound: seen.append(ss.copy()) or bracketed(ss, bound))
    before = mat.COUNTS["sl3_bracketed_rows"]
    s, _, clamped = mat.sl3_sigma_project_batch(sig)
    assert len(seen) == 1 and np.array_equal(seen[0], sig[1:5])
    assert mat.COUNTS["sl3_bracketed_rows"] - before == 4
    s_ref, _, clamped_ref = oracles.sl3_sigma_project_batch(sig)
    assert np.array_equal(clamped, clamped_ref)
    assert np.all(np.abs(s - s_ref) <= 1e-15 * np.maximum(1.0, np.abs(s_ref)))
    # a row that does not converge within the cap is not kept
    monkeypatch.setattr(mat, "_NEWTON_ITERS", 1)
    seen.clear()
    mat.sl3_sigma_project_batch(sig[[0, 5]])
    assert len(seen) == 1 and len(seen[0]) == 2


def _tie_rows():
    return np.concatenate([
        np.array([[2.0, 2.0, 2.0], [100.0, 100.0, 1e-5], [1.0, 1.0, 1.0], [1e4, 0.02, 0.02]]),
        _bound_rows()])


def test_sl3_tie_takes_clamped_mask():
    # the unclamped root of (1e4, 0.02, 0.02) sits at f to rounding, so the
    # unclamped and s2-clamped candidates are one point: the clamp wins.
    # (1e4, f, f) is already feasible with two entries on the floor
    f = mat.SV_FLOOR
    s, lam, clamped = mat.sl3_sigma_project_batch(np.array([[1e4, 0.02, 0.02], [1e4, f, f]]))
    assert clamped.tolist() == [[False, False, True], [False, True, True]]
    assert np.all(s[clamped] == f)
    assert np.abs(np.prod(s, axis=1) - 1.0).max() < 1e-12


def test_sl3_answer_does_not_depend_on_the_batch(rng):
    # the root loop runs until every row of a batch has converged, so a row's
    # last bits may follow its neighbours; the mask must not
    rows = _tie_rows()
    alone = [mat.sl3_sigma_project_batch(r[None]) for r in rows]
    for spread in (0.05, 0.6):
        other = mat.svd_rv_batch(np.eye(3) + spread * rng.normal(size=(400, 3, 3)))[1]
        s, _, clamped = mat.sl3_sigma_project_batch(np.concatenate([other, rows]))
        for k, (s1, _, c1) in enumerate(alone):
            assert np.array_equal(clamped[400 + k], c1[0]), (spread, rows[k])
            assert np.all(np.abs(s[400 + k] - s1[0]) <= 1e-15 * np.abs(s1[0])), (spread, rows[k])


# ---------------------------------------------------------------------------
# projection Jacobians


def test_rotation_jacobian_fd(rng):
    for _ in range(10):
        F = random_f(rng, min_gap=5e-2)
        J = oracles.rotation_jacobian(F)
        Jfd = central_diff(oracles.project_so3, F)
        rel = np.linalg.norm(J - Jfd) / np.linalg.norm(Jfd)
        assert rel < 1e-5, rel


def test_sl3_jacobian_fd(rng):
    for _ in range(10):
        F = random_f(rng, min_gap=5e-2)
        J = oracles.sl3_jacobian(F)
        Jfd = central_diff(oracles.project_sl3, F)
        rel = np.linalg.norm(J - Jfd) / np.linalg.norm(Jfd)
        assert rel < 1e-5, rel


def test_jacobians_at_identity():
    # equal singular values exercise the confluent branch
    JR = oracles.rotation_jacobian(np.eye(3))
    JV = oracles.sl3_jacobian(np.eye(3))
    JRfd = central_diff(oracles.project_so3, np.eye(3))
    JVfd = central_diff(oracles.project_sl3, np.eye(3))
    assert np.abs(JR - JRfd).max() < 1e-8
    assert np.abs(JV - JVfd).max() < 1e-8


def test_jacobians_symmetric(rng):
    # both projections are gradients of scalar potentials
    for _ in range(10):
        F = random_f(rng)
        assert np.abs(oracles.rotation_jacobian(F) - oracles.rotation_jacobian(F).T).max() < 1e-9
        assert np.abs(oracles.sl3_jacobian(F) - oracles.sl3_jacobian(F).T).max() < 1e-9


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
    return X, oracles.diff_op(G), np.linalg.det(Dm) / 6.0


def test_energy_zero_iff_rotation(rng):
    for _ in range(20):
        Q = random_rotation(rng)
        assert oracles.element_energy(Q, 1.0, 1.0, 1.0) < 1e-12
    for _ in range(20):
        F = random_f(rng)
        s = np.linalg.svd(F, compute_uv=False)
        if np.abs(s - 1.0).max() > 1e-2:
            assert oracles.element_energy(F, 1.0, 1.0, 1.0) > 1e-8


def test_force_matches_energy_gradient(rng):
    # envelope theorem: projections may be treated as constant in the force
    for _ in range(6):
        X, D, vol = _tet_diff_op(rng)
        x = (X + 0.1 * rng.normal(size=(4, 3))).reshape(-1)
        gs, gv = 2.0, 0.7

        def energy(xv):
            F = (D @ xv).reshape(3, 3)
            return oracles.element_energy(F, gs, gv, vol)

        F = (D @ x).reshape(3, 3)
        sv = np.linalg.svd(F, compute_uv=False)
        if min(abs(sv[0] - sv[1]), abs(sv[1] - sv[2]), sv[1] + sv[2]) < 1e-2:
            continue
        force, dgs, dgv = oracles.element_force_and_dgamma(D, F, gs, gv, vol)
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
    f1, dgs, dgv = oracles.element_force_and_dgamma(D, F, 1.3, 0.4, vol)
    f2, _, _ = oracles.element_force_and_dgamma(D, F, 1.3 + 1.0, 0.4, vol)
    f3, _, _ = oracles.element_force_and_dgamma(D, F, 1.3, 0.4 + 1.0, vol)
    assert np.abs((f2 - f1) - dgs).max() < 1e-10
    assert np.abs((f3 - f1) - dgv).max() < 1e-10


def test_batch_energies(rng):
    F = np.eye(3) + 0.3 * rng.normal(size=(15, 3, 3))
    gs = rng.uniform(0.5, 2.0, 15)
    gv = rng.uniform(0.5, 2.0, 15)
    vols = rng.uniform(0.1, 1.0, 15)
    tot = oracles.batch_energies(F, gs, gv, vols)
    ref = sum(oracles.element_energy(F[k], gs[k], gv[k], vols[k]) for k in range(15))
    assert abs(tot.sum() - ref) < 1e-9 * max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# material files


def test_material_field_roundtrip(tmp_path):
    # a material is one (2, nE) array; its file round trip keeps every bit
    gam = np.random.default_rng(3).uniform(0.1, 5.0, (2, 7))
    path, again = tmp_path / "material.csv", tmp_path / "again.csv"
    cli.write_material(path, gam, "0")
    back = cli.read_material(path)
    assert back.shape == (2, 7) and back.dtype == np.float64
    assert back.flags.c_contiguous
    assert np.array_equal(back, gam)
    cli.write_material(again, back, "0")
    assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# one decomposition per F


def _counting(monkeypatch, name):
    """Calls of mat.<name> from here on, with nothing kept from before."""
    calls = []
    fn = getattr(mat, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(mat, name, counted)
    mat.clear_decomposition_cache()
    return calls


def test_equal_f_is_decomposed_once(rng, monkeypatch):
    F = np.concatenate([np.eye(3) + 0.3 * rng.normal(size=(40, 3, 3)), _hard_batch(rng, 10)])
    calls = _counting(monkeypatch, "svd_rv_batch")
    jac_calls = _counting(monkeypatch, "_jacobians")
    R, V = mat.batch_projections(F)
    JR, JV = mat.projection_jacobians_batch(F.copy())
    R2, V2 = mat.batch_projections(F.copy())
    JR2, JV2 = mat.projection_jacobians_batch(F.copy())
    assert len(calls) == 1
    assert len(jac_calls) == 1
    # the reused decomposition and Jacobians give the bits of fresh ones
    mat.clear_decomposition_cache()
    JR0, JV0 = mat.projection_jacobians_batch(F)
    mat.clear_decomposition_cache()
    R0, V0 = mat.batch_projections(F)
    assert len(calls) == 3
    assert len(jac_calls) == 2
    for a, b in ((R, R0), (V, V0), (R2, R0), (V2, V0), (JR, JR0), (JV, JV0),
                 (JR2, JR0), (JV2, JV0)):
        assert np.array_equal(a, b)


def test_two_distinct_f_are_kept(rng, monkeypatch):
    # a line-search trial returns to its base state: F1, F2, F1 decomposes
    # twice; a third F then evicts the one seen least recently, F2
    F1, F2, F3 = np.eye(3) + 0.3 * rng.normal(size=(3, 20, 3, 3))
    calls = _counting(monkeypatch, "svd_rv_batch")
    for F in (F1, F2, F1):
        mat.batch_projections(F)
    assert len(calls) == 2
    mat.batch_projections(F3)
    mat.batch_projections(F1)
    assert len(calls) == 3
    mat.batch_projections(F2)
    assert len(calls) == 4


def test_f_changed_in_place_is_decomposed_again(rng, monkeypatch):
    F = np.eye(3) + 0.3 * rng.normal(size=(20, 3, 3))
    calls = _counting(monkeypatch, "svd_rv_batch")
    mat.batch_projections(F)
    F[7, 1, 2] += 1e-12
    R, V = mat.batch_projections(F)
    assert len(calls) == 2
    mat.clear_decomposition_cache()
    R0, V0 = mat.batch_projections(F)
    assert np.array_equal(R, R0) and np.array_equal(V, V0)


def test_kept_decomposition_is_read_only(rng):
    F = np.eye(3) + 0.3 * rng.normal(size=(8, 3, 3))
    mat.clear_decomposition_cache()
    mat.batch_projections(F)
    mat.projection_jacobians_batch(F)
    _, kept, jac = mat._entry(F)
    assert len(kept) == 6 and len(jac) == 2
    for a in kept + jac:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0

"""Per-element constitutive model built on two matrix projections.

Each tetrahedron stores a pair of nonnegative coefficients (gamma_s, gamma_v);
a material is one (2, nE) array of them, whose ravel is the fit's stacked
vector.  An element's elastic energy penalizes the Frobenius distance of
the deformation gradient F to the rotation group (shape term) and to the
volume-preserving matrices with unit determinant (volume term):

    E = gamma_s * vol * |F - R(F)|^2 + gamma_v * vol * |F - V(F)|^2

R(F) is the polar rotation.  V(F) is the closest unit-determinant matrix,
found by adjusting the singular values of F under a product constraint.
Both come from one batched SVD, taken from a batched eigh(-F^T F) and built
up by cross products and one Gram-Schmidt step; rows too ill-conditioned to
square (sigma_min^2 <= SVD_TAU sigma_max^2) go through LAPACK's SVD.  The
volume projection solves every row by bracket-free Newton in the multiplier
from a tangent start, keeps the rows where that root provably wins, and
routes the rest to a bracketed secular solve over clamp patterns; COUNTS
tallies both fallbacks.  Single-element functions are batch calls of size
one.  Both projections and their derivatives with respect to F live here;
the derivatives feed the equilibrium Jacobians used during material fitting.
The rotation helpers (skew, exponential, logarithm, minimal rotation) act
on stacks, with row masks for the small-angle, near-pi and antiparallel cases.
"""

from __future__ import annotations

import numpy as np

# floor applied to the singular values of the volume projection
SV_FLOOR = 0.01
# smallest admissible material coefficient during fitting
GAMMA_FLOOR = 1e-3

# rows decomposed and sent to each fallback; a caller diffs two reads
COUNTS = {"rows": 0, "svd_lapack_rows": 0, "sl3_bracketed_rows": 0}


# ---------------------------------------------------------------------------
# rotation utilities


def _cross(a, b):
    """Cross products of stacks of 3-vectors on the last axis."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _dot(a, b):
    """Dot products of stacks of 3-vectors on the last axis."""
    return np.einsum("...i,...i->...", a, b)


def skew(v):
    """Skew-symmetric matrices (..., 3, 3) with the axes v (..., 3): column
    j is v x e_j."""
    return np.swapaxes(_cross(np.asarray(v, dtype=float)[..., None, :], np.eye(3)), -1, -2)


def unskew(Omega):
    """Axes (..., 3) of skew-symmetric matrices (..., 3, 3)."""
    return np.stack([Omega[..., 2, 1], Omega[..., 0, 2], Omega[..., 1, 0]], axis=-1)


def rotation_exp(w):
    """Rotations (..., 3, 3) of the axis-angle vectors w (..., 3), in closed
    form; below an angle of 1e-8 a series keeps full accuracy."""
    Omega = skew(w)
    theta = np.sqrt(_dot(w, w))
    small = theta < 1e-8
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta * theta / 6.0, np.sin(t) / t)
    b = np.where(small, 0.5 - theta * theta / 24.0, (1.0 - np.cos(t)) / (t * t))
    return np.eye(3) + a[..., None, None] * Omega + b[..., None, None] * (Omega @ Omega)


def rotation_log(R):
    """Axis-angle vectors (..., 3) of rotations R (..., 3, 3).

    The angle lands in [0, pi].  Within 1e-6 of pi the antisymmetric part of
    R loses the axis, so those rows recover it from the symmetric part
    instead; the axis sign is then fixed by making its largest-magnitude
    component positive, which keeps the result deterministic.
    """
    R = np.asarray(R, dtype=float)
    c = 0.5 * ((R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2]) - 1.0)
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    # below 1e-10 the antisymmetric part is the log to rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(theta < 1e-10, 0.5, theta / (2.0 * np.sin(theta)))
    w = coef[..., None] * unskew(R - np.swapaxes(R, -1, -2))
    near = np.pi - theta <= 1e-6
    if near.any():
        # R ~ 2 n n^T - I: take the strongest column of (R + I)/2 as the axis
        B = 0.5 * (R[near] + np.eye(3))
        k = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
        n = np.take_along_axis(B, k[:, None, None], axis=2)[:, :, 0]
        n /= np.sqrt(_dot(n, n))[:, None]
        top = np.take_along_axis(n, np.argmax(np.abs(n), axis=1)[:, None], axis=1)
        w[near] = theta[near, None] * np.where(top < 0.0, -n, n)
    return w


def minimal_rotation(a, b):
    """Rotations (..., 3, 3) with the smallest angle taking unit vectors a
    to unit vectors b (..., 3).  Antiparallel pairs turn by pi about an axis
    orthogonal to a: its cross product with the coordinate axis least
    aligned with it."""
    c = np.clip(_dot(a, b), -1.0, 1.0)
    w = _cross(a, b)
    s = np.sqrt(_dot(w, w))
    turn = s >= 1e-12
    axis = np.where(turn[..., None], w, _cross(a, np.eye(3)[np.argmin(np.abs(a), axis=-1)]))
    theta = np.where(turn, np.arctan2(s, c), np.where(c > 0.0, 0.0, np.pi))
    return rotation_exp((theta / np.sqrt(_dot(axis, axis)))[..., None] * axis)


# ---------------------------------------------------------------------------
# SVD with the rotation-variant sign convention
#
# F = U diag(s) W^T with U and W proper rotations, s descending in
# magnitude, and a reflection carried by the sign of s[2].  The batched path
# squares F: W comes from eigh(F^T F), U from orthonormalizing F W.  That
# is the branch-light scheme of McAdams et al. (2011, UW CS TR 1690) with
# LAPACK's eigensolver in place of their Jacobi sweeps.  Squaring costs
# about eps * kappa^2 in the small singular values, kappa = sigma_max /
# sigma_min; measured against LAPACK on 2,000 random upright F per kappa,
# the largest error in U W^T is 6e-15 at kappa = 2, 7e-15 at kappa = 10
# and 8e-13 at kappa = 99.  So rows with sigma_min^2 <= SVD_TAU
# sigma_max^2 (kappa >= 10), F = 0 and rank-deficient F among them, go
# through LAPACK, which keeps the error near 1e-14 on every row.


def _svd_rv_lapack(F):
    """svd_rv_batch through LAPACK, for rows too ill-conditioned to square."""
    U, s, Wt = np.linalg.svd(F)
    W = np.ascontiguousarray(np.swapaxes(Wt, -1, -2))
    s = s.copy()
    sign = np.where(np.linalg.det(np.stack([U, W])) < 0.0, -1.0, 1.0)
    U[:, :, 2] *= sign[0][:, None]
    W[:, :, 2] *= sign[1][:, None]
    s[:, 2] *= sign[0] * sign[1]
    return U, s, W


# rows with sigma_min^2 <= SVD_TAU * sigma_max^2 take LAPACK (see above)
SVD_TAU = 1e-2


def svd_rv_batch(F):
    """SVD F = U diag(s) W^T of a (B, 3, 3) stack in the convention above,
    from one batched eigh(-F^T F).

    W holds the eigenvectors, which eigh lists by descending sigma^2, made
    proper by w3 = w1 x w2.  U orthonormalizes the columns of G = F W
    (normalize g1, Gram-Schmidt on g2, u3 = u1 x u2), and s = (|g1|,
    |g2 - (u1.g2) u1|, u3.g3): the signed last entry is the reflection, with
    no determinant test.  Rows past SVD_TAU, F = 0 and rank-deficient F
    among them, go through LAPACK instead.
    """
    # matmul is about twice as fast on contiguous operands as on views
    F = np.ascontiguousarray(F, dtype=float)
    ev, W = np.linalg.eigh(np.negative(np.swapaxes(F, -1, -2), order="C") @ F)
    W[:, :, 2] = _cross(W[:, :, 0], W[:, :, 1])
    G = F @ W
    g1, g2 = G[:, :, 0], G[:, :, 1]
    U = np.empty_like(G)
    s = np.empty((len(F), 3))
    # the divisions by zero and their NaNs sit on fallback rows only
    with np.errstate(divide="ignore", invalid="ignore"):
        s[:, 0] = np.sqrt(np.einsum("bi,bi->b", g1, g1))
        U[:, :, 0] = u1 = g1 / s[:, :1]
        g2 = g2 - np.einsum("bi,bi->b", u1, g2)[:, None] * u1
        s[:, 1] = np.sqrt(np.einsum("bi,bi->b", g2, g2))
        U[:, :, 1] = g2 / s[:, 1:2]
    U[:, :, 2] = _cross(U[:, :, 0], U[:, :, 1])
    s[:, 2] = np.einsum("bi,bi->b", U[:, :, 2], G[:, :, 2])
    # ev ascends over -sigma^2, so -ev[:, 2] is sigma_min^2; the strict test
    # sends F = 0 back
    bad = np.flatnonzero(~(ev[:, 2] < SVD_TAU * ev[:, 0]))
    if len(bad):
        U[bad], s[bad], W[bad] = _svd_rv_lapack(F[bad])
    COUNTS["rows"] += len(F)
    COUNTS["svd_lapack_rows"] += len(bad)
    return U, s, W


# ---------------------------------------------------------------------------
# volume projection: singular-value optimization under a product constraint
#
# Minimize |s - sigma|^2 subject to s0*s1*s2 = 1 and s_i >= f = SV_FLOOR.
# With sigma sorted descending the optimal s is sorted the same way, so only
# trailing entries can sit on the floor: no clamp, s2 clamped, or s1 and s2
# clamped, the last with the closed form (1/f^2, f, f).  A free entry
# satisfies s_i^2 - sigma_i s_i + lam = 0.
#
# Most rows keep the unclamped plus branch, every s_i the larger root,
# solved by Newton in lam on g(lam) = sum_i log (sigma_i + r_i) / 2 with
# r_i = sqrt(sigma_i^2 - 4 lam).  For sigma > 0, g is concave and
# decreasing on lam <= sigma_2^2 / 4, so the root of its tangent at 0,
# lam0 = sum log sigma_i / sum sigma_i^-2, has g(lam0) <= 0, and Newton
# from there moves left to the root without a bracket.  _plus_root keeps a
# row only where its root provably wins: sigma_2 > 2 f, lam0 in the domain,
# converged, r_2 > 0 (|g'| >= 1 / (r_2 s_2) up to the domain end, so
# phi(sigma_2 / 2) < -r_2 / 4 s_2: no fold root), the s2-clamp bound above
# its objective plus rounding, and sigma_0 < 1 / (4 f^2) (the corner farther).
#
# The other rows (inverted, near the floor, expansive, unconverged) take
# the bracketed solve.  Parametrize a clamp pattern by t, the value of its
# smallest free entry m: lam = t (sigma_m - t), the other free entries take
# the larger root, and the product constraint becomes the secular equation
#
#     phi(t) = log t + sum_i log s_i(t) + |clamped| log f = 0.
#
# phi increases on t >= sigma_m / 2, so that branch has one root.  The fold
# t < sigma_m / 2 (entry m on the smaller root) can hold a root only when
# phi(sigma_m / 2) >= 0: the expansive case, whose optimum at
# sigma = (2, 2, 2) is the golden-ratio triple rather than the identity.
# Every candidate is a bracketed root; the feasible one closest to sigma wins.

# A clamp pattern p in {0, 1} puts the last p sorted entries on the floor;
# its smallest free entry is m = 2 - p and the entries before m are the
# other free ones.
_FOLD_GRID = 16
_ROOT_ITERS = 100
_NEWTON_ITERS = 50
_G_TOL = 1e-10      # a step from |g| <= _G_TOL errs by about g''/g'^3 g^2


def _secular(u, sm, so, p):
    """phi and d phi / d log t at t = exp(u) for clamp pattern p.

    so holds the other free entries on a leading axis and broadcasts
    against u and sm behind it.  Returns (phi, dphi, t, s_other, lam).
    """
    t = np.exp(u)
    lam = t * (sm - t)
    rt = np.sqrt(np.maximum(so * so - 4.0 * lam, 0.0))
    # larger root of s^2 - sigma s + lam, free of cancellation
    s = np.where(so >= 0.0, 0.5 * (so + rt), -2.0 * lam / (rt - so))
    # the sums over the one or two other entries, spelled out
    logs = np.log(s)
    inv = 1.0 / (s * rt)
    if p:
        phi = u + logs[0] + p * np.log(SV_FLOOR)
        inv = inv[0]
    else:
        phi = u + (logs[0] + logs[1])
        inv = inv[0] + inv[1]
    dphi = 1.0 + t * (2.0 * t - sm) * inv
    return phi, dphi, t, s, lam


def _secular_root(lo, hi, u, sm, so, p):
    """Root of phi in [lo, hi], given phi(lo) <= 0 <= phi(hi), by Newton in
    log t with a bisection step whenever Newton leaves the bracket; a lane
    keeps its root once its step falls below rounding, whatever the others."""
    done = np.zeros(np.shape(u), dtype=bool)
    for _ in range(_ROOT_ITERS):
        phi, dphi, *_ = _secular(u, sm, so, p)
        neg = phi < 0.0
        lo = np.where(neg, u, lo)
        hi = np.where(neg, hi, u)
        un = u - phi / dphi
        newton = np.isfinite(dphi) & (un >= lo) & (un <= hi)
        if not newton.all():
            un = np.where(newton, un, 0.5 * (lo + hi))
        un = np.where(phi == 0.0, u, un)
        u, done = np.where(done, u, un), done | (np.abs(un - u) <= 1e-15 * np.maximum(1.0, np.abs(u)))
        if done.all():
            break
    return u


def _candidate(ss, u, sm, so, p, ok):
    """Sorted singular values (R, 3), multipliers and objectives |s - sigma|^2
    of pattern p at the roots u; inf objective where ok is False."""
    _, _, t, s_o, lam = _secular(u, sm, so, p)
    s = np.concatenate([s_o, t[None], np.full((p, len(t)), SV_FLOOR)]).T
    return s, lam, np.where(ok, np.sum((s - ss) ** 2, axis=1), np.inf)


def _pattern_candidates(ss, p):
    """Best candidate of clamp pattern p for rows of descending sigma ss
    (R, 3): (s, lam, obj) from _candidate, the fold branch replacing the
    plus branch only where it is strictly closer.  Lanes at a bracket end or
    without a feasible root divide by zero or take logs of negatives on the
    way; they are masked out, so those warnings are silenced here once."""
    f = SV_FLOOR
    m = 2 - p
    sm, so = ss[:, m], ss[:, :m].T

    with np.errstate(divide="ignore", invalid="ignore"):
        # branch t >= sigma_m / 2; phi(t) >= (1 + #others) log t + |clamped|
        # log f there bounds the root from above, and t >= f is needed for
        # feasibility
        lo = np.log(np.maximum(f, 0.5 * sm))
        phi_lo = _secular(lo, sm, so, p)[0]
        plus_ok = phi_lo <= 0.0
        hi = np.where(plus_ok, np.maximum(lo, -p * np.log(f) / (1.0 + m)), lo)
        u_plus = _secular_root(lo, hi, np.clip(np.log(np.maximum(sm, f)), lo, hi), sm, so, p)
        s, lam, obj = _candidate(ss, u_plus, sm, so, p, plus_ok)

        # fold t < sigma_m / 2 when phi(sigma_m / 2) >= 0: bracket the first
        # sign change of a log-grid scan over [f, sigma_m / 2]
        rows = np.flatnonzero((sm > 2.0 * f) & (phi_lo >= 0.0))
        if len(rows):
            smr, sor = sm[rows], so[:, rows]
            w = np.linspace(0.0, 1.0, _FOLD_GRID)[:, None]
            grid = np.log(f) + w * np.log(np.maximum(0.5 * smr / f, 1.0))
            phig = _secular(grid, smr, sor[:, None], p)[0]
            up = (phig[:-1] < 0.0) & (phig[1:] >= 0.0)
            k = np.argmax(up, axis=0)[None]
            glo = np.take_along_axis(grid, k, axis=0)[0]
            ghi = np.take_along_axis(grid, k + 1, axis=0)[0]
            fold_ok = up.any(axis=0)
            ghi = np.where(fold_ok, ghi, glo)
            u_fold = _secular_root(glo, ghi, 0.5 * (glo + ghi), smr, sor, p)
            s_f, lam_f, obj_f = _candidate(ss[rows], u_fold, smr, sor, p, fold_ok)
            closer = obj_f < obj[rows]
            rows = rows[closer]
            s[rows], lam[rows], obj[rows] = s_f[closer], lam_f[closer], obj_f[closer]
    return s, lam, obj


def _rounding(s, ss):
    """Rounding of the objective |s - sigma|^2 from a few ulps in each
    (positive) candidate entry s_i."""
    e = 4.0 * np.finfo(float).eps * s
    return np.sum(e * (2.0 * np.abs(s - ss) + e), axis=1)


def _bracketed(ss, bound):
    """Multi-pattern solve of descending rows ss (R, 3): (s, lam, clamped
    count).  Only rows not below the s2-clamp bound by rounding solve p = 1."""
    f = SV_FLOOR
    s, lam, obj = _pattern_candidates(ss, 0)
    n_clamped = np.zeros(len(ss), dtype=int)
    tie = _rounding(s, ss)
    rows = np.flatnonzero(~(obj + tie < bound))
    if len(rows):
        s1, lam1, obj1 = _pattern_candidates(ss[rows], 1)
        take = obj1 <= obj[rows] + tie[rows]
        rows = rows[take]
        s[rows], lam[rows], obj[rows], n_clamped[rows] = s1[take], lam1[take], obj1[take], 1
        tie[rows] = _rounding(s[rows], ss[rows])
    # the closed form (1/f^2, f, f) with s1 and s2 on the floor
    corner = np.array([1.0 / f**2, f, f])
    take = np.sum((corner - ss) ** 2, axis=1) <= obj + tie
    s[take], lam[take], n_clamped[take] = corner, (ss[take, 0] - 1.0 / f**2) / f**2, 2
    return s, lam, n_clamped


def _plus_root(ss, bound):
    """Unclamped plus-branch candidates of descending rows ss (R, 3) by
    Newton in lam from the tangent start: (s, lam, certified)."""
    f = SV_FLOOR
    sT = np.ascontiguousarray(ss.T)
    sq = sT * sT
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log(sT[0] * sT[1] * sT[2]) / (1.0 / sq[0] + 1.0 / sq[1] + 1.0 / sq[2])
        start = (sT[2] > 2.0 * f) & (4.0 * lam <= sq[2])
        active = start.copy()
        for _ in range(_NEWTON_ITERS):
            r = np.sqrt(sq - 4.0 * lam)
            s2 = sT + r                             # 2 s
            h = 1.0 / (r * s2)                      # -g' = 2 sum h
            g = np.log(0.125 * (s2[0] * s2[1] * s2[2]))
            # a converged row takes this last step and then keeps its lam
            lam = np.where(active, lam + g / (2.0 * (h[0] + h[1] + h[2])), lam)
            active &= g < -_G_TOL
            if not active.any():
                break
        r = np.sqrt(sq - 4.0 * lam)
    s = (0.5 * (sT + r)).T
    obj = np.sum((s - ss) ** 2, axis=1) + _rounding(s, ss)
    certified = (start & ~active & (r[2] > 1e-12 * sT[2]) & (sT[0] < 0.25 / f**2)
                 & (obj < bound))
    return s, lam, certified


def sl3_sigma_project_batch(sig):
    """Closest singular-value triples with unit product and floored entries.

    For each row of sig (B, 3), minimizes |s - sigma|^2 subject to
    s1*s2*s3 = 1 and s_i >= SV_FLOOR: rows that _plus_root certifies keep
    its candidate, and the others take _bracketed.  Returns (s, lam,
    clamped): the singular values, the multiplier of the free-entry
    stationarity condition s_i - sigma_i + lam * prod_{k != i} s_k = 0, and
    the clamp mask, all in the input order.

    Tie rule: when a winner's free entry sits at f to rounding, it is also a
    point of the pattern that clamps that entry, and the two objectives agree
    to rounding (_rounding); the clamped candidate then wins, so that the
    mask never hangs on the last bits of a root.
    """
    sig = np.asarray(sig, dtype=float)
    # svd_rv_batch rows already descend; only other input is sorted here
    order = None
    ss = sig
    if not (sig[:, :-1] >= sig[:, 1:]).all():
        order = np.argsort(-sig, axis=1, kind="stable")
        ss = np.take_along_axis(sig, order, axis=1)

    # a candidate with s2 on the floor has s0 s1 = 1/f, so one of them is at
    # least 1/sqrt(f), and as sigma_1 <= sigma_0 it costs at least
    # (sigma_2 - f)^2 plus (1/sqrt(f) - sigma_0)^2 if positive; half of
    # 1/sqrt(f) keeps the bound clear of the roots' rounding
    f = SV_FLOOR
    bound = (f - ss[:, 2]) ** 2 + np.maximum(0.0, 0.5 / np.sqrt(f) - ss[:, 0]) ** 2
    s, lam, certified = _plus_root(ss, bound)
    clamped = np.zeros(ss.shape, dtype=bool)
    rows = np.flatnonzero(~certified)
    if len(rows):
        s[rows], lam[rows], n_clamped = _bracketed(ss[rows], bound[rows])
        clamped[rows] = np.arange(3) >= 3 - n_clamped[:, None]
    COUNTS["sl3_bracketed_rows"] += len(rows)

    if order is not None:
        back = np.argsort(order, axis=1)
        s, clamped = np.take_along_axis(s, back, axis=1), np.take_along_axis(clamped, back, axis=1)
    return s, lam, clamped


def sl3_sigma_project(sigma):
    """Volume projection of one singular-value triple, a B=1 call of
    sl3_sigma_project_batch.  Returns (s, lam, clamped, ok); every input has
    a feasible answer, so ok is always True."""
    s, lam, clamped = sl3_sigma_project_batch(np.asarray(sigma, dtype=float)[None])
    return s[0], float(lam[0]), clamped[0], True


# ---------------------------------------------------------------------------
# batched projections for the per-element local solves
#
# A fit's equilibrium solve asks for the projections of one F several times
# in a row: the polish objective, the residual, the exact Hessian and the
# coefficient Jacobian all see the same state, and every line-search trial
# starts from the same base state.  The projections and their Jacobians are
# pure functions of F, so the last two distinct F are kept, keyed by F's
# shape and bytes, each with its decomposition and, once asked for, its
# projection Jacobians; the base state and the trial's latest state both
# stay, and an equal F reuses what its entry holds.  A miss costs one copy
# of F's bytes and two compares that stop at the first differing byte.

_kept = ()          # up to two (key, decomposition, jacobians or None), latest first


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _keep(entry, kept):
    """Store entry first and the latest other entry of kept after it, as
    one new tuple, so another thread's read never sees it half made."""
    global _kept
    _kept = (entry,) + tuple(e for e in kept if e[0] != entry[0])[:1]
    return entry


def _entry(F):
    """The kept (key, decomposition, jacobians) of a float (B, 3, 3) stack.

    A new F gets svd_rv_batch and sl3_sigma_project_batch as (U, sigma, W,
    s, lam, clamped), read-only, and no Jacobians yet; the entry seen least
    recently goes.
    """
    key = (F.shape, F.tobytes())
    kept = _kept        # one read, so another thread's store cannot split it
    entry = next((e for e in kept if e[0] == key), None)
    if entry is None:
        U, sig, W = svd_rv_batch(F)
        entry = (key, _read_only((U, sig, W) + sl3_sigma_project_batch(sig)), None)
    return _keep(entry, kept)


def clear_decomposition_cache():
    """Forget the kept decompositions and Jacobians, so the next call
    computes its own."""
    global _kept
    _kept = ()


def batch_projections(F):
    """Rotation and volume projections for a batch of deformation gradients.

    Returns (R, V) with shapes matching F ((B, 3, 3) each).
    """
    F = np.ascontiguousarray(F, dtype=float)
    if not np.isfinite(F).all():
        raise ValueError("non-finite deformation gradient in batch")
    U, _, W, s, _, _ = _entry(F)[1]
    # R and V as views of W U^T and W diag(s) U^T, the layout mesh.scatter
    # reads without a copy; matmul is about twice as fast on a contiguous U^T
    Ut = np.ascontiguousarray(np.swapaxes(U, -1, -2))
    return np.swapaxes(W @ Ut, -1, -2), np.swapaxes((W * s[:, None, :]) @ Ut, -1, -2)


# ---------------------------------------------------------------------------
# projection derivatives (9x9 in the row-major vec layout)


def _pair_indices():
    for i in range(3):
        for j in range(i + 1, 3):
            yield i, j, 3 * i + j, 3 * j + i


def _sl3_ds_dsigma(s, lam, clamped):
    """Sensitivities ds/dsigma of the constrained singular-value solve, (B, 3, 3).

    Obtained by differentiating the stationarity system bordered by the
    product constraint; clamped entries are insensitive, so their rows and
    columns are masked out of the (B, 4, 4) system.
    """
    free = ~clamped
    both = free[:, :, None] & free[:, None, :]
    p = np.stack([s[:, 1] * s[:, 2], s[:, 0] * s[:, 2], s[:, 0] * s[:, 1]], axis=1)
    A = np.zeros((s.shape[0], 4, 4))
    for i, j, _, _ in _pair_indices():
        A[:, i, j] = A[:, j, i] = lam * s[:, 3 - i - j]
    A[:, :3, :3] *= both
    A[:, :3, 3] = A[:, 3, :3] = p * free
    A[:, [0, 1, 2], [0, 1, 2]] = 1.0
    rhs = np.zeros((s.shape[0], 4, 3))
    rhs[:, :3] = np.eye(3) * both
    return np.linalg.solve(A, rhs)[:, :3]


def projection_jacobians_batch(F):
    """Batched (d vec R / d vec F, d vec V / d vec F), each (B, 9, 9) and
    read-only; kept with F's decomposition, so an equal F reuses them."""
    F = np.asarray(F, dtype=float)
    key, dec, jac = _entry(F)
    if jac is None:
        jac = _keep((key, dec, _read_only(_jacobians(*dec))), _kept)[2]
    return jac


def _jacobians(U, sig, W, s, lam, clamped):
    """projection_jacobians_batch from the decomposition of F."""
    B = U.shape[0]
    LR = np.zeros((B, 9, 9))
    LV = np.zeros((B, 9, 9))
    ds = _sl3_ds_dsigma(s, lam, clamped)
    LV[:, ::4, ::4] = ds  # the diagonal entries of vec(F) sit at 0, 4, 8
    for i, j, a, b in _pair_indices():
        den = sig[:, i] + sig[:, j]
        den = np.where(np.abs(den) < 1e-8, np.copysign(1e-8, np.where(den == 0.0, 1.0, den)), den)
        c = 1.0 / den
        LR[:, a, a] = LR[:, b, b] = c
        LR[:, a, b] = LR[:, b, a] = -c
        dd = sig[:, i] - sig[:, j]
        scale = np.maximum(1.0, np.maximum(np.abs(sig[:, i]), np.abs(sig[:, j])))
        safe = np.abs(dd) > 1e-7 * scale
        cs = np.where(safe, (s[:, i] - s[:, j]) / np.where(safe, dd, 1.0), ds[:, i, i] - ds[:, i, j])
        ca = (s[:, i] + s[:, j]) / den
        LV[:, a, a] = LV[:, b, b] = 0.5 * (cs + ca)
        LV[:, a, b] = LV[:, b, a] = 0.5 * (cs - ca)

    Q = np.einsum("eik,ejl->eijkl", U, W).reshape(B, 9, 9)
    Qt = np.swapaxes(Q, 1, 2)
    JR = Q @ LR @ Qt
    JV = Q @ LV @ Qt
    return JR, JV

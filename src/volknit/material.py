"""Per-element constitutive model built on two matrix projections.

Each tetrahedron stores a pair of nonnegative coefficients (gamma_s, gamma_v).
Its elastic energy penalizes the Frobenius distance of the deformation
gradient F to the rotation group (shape term) and to the volume-preserving
matrices with unit determinant (volume term):

    E = gamma_s * vol * |F - R(F)|^2 + gamma_v * vol * |F - V(F)|^2

R(F) is the polar rotation.  V(F) is the closest unit-determinant matrix,
found by adjusting the singular values of F under a product constraint.
That volume projection is one batched secular solve: each element reduces
to a few bracketed scalar roots, one per floor-clamp pattern and branch,
and the closest feasible candidate wins.  Single-element functions are
batch calls of size one.  Both projections and their derivatives with
respect to F live here; the derivatives feed the equilibrium Jacobians used
during material fitting.
"""

from __future__ import annotations

import numpy as np

# floor applied to the singular values of the volume projection
SV_FLOOR = 0.01
# smallest admissible material coefficient during fitting
GAMMA_FLOOR = 1e-3


# ---------------------------------------------------------------------------
# rotation utilities


def skew(v):
    """Map a 3-vector to the skew-symmetric matrix with that axis."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(Omega):
    return np.array([Omega[2, 1], Omega[0, 2], Omega[1, 0]])


def rotation_exp(Omega):
    """Closed-form matrix exponential of a skew-symmetric matrix."""
    w = unskew(Omega)
    theta = float(np.linalg.norm(w))
    if theta < 1e-8:
        # series expansion keeps full accuracy near zero angle
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * Omega + b * (Omega @ Omega)


def rotation_log(R):
    """Skew-symmetric logarithm of a rotation matrix.

    The angle lands in [0, pi].  Near pi the antisymmetric part of R loses
    the axis, so it is recovered from the symmetric part instead; the axis
    sign is then fixed by making its largest-magnitude component positive,
    which keeps the result deterministic.
    """
    c = 0.5 * (np.trace(R) - 1.0)
    theta = float(np.arccos(np.clip(c, -1.0, 1.0)))
    if theta < 1e-10:
        return 0.5 * (R - R.T)
    if np.pi - theta > 1e-6:
        return theta / (2.0 * np.sin(theta)) * (R - R.T)
    # R ~ 2 n n^T - I: take the strongest column of (R + I)/2 as the axis
    B = 0.5 * (R + np.eye(3))
    k = int(np.argmax(np.diag(B)))
    n = B[:, k]
    n = n / np.linalg.norm(n)
    if n[int(np.argmax(np.abs(n)))] < 0.0:
        n = -n
    return theta * skew(n)


def minimal_rotation(a, b):
    """Rotation with the smallest angle taking unit vector a to unit vector b."""
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    w = np.cross(a, b)
    s = float(np.linalg.norm(w))
    if s < 1e-12:
        if c > 0.0:
            return np.eye(3)
        # antiparallel: rotate by pi about any axis orthogonal to a
        aux = np.zeros(3)
        aux[int(np.argmin(np.abs(a)))] = 1.0
        axis = np.cross(a, aux)
        axis /= np.linalg.norm(axis)
        return rotation_exp(np.pi * skew(axis))
    K = skew(w / s)
    theta = float(np.arctan2(s, c))
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


# ---------------------------------------------------------------------------
# SVD with the rotation-variant sign convention


def svd_rv(F):
    """SVD F = U diag(s) W^T with U and W proper rotations.

    Reflections are pushed into the singular values, so the last entry of s
    turns negative exactly when det F < 0.
    """
    U, s, W = svd_rv_batch(np.asarray(F, dtype=float)[None])
    return U[0], s[0], W[0]


def svd_rv_batch(F):
    U, s, Wt = np.linalg.svd(F)
    W = np.ascontiguousarray(np.swapaxes(Wt, -1, -2))
    s = s.copy()
    flip = np.linalg.det(U) < 0.0
    U[flip, :, 2] *= -1.0
    s[flip, 2] *= -1.0
    flip = np.linalg.det(W) < 0.0
    W[flip, :, 2] *= -1.0
    s[flip, 2] *= -1.0
    return U, s, W


def project_so3(F):
    """Closest rotation to F in the Frobenius norm.

    Well-defined for every finite F; a vanishing F maps to the identity by
    convention (any rotation is equally close, so we pick a fixed one).
    """
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)):
        raise ValueError("non-finite deformation gradient")
    if np.linalg.norm(F) < 1e-300:
        return np.eye(3)
    U, _, W = svd_rv(F)
    return U @ W.T


# ---------------------------------------------------------------------------
# volume projection: singular-value optimization under a product constraint
#
# Minimize |s - sigma|^2 subject to s0*s1*s2 = 1 and s_i >= f = SV_FLOOR.
# With sigma sorted descending the optimal s is sorted the same way, so only
# trailing entries can sit on the floor: no clamp, s2 clamped, or s1 and s2
# clamped, the last with the closed form (1/f^2, f, f).  A free entry
# satisfies s_i^2 - sigma_i s_i + lam = 0.  Parametrize a pattern by t, the
# value of its smallest free entry m: lam = t (sigma_m - t), the other free
# entries take the larger root, and the product constraint becomes the
# secular equation
#
#     phi(t) = log t + sum_i log s_i(t) + |clamped| log f = 0.
#
# phi increases on t >= sigma_m / 2, so that branch has one root.  The fold
# t < sigma_m / 2 (entry m on the smaller root) can hold a root only when
# phi(sigma_m / 2) >= 0: the expansive case, whose optimum at
# sigma = (2, 2, 2) is the golden-ratio triple rather than the identity.
# Every candidate is a bracketed root; the feasible one closest to sigma wins.

# per pattern (no clamp, s2 clamped): the smallest free entry, the other
# free entries (weight 0 marks padding) and the number of clamped entries
_SM = [2, 1]
_SO = [[0, 1], [0, 0]]
_WO = np.array([[1.0, 1.0], [1.0, 0.0]])
_NC = np.array([0.0, 1.0])
_FOLD_GRID = 16
_ROOT_ITERS = 100


def _secular(u, sm, so):
    """phi and d phi / d log t at t = exp(u) for both clamp patterns.

    The last axis of u and sm runs over the patterns; so carries one more
    axis for the other free entries.  Returns (phi, dphi, t, s_other, lam).
    """
    t = np.exp(u)
    lam = t * (sm - t)
    rt = np.sqrt(np.maximum(so * so - 4.0 * lam[..., None], 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # larger root of s^2 - sigma s + lam, free of cancellation
        s = np.where(so >= 0.0, 0.5 * (so + rt), -2.0 * lam[..., None] / (rt - so))
        s = np.where(_WO > 0.0, s, 1.0)
        phi = u + np.sum(_WO * np.log(s), axis=-1) + _NC * np.log(SV_FLOOR)
        inv = np.where(_WO > 0.0, 1.0 / (s * rt), 0.0)
        dphi = 1.0 + t * (2.0 * t - sm) * np.sum(inv, axis=-1)
    return phi, dphi, t, s, lam


def _secular_root(lo, hi, u, sm, so):
    """Root of phi in [lo, hi], given phi(lo) <= 0 <= phi(hi), by Newton in
    log t with a bisection step whenever Newton leaves the bracket."""
    for _ in range(_ROOT_ITERS):
        phi, dphi, *_ = _secular(u, sm, so)
        neg = phi < 0.0
        lo = np.where(neg, u, lo)
        hi = np.where(neg, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            un = u - phi / dphi
        newton = np.isfinite(dphi) & (un >= lo) & (un <= hi)
        un = np.where(phi == 0.0, u, np.where(newton, un, 0.5 * (lo + hi)))
        done = np.all(np.abs(un - u) <= 1e-15 * np.maximum(1.0, np.abs(u)))
        u = un
        if done:
            break
    return u


def sl3_sigma_project_batch(sig):
    """Closest singular-value triples with unit product and floored entries.

    For each row of sig (B, 3), minimizes |s - sigma|^2 subject to
    s1*s2*s3 = 1 and s_i >= SV_FLOOR by one batched secular solve: each
    clamp pattern and branch gives a bracketed scalar root, and the feasible
    candidate with the least objective wins.  Returns (s, lam, clamped): the
    singular values, the multiplier of the free-entry stationarity
    condition s_i - sigma_i + lam * prod_{k != i} s_k = 0, and the clamp
    mask, all in the input order.
    """
    sig = np.asarray(sig, dtype=float)
    B = sig.shape[0]
    f = SV_FLOOR
    order = np.argsort(-sig, axis=1, kind="stable")
    ss = np.take_along_axis(sig, order, axis=1)
    sm, so = ss[:, _SM], ss[:, _SO]

    # branch t >= sigma_m / 2; phi(t) >= (1 + #others) log t + |clamped| log f
    # there bounds the root from above, and t >= f is needed for feasibility
    lo = np.log(np.maximum(f, 0.5 * sm))
    phi_lo = _secular(lo, sm, so)[0]
    plus_ok = phi_lo <= 0.0
    hi = np.maximum(lo, -_NC * np.log(f) / (1.0 + _WO.sum(axis=1)))
    hi = np.where(plus_ok, hi, lo)
    u_plus = _secular_root(lo, hi, np.clip(np.log(np.maximum(sm, f)), lo, hi), sm, so)

    # fold t < sigma_m / 2 when phi(sigma_m / 2) >= 0: bracket the first
    # sign change of a log-grid scan over [f, sigma_m / 2]
    fold_ok = (sm > 2.0 * f) & (phi_lo >= 0.0)
    u_fold = np.full((B, 2), np.log(f))
    rows = np.flatnonzero(fold_ok.any(axis=1))
    if len(rows):
        smr, sor = sm[rows], so[rows]
        w = np.linspace(0.0, 1.0, _FOLD_GRID)[:, None, None]
        grid = np.log(f) + w * np.log(np.maximum(0.5 * smr / f, 1.0))
        phig = _secular(grid, smr, sor)[0]
        up = (phig[:-1] < 0.0) & (phig[1:] >= 0.0)
        k = np.argmax(up, axis=0)[None]
        glo = np.take_along_axis(grid, k, axis=0)[0]
        ghi = np.take_along_axis(grid, k + 1, axis=0)[0]
        fold_ok[rows] &= up.any(axis=0)
        ghi = np.where(fold_ok[rows], ghi, glo)
        u_fold[rows] = _secular_root(glo, ghi, 0.5 * (glo + ghi), smr, sor)

    # candidates (B, 5, 3): plus and fold branch of both patterns, then the
    # closed form (1/f^2, f, f) with s1 and s2 on the floor
    _, _, t, s_o, lam = _secular(np.stack([u_plus, u_fold], axis=1), sm[:, None], so[:, None])
    cand = np.empty((B, 2, 2, 3))
    cand[..., 0] = s_o[..., 0]
    cand[..., 0, 1:] = np.stack([s_o[..., 0, 1], t[..., 0]], axis=-1)
    cand[..., 1, 1:] = np.stack([t[..., 1], np.full_like(t[..., 1], f)], axis=-1)
    cand = np.concatenate([cand.reshape(B, 4, 3), np.broadcast_to([1.0 / f**2, f, f], (B, 1, 3))], axis=1)
    lam = np.concatenate([lam.reshape(B, 4), (ss[:, :1] - 1.0 / f**2) / f**2], axis=1)
    ok = np.concatenate([plus_ok, fold_ok, np.ones((B, 1), dtype=bool)], axis=1)
    obj = np.where(ok, np.sum((cand - ss[:, None]) ** 2, axis=2), np.inf)
    best = np.argmin(obj, axis=1)
    rows = np.arange(B)
    s_sorted = cand[rows, best]
    clamped_sorted = np.array([[0, 0, 0], [0, 0, 1]] * 2 + [[0, 1, 1]], dtype=bool)[best]

    s = np.empty_like(s_sorted)
    clamped = np.empty_like(clamped_sorted)
    np.put_along_axis(s, order, s_sorted, axis=1)
    np.put_along_axis(clamped, order, clamped_sorted, axis=1)
    return s, lam[rows, best], clamped


def sl3_sigma_project(sigma):
    """Volume projection of one singular-value triple, a B=1 call of
    sl3_sigma_project_batch.  Returns (s, lam, clamped, ok); every input has
    a feasible answer, so ok is always True."""
    s, lam, clamped = sl3_sigma_project_batch(np.asarray(sigma, dtype=float)[None])
    return s[0], float(lam[0]), clamped[0], True


def project_sl3(F):
    """Closest matrix to F with unit determinant, singular values floored.

    The projection keeps the singular frames of F and optimizes the singular
    values under the product constraint, so det of the result is 1 to
    roundoff even when F itself is degenerate or inverted.
    """
    return batch_projections(np.asarray(F, dtype=float)[None])[1][0]


# ---------------------------------------------------------------------------
# batched projections for the per-element local solves


def batch_projections(F):
    """Rotation and volume projections for a batch of deformation gradients.

    Returns (R, V) with shapes matching F ((B, 3, 3) each).
    """
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)):
        raise ValueError("non-finite deformation gradient in batch")
    U, sig, W = svd_rv_batch(F)
    R = U @ np.swapaxes(W, -1, -2)
    s, _, _ = sl3_sigma_project_batch(sig)
    V = (U * s[:, None, :]) @ np.swapaxes(W, -1, -2)
    return R, V


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


def rotation_jacobian(F):
    """Derivative of the rotation projection, d vec(R) / d vec(F)."""
    return projection_jacobians_batch(np.asarray(F, dtype=float)[None])[0][0]


def sl3_jacobian(F):
    """Derivative of the volume projection, d vec(V) / d vec(F)."""
    return projection_jacobians_batch(np.asarray(F, dtype=float)[None])[1][0]


def projection_jacobians_batch(F):
    """Batched (d vec R / d vec F, d vec V / d vec F), each (B, 9, 9)."""
    F = np.asarray(F, dtype=float)
    B = F.shape[0]
    U, sig, W = svd_rv_batch(F)
    s, lam, clamped = sl3_sigma_project_batch(sig)

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


# ---------------------------------------------------------------------------
# element energy and forces


def element_energy(F, gamma_s, gamma_v, volume):
    """Elastic energy of one element at deformation gradient F."""
    R = project_so3(F)
    V = project_sl3(F)
    return volume * (
        gamma_s * float(np.sum((F - R) ** 2)) + gamma_v * float(np.sum((F - V) ** 2))
    )


def element_force_and_dgamma(diff_op, F, gamma_s, gamma_v, volume):
    """Energy gradient of one element and its derivatives in the two gammas.

    diff_op is the (9, 12) operator mapping element node positions to vec(F).
    Returns (force, d_gs, d_gv), all 12-vectors on the element dofs, with
    force = gamma_s * d_gs + gamma_v * d_gv; the two patterns double as the
    columns of the equilibrium derivative with respect to the coefficients.
    """
    R = project_so3(F)
    V = project_sl3(F)
    d_gs = 2.0 * volume * (diff_op.T @ (F - R).reshape(9))
    d_gv = 2.0 * volume * (diff_op.T @ (F - V).reshape(9))
    return gamma_s * d_gs + gamma_v * d_gv, d_gs, d_gv


def batch_energies(F, gamma_s, gamma_v, volumes):
    """Per-element energies for a batch of deformation gradients."""
    R, V = batch_projections(F)
    ds = np.sum((F - R) ** 2, axis=(1, 2))
    dv = np.sum((F - V) ** 2, axis=(1, 2))
    return volumes * (gamma_s * ds + gamma_v * dv)


class MaterialField:
    """Per-element coefficient pair over a mesh, stored as two flat arrays."""

    def __init__(self, gamma_s, gamma_v):
        self.gamma_s = np.asarray(gamma_s, dtype=float)
        self.gamma_v = np.asarray(gamma_v, dtype=float)
        if self.gamma_s.shape != self.gamma_v.shape:
            raise ValueError("coefficient arrays must have matching shapes")

    @classmethod
    def uniform(cls, n_elements, gamma_s, gamma_v):
        return cls(np.full(n_elements, float(gamma_s)), np.full(n_elements, float(gamma_v)))

    @classmethod
    def from_stacked(cls, stacked):
        stacked = np.asarray(stacked, dtype=float)
        n = stacked.size // 2
        return cls(stacked[:n].copy(), stacked[n:].copy())

    def stacked(self):
        """Flat view [gamma_s; gamma_v] used by the fitting optimizer."""
        return np.concatenate([self.gamma_s, self.gamma_v])

    def copy(self):
        return MaterialField(self.gamma_s.copy(), self.gamma_v.copy())

    def __len__(self):
        return self.gamma_s.size

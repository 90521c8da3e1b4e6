"""Projective-dynamics solver for the homogenized volume model.

simulate_mesh owns the step state x and v: each step it predicts xhat,
runs the local/global rounds of pd_step from it, optionally polishes
toward the same xhat with newton_polish, and updates v once.

The global matrix of the two-projection material decouples by coordinate,
so the solver carries one scalar SPD matrix and solves three right-hand
sides at once.  GlobalSolver is the one factorization of its pinned free
block: the stepping loops solve with it, and so does the frozen-projection
fallback of newton_polish.  Larger systems can route the global solve
through a component-mode subspace (per-domain interior eigenmodes plus
exact boundary coupling, built by build_cms in free-local indices) refined
by aggregated weighted-Jacobi sweeps.  Colliders are planes and spheres,
one at a time through collider_targets, shared with the rod simulator.
Every `gammas` argument is a material, the (2, nE) array of material.py.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import material as mat

log = logging.getLogger(__name__)

PD_ITERS_DEFAULT = 30       # local/global rounds per step
JACOBI_OMEGA = 0.75         # weighted-Jacobi relaxation
CONTACT_STIFFNESS = 1e4     # collider weight as a multiple of the matrix diagonal


# ---------------------------------------------------------------------------
# assembly


def assemble_global(mesh, gammas, dt):
    """Scalar global PD matrix K = M/dt^2 + sum_e 2 V_e (g_s + g_v) G G^T.

    The same matrix acts on each coordinate; expanding to all DOFs would
    just be the Kronecker product with a 3x3 identity.
    """
    gamma_s, gamma_v = gammas
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if np.any(gamma_s < 0.0) or np.any(gamma_v < 0.0):
        raise ValueError("negative material coefficient")
    if mesh.node_mass is None:
        raise ValueError("mesh node masses not lumped yet")
    w = 2.0 * mesh.volume * (gamma_s + gamma_v)
    K = mesh.laplacian(w) + sp.diags(mesh.node_mass / dt**2)
    return K.tocsc()


def _coefficients(mesh, gammas):
    """Per-element 2 V_e gamma_s and 2 V_e gamma_v, shaped to scale (nE, 3, 3)."""
    gamma_s, gamma_v = gammas
    w = 2.0 * mesh.volume[:, None, None]
    return w * gamma_s[:, None, None], w * gamma_v[:, None, None]


def elastic_rhs(mesh, gammas, x, coef=None):
    """Local-step right-hand side sum_e 2 V_e (g_s R + g_v V) G^T, (nV, 3);
    coef is _coefficients(mesh, gammas) where the caller already holds it."""
    R, V = mat.batch_projections(mesh.deformation_gradients(x))
    cs, cv = _coefficients(mesh, gammas) if coef is None else coef
    return mesh.scatter(cs * R + cv * V)


def elastic_energy(mesh, gammas, x):
    gamma_s, gamma_v = gammas
    F = mesh.deformation_gradients(x)
    R, V = mat.batch_projections(F)
    ds = np.sum((F - R) ** 2, axis=(1, 2))
    dv = np.sum((F - V) ** 2, axis=(1, 2))
    return float(np.sum(mesh.volume * (gamma_s * ds + gamma_v * dv)))


def elastic_gradient(mesh, gammas, x):
    """Gradient of the elastic energy wrt node positions, (nV, 3).

    The projections are minimizers of their matrix distances, so their
    dependence on x drops out of the first derivative.
    """
    F = mesh.deformation_gradients(x)
    R, V = mat.batch_projections(F)
    cs, cv = _coefficients(mesh, gammas)
    return mesh.scatter(cs * (F - R) + cv * (F - V))


def exact_elastic_hessian(mesh, gammas, x, dofs=None):
    """Second derivative of the elastic energy, the dofs x dofs block as
    CSC, over all DOFs for dofs None (3nV, 3nV).

    Unlike the frozen-projection form used by the global PD matrix, this
    carries the projection sensitivities, so it is the true Jacobian of the
    elastic gradient; symmetric, not necessarily definite.  Each element's
    (12, 12) block De^T M9 De, with De its map from node-major x, y, z DOFs
    to row-major vec(F) and M9 its d2E/dF2, is scatter-added into the CSC
    pattern the mesh keeps for the distinct DOFs `dofs`, so a pinned
    block never passes through the whole matrix.
    """
    F = mesh.deformation_gradients(x)
    LR, LV = mat.projection_jacobians_batch(F)
    I9 = np.eye(9)
    cs, cv = _coefficients(mesh, gammas)
    M9 = cs * (I9 - LR) + cv * (I9 - LV)
    # De[3i + j, 3n + i] = G[n, j]: F[i, j] = sum_n x[3n + i] G[n, j]
    nE = mesh.n_elements
    De = np.zeros((nE, 3, 3, 4, 3))
    for i in range(3):
        De[:, i, :, :, i] = np.swapaxes(mesh.shape_grad, 1, 2)
    De = De.reshape(nE, 9, 12)
    He = np.swapaxes(De, 1, 2) @ (M9 @ De)
    slot, keep, indices, indptr = mesh.block_pattern(dofs)
    data = np.bincount(slot, weights=He.reshape(-1)[keep], minlength=len(indices))
    n = len(indptr) - 1
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


# ---------------------------------------------------------------------------
# colliders


def collider_targets(x, collider):
    """Projection targets for the nodes inside one collider.

    Returns (indices, targets): the nodes currently inside the collider and
    their closest surface points.  Nodes outside are left out.
    """
    x = np.asarray(x, dtype=float)
    kind, *args = collider
    if kind == "plane":
        p0 = np.asarray(args[0], dtype=float)
        n = np.asarray(args[1], dtype=float)
        n = n / np.linalg.norm(n)
        depth = (x - p0) @ n
        pen = np.flatnonzero(depth < 0.0)
        return pen, x[pen] - depth[pen, None] * n
    if kind == "sphere":
        c = np.asarray(args[0], dtype=float)
        r = float(args[1])
        rel = x - c
        d = np.linalg.norm(rel, axis=1)
        pen = np.flatnonzero(d < r)
        safe = np.maximum(d[pen], 1e-12)
        return pen, c + rel[pen] * (r / safe)[:, None]
    raise ValueError(f"unknown collider kind {kind!r}")


def surface_targets(points, collider):
    """Project points out of the collider where they penetrate it; identity
    otherwise."""
    out = np.asarray(points, dtype=float).copy()
    idx, tgt = collider_targets(out, collider)
    out[idx] = tgt
    return out


# ---------------------------------------------------------------------------
# global solve and stepping


class GlobalSolver:
    """Solves K X = B for the scalar global matrix with the pinned nodes
    eliminated, directly or via a component-mode subspace with
    aggregated-Jacobi refinement.

    free is the sorted complement of pins.  mode="direct" factorizes the
    free-free block once; mode="cms" hands it to build_cms with `mesh`,
    which works in free-local indices, and refines each subspace solution
    with `refine_sweeps` a_jacobi_refine sweeps of `aggregation` updates at
    JACOBI_OMEGA (0 keeps the subspace solution).
    """

    def __init__(self, K, pins, mode="direct", mesh=None, n_domains=2,
                 modes_per_domain=20, refine_sweeps=0, aggregation=2):
        self.free = free = np.setdiff1d(np.arange(K.shape[0]), pins)
        self.pins = pins
        Kf = K[free]
        self.Kff = Kf[:, free].tocsc()
        self.Kfp = Kf[:, pins].tocsc() if len(pins) else None
        self._pin_key = self._pin_load = None
        self.mode = mode
        self.refine_sweeps = refine_sweeps
        self.aggregation = aggregation
        if mode == "direct":
            self._solve = spla.splu(self.Kff).solve
            self.cms = None
        elif mode == "cms":
            self.cms = build_cms(self.Kff, mesh, free, n_domains, modes_per_domain)
        else:
            raise ValueError(f"unknown solver mode {mode!r}")

    def solve(self, B, pin_vals):
        """Solve with pinned values eliminated; B is (nV, k), and all k
        columns go through one factorization or subspace call."""
        Bf = B[self.free]
        if len(self.pins):
            # kept for the last pin values: a step solves every round with them
            key = (pin_vals.dtype, pin_vals.shape, pin_vals.tobytes())
            if key != self._pin_key:
                self._pin_key, self._pin_load = key, self.Kfp @ pin_vals
            Bf -= self._pin_load
        out = np.empty_like(B)
        out[self.pins] = pin_vals
        if self.mode == "direct":
            out[self.free] = self._solve(Bf)
            return out
        X = self.cms.solve(Bf)
        if self.refine_sweeps > 0:
            X, _ = a_jacobi_refine(self.Kff, Bf, X, sweeps=self.refine_sweeps,
                                   aggregation=self.aggregation)
        out[self.free] = X
        return out


def pd_step(mesh, gammas, xhat, dt, pins, pin_vals, iterations=PD_ITERS_DEFAULT,
            solver=None, colliders=()):
    """Local/global rounds of one implicit-Euler step; returns the positions.

    The rounds start at the prediction xhat with the pins at pin_vals (nP, 3)
    and minimize the step objective (M/2dt^2)|x - xhat|^2 + E(x).  solver is
    a GlobalSolver for the pinned global matrix; None builds a direct one.
    Colliders act as quadratic pull-to-surface constraints on nodes that
    penetrate at the prediction, folded into the global matrix for the
    duration of the step, so with any such node the step assembles and
    factorizes its own matrix.  Aborts on non-finite positions with the
    iteration index.
    """
    n = mesh.n_nodes
    # one row per (node, collider) pair that penetrates at the prediction,
    # as in yarn_model.simulate_yarn: a node inside two colliders gets both
    # weights on the diagonal and both surface points in the rhs
    coll = [(collider_targets(xhat, c)[0], c) for c in colliders]
    coll = [(idx, c) for idx, c in coll if len(idx)]
    if solver is None or coll:
        K = assemble_global(mesh, gammas, dt)
        if coll:
            # stiff relative to the local diagonal so resting contact sits
            # within a small fraction of a cell of the surface
            cw = CONTACT_STIFFNESS * K.diagonal()
            cidx = np.concatenate([idx for idx, _ in coll])
            K = (K + sp.csr_matrix((cw[cidx], (cidx, cidx)), shape=(n, n))).tocsc()
        solver = GlobalSolver(K, pins)

    x = xhat.copy()
    x[pins] = pin_vals
    inertia = (mesh.node_mass[:, None] / dt**2) * xhat
    coef = _coefficients(mesh, gammas)
    for it in range(iterations):
        b = inertia + elastic_rhs(mesh, gammas, x, coef)
        for idx, c in coll:
            # constrained nodes are pulled to their surface projection
            # (or held where they are once they have separated)
            b[idx] += cw[idx, None] * surface_targets(x[idx], c)
        x = solver.solve(b, pin_vals)
        if not np.isfinite(x).all():
            raise RuntimeError(f"projective step produced non-finite positions at iteration {it}")
    return x


def pd_equilibrium(mesh, gammas, inertia_target, x0, pins, pin_vals, dt,
                   iterations=PD_ITERS_DEFAULT):
    """Proximal local/global rounds on the quasi-static objective
    E(x) + (1/dt^2) a^T M x; monotone and safe far from the solution.

    Each round solves K x = (M/dt^2)(x_cur - a) + elastic rhs, i.e. the
    frozen-projection objective plus a mass-metric proximal anchor at the
    current iterate.  pin_vals is (nP, 3).
    """
    solver = GlobalSolver(assemble_global(mesh, gammas, dt), pins)
    x = np.asarray(x0, dtype=float).reshape(-1, 3).copy()
    x[pins] = pin_vals
    m_dt2 = mesh.node_mass[:, None] / dt**2
    for it in range(iterations):
        b = m_dt2 * (x - inertia_target) + elastic_rhs(mesh, gammas, x)
        x = solver.solve(b, pin_vals)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"quasi-static projection diverged at iteration {it}")
    return x


# ---------------------------------------------------------------------------
# Newton polish


def backtrack(point, value, bound, tries):
    """Halving line search: the first of point(1), point(1/2), ... whose
    value is below bound, trying at most `tries` points.  newton_polish and
    the fit's safeguarded_update both search with it.

    Returns (p, value(p), t), or (None, None, 0.0) when none is below.
    """
    t = 1.0
    for _ in range(tries):
        p = point(t)
        v = value(p)
        if v < bound:
            return p, v, t
        t *= 0.5
    return None, None, 0.0


def newton_polish(mesh, gammas, x0, *, dt, pins=(), pin_vals=None,
                  inertia_target=None, xhat=None, tol=1e-5, max_iters=20,
                  min_iters=0):
    """Drive the step residual below tol with Newton iterations.

    Two residual flavors share the machinery: the dynamic step residual
    (M/dt^2)(x - xhat) + dE, or the quasi-static fitting residual
    (M/dt^2) a + dE with a constant inertia target.  Each step solves with
    the true residual Jacobian (projection sensitivities included), which
    converges quadratically near the solution, and a halving line search
    keeps the associated objective monotone.  That Jacobian need not be
    definite, so whenever its step fails the iteration falls back to the
    frozen-projection elastic Hessian plus M/dt^2, which is positive
    definite and so always gives a descent direction.  That matrix is the
    global PD matrix, so the fallback is a direct GlobalSolver with zero
    pin values, built on its first use, not before.

    At least min_iters iterations run even when x0 already meets tol: a
    start that is converged for neighbouring coefficients is within tol of
    its own equilibrium, yet a step still carries it there.  An iteration
    whose two searches both fail leaves x where it is, so the polish stops.

    Returns (x, converged flag, iterations used, free-node residual
    infinity norm at x).
    """
    if (inertia_target is None) == (xhat is None):
        raise ValueError("give exactly one of inertia_target or xhat")
    n = mesh.n_nodes
    pins = np.asarray(pins, dtype=int)
    free = np.setdiff1d(np.arange(n), pins)
    x = np.asarray(x0, dtype=float).reshape(-1, 3).copy()
    if len(pins):
        x[pins] = pin_vals
    m_dt2 = mesh.node_mass[:, None] / dt**2

    def residual(xc):
        anchor = xc - xhat if xhat is not None else inertia_target
        return elastic_gradient(mesh, gammas, xc) + m_dt2 * anchor

    def objective(xc):
        if xhat is not None:
            d = xc - xhat
            return elastic_energy(mesh, gammas, xc) + 0.5 * float(np.sum(m_dt2 * d * d))
        return elastic_energy(mesh, gammas, xc) + float(np.sum(m_dt2 * inertia_target * xc))

    def gmax(gv):
        return float(np.abs(gv[free]).max()) if len(free) else 0.0

    g = residual(x)
    if min_iters <= 0 and gmax(g) < tol:
        return x, True, 0, gmax(g)

    fdofs = (3 * free[:, None] + np.arange(3)[None, :]).reshape(-1)
    mass_diag = np.repeat(mesh.node_mass[free], 3) / dt**2
    frozen = []     # the fallback's solver, built on its first use

    def gn_step(gc):
        if not frozen:
            frozen.append(GlobalSolver(assemble_global(mesh, gammas, dt), pins))
        return frozen[0].solve(-gc, np.zeros((len(pins), 3)))

    def exact_step(xc, gc):
        J = exact_elastic_hessian(mesh, gammas, xc, fdofs)
        if xhat is not None:
            J = J + sp.diags(mass_diag)
        try:
            d = spla.spsolve(J, -gc.reshape(-1)[fdofs])
        except RuntimeError:
            return None
        if not np.all(np.isfinite(d)):
            return None
        step = np.zeros_like(x)
        step.reshape(-1)[fdofs] = d
        return step

    def search(step):
        # the objective may rise only by rounding
        def point(t):
            xn = x + t * step
            if len(pins):
                xn[pins] = pin_vals
            return xn
        bound = obj + 1e-15 * max(1.0, abs(obj))
        xn, on, _ = backtrack(point, objective, bound, 12)
        return xn, on

    obj = objective(x)
    for it in range(1, max_iters + 1):
        step = exact_step(x, g)
        xn, on = (None, obj) if step is None else search(step)
        if xn is None:
            xn, on = search(gn_step(g))
        if xn is None:
            # x is unchanged, so every later iteration would repeat this one
            ok = gmax(g) < tol
            if not ok:
                log.warning("newton polish stalled at residual %.3e", gmax(g))
            return x, ok, it, gmax(g)
        x, obj = xn, on
        g = residual(x)
        if it >= min_iters and gmax(g) < tol:
            return x, True, it, gmax(g)
    ok = gmax(g) < tol
    if not ok:
        log.warning("newton polish hit iteration cap at residual %.3e", gmax(g))
    return x, ok, max_iters, gmax(g)


# ---------------------------------------------------------------------------
# component-mode subspace


def partition_elements(mesh, n_domains):
    """Element domain labels: geometric slabs along the longest bounding-box
    axis."""
    centers = mesh.nodes[mesh.tets].mean(axis=1)
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    axis = int(np.argmax(span))
    c = centers[:, axis]
    edges = np.quantile(c, np.linspace(0.0, 1.0, n_domains + 1)[1:-1])
    return np.searchsorted(edges, c)


def classify_nodes(mesh, labels, free):
    """Interior node sets per domain plus the merged boundary set, as
    positions in the sorted node index array `free`.

    A node is interior to a domain when every incident element carries that
    label; nodes shared between domains form the single merged boundary.
    Pinned nodes are left out of `free`, so the positions index the
    free-free block that the subspace reduces.
    """
    lo = np.full(mesh.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(mesh.n_nodes, -1, dtype=np.int64)
    np.minimum.at(lo, mesh.tets, labels[:, None])
    np.maximum.at(hi, mesh.tets, labels[:, None])
    lo, hi = lo[free], hi[free]
    # a node that some element touches is interior exactly when lo == hi
    interior = [np.flatnonzero((lo == d) & (hi == d)) for d in range(int(labels.max()) + 1)]
    return interior, np.flatnonzero((hi >= 0) & (lo != hi))


def _column_triplets(sel, M, c0):
    """(row, col, value) of the columns of M placed at rows sel and columns
    c0, c0 + 1, ..., column by column."""
    m = M.shape[1]
    return np.tile(sel, m), np.repeat(np.arange(c0, c0 + m), len(sel)), M.T.ravel()


def lowest_modes(A, k, sigma, dense_up_to):
    """Eigenvectors (n, k) of the k lowest eigenvalues of the sparse
    symmetric A, ascending.  Up to dense_up_to rows, or for k >= n - 1, a
    dense eigh; above, ARPACK shift-invert about sigma from a seeded start
    vector (the same basis on every call), and the dense eigh if it fails."""
    n = A.shape[0]
    if n > dense_up_to and k < n - 1:
        try:
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
            return spla.eigsh(A, k=k, sigma=sigma, mode="normal", v0=v0)[1]
        except Exception as exc:                      # eigensolver failure
            log.warning("sparse eigensolver failed (%s); falling back to dense", exc)
    return np.linalg.eigh(A.toarray())[1][:, :k]


class CmsSubspace:
    """Craig-Bampton style reduction of a sparse SPD matrix.

    Per domain: interior eigenmodes of K_ii plus the static boundary
    response Psi = -K_ii^{-1} K_ib; boundary DOFs are kept verbatim (one
    merged copy across domains).  With complete interior bases the reduced
    solve is exact.
    """

    def __init__(self, K, interior_sets, boundary, modes_per_domain=20):
        nb = len(boundary)
        blocks = []
        for sel in interior_sets:
            if len(sel) == 0:
                continue
            Kii = K[sel][:, sel].tocsc()
            Phi = lowest_modes(Kii, min(modes_per_domain, len(sel)), 0.0, 400)
            Psi = (-spla.splu(Kii).solve(np.asarray(K[sel][:, boundary].todense()))
                   if nb else np.empty((len(sel), 0)))
            blocks.append((sel, Phi, Psi))

        # basis T: [interior eigenmode columns ... , boundary columns]; Psi's
        # explicit zeros stay stored, as T's pattern sets K_red's and so the
        # SuperLU ordering of the reduced solve
        parts, c0 = [], 0
        for sel, Phi, _ in blocks:
            parts.append(_column_triplets(sel, Phi, c0))
            c0 += Phi.shape[1]
        parts.append((boundary, np.arange(c0, c0 + nb), np.ones(nb)))
        parts += [_column_triplets(sel, Psi, c0) for sel, _, Psi in blocks]
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
        self.T = sp.csr_matrix((vals, (rows, cols)), shape=(K.shape[0], c0 + nb))
        self.K_red = (self.T.T @ K @ self.T).tocsc()
        # symmetrize away assembly roundoff before factorizing
        self.K_red = 0.5 * (self.K_red + self.K_red.T)
        self._solve = spla.splu(self.K_red).solve

    def solve(self, b):
        return self.T @ self._solve(self.T.T @ b)


def build_cms(K, mesh, free, n_domains=2, modes_per_domain=20):
    """Reduce K, the free-free block of the mesh's global matrix for the
    sorted free nodes `free`, onto the component-mode basis of n_domains
    slabs of `mesh`; all indices are free-local."""
    labels = partition_elements(mesh, n_domains)
    return CmsSubspace(K, *classify_nodes(mesh, labels, free), modes_per_domain)


# ---------------------------------------------------------------------------
# aggregated Jacobi


def _column_norms(r):
    """2-norm of each column of r (..., n, k), each reduced over one
    contiguous row so a column gets the same bits whatever k is, and a
    stack of iterates the same bits as each alone."""
    return np.linalg.norm(np.ascontiguousarray(np.swapaxes(r, -1, -2)), axis=-1)


def a_jacobi_refine(K, b, x0, sweeps=30, aggregation=2, omega=JACOBI_OMEGA):
    """Aggregated weighted-Jacobi refinement of K x = b.

    One aggregated sweep applies `aggregation` plain weighted-Jacobi
    updates fused into a single accumulation (algebraically identical to
    running them one by one), so `sweeps` sweeps cost sweeps x aggregation
    sparse products.

    b and x0 are (n,) or (n, k); the k columns are refined together, each
    as if alone.  Returns (x, info) where info carries the residual history
    and a `diverged` flag, both per column for 2-D input; a column that
    diverged or ended above its best residual returns the best iterate seen.

    The sweep loop only updates: every iterate and residual is kept, and
    the bookkeeping is settled once afterwards.  A column diverges at the
    first sweep whose residual norm exceeds 10x its best so far; its
    history ends there and later sweeps are ignored, so the sweep and the
    sparse product, which never mix columns, give each column the bits it
    would get alone.  The kept iterates and residuals take
    2 (sweeps + 1) n k floats: about 20 MB at 13k unknowns with three
    columns and 30 sweeps.
    """
    if aggregation not in (2, 3):
        raise ValueError("aggregation must be 2 or 3")
    d = K.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("matrix diagonal must be positive")
    invd = (1.0 / d)[:, None]
    b = np.asarray(b, dtype=float)
    vector = b.ndim == 1
    b = b.reshape(len(d), -1)
    X = np.empty((sweeps + 1,) + b.shape)
    R = np.empty_like(X)
    X[0] = np.asarray(x0, dtype=float).reshape(b.shape)
    R[0] = b - K @ X[0]

    with np.errstate(over="ignore", invalid="ignore"):     # diverged columns run on
        for k in range(sweeps):
            # fused aggregation: e accumulates the next `aggregation` updates
            e = np.zeros_like(b)
            s = R[k + 1]
            s[...] = R[k]
            for _ in range(aggregation):
                cs = omega * (invd * s)
                e += cs
                s -= K @ cs
            np.add(X[k], e, out=X[k + 1])
        rn = _column_norms(R)

    # a NaN residual stays NaN in every later sweep, so the NaN it spreads
    # through the running minimum never changes a pick
    best = np.minimum.accumulate(rn, axis=0)
    over = rn > 10.0 * best
    diverged = over.any(axis=0)
    end = np.where(diverged, over.argmax(axis=0), sweeps)
    cols = np.arange(b.shape[1])
    # the best iterate is the first to reach the final best residual
    pick = np.where(diverged | (rn[end, cols] > best[end, cols]),
                    np.argmax(best == best[end, cols], axis=0), end)
    x = X[pick, :, cols].T
    info = {"diverged": diverged,
            "residuals": [rn[:e + 1, c].tolist() for c, e in enumerate(end)]}
    if vector:
        return x[:, 0], {"diverged": bool(diverged[0]), "residuals": info["residuals"][0]}
    return x, info


# ---------------------------------------------------------------------------
# high-level forward simulation


def simulate_mesh(mesh, gammas, steps, dt, forces=None, pins=(), pin_targets=None,
                  colliders=(), iterations=PD_ITERS_DEFAULT, solver=None, damping=1.0,
                  polish_tol=None, on_step=None):
    """Run a forward simulation from rest and return the frames (steps, nV, 3).

    Each step predicts xhat = x + dt v + dt^2 M^-1 f, runs pd_step from it,
    polishes toward the same xhat when polish_tol is set, and updates v once
    from the final positions.  forces is one constant (nV, 3) load.
    pin_targets may be constant (nP, 3) or a per-step path (steps, nP, 3);
    None holds the pins at rest.  solver is a prebuilt GlobalSolver for the
    pinned global matrix; None builds a direct one.  With colliders a step
    with a penetrating node assembles and factorizes its own matrix, the
    others use the solver, and polish_tol must be None.  on_step(i, x,
    polish) is called after each step with its frame and, for a polished
    step, (converged, iterations), else None.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if colliders and polish_tol is not None:
        raise ValueError("polish_tol cannot be combined with colliders")
    pins = np.asarray(pins, dtype=int)
    pin_path = np.broadcast_to(
        mesh.nodes[pins] if pin_targets is None else np.asarray(pin_targets, dtype=float),
        (steps, len(pins), 3))
    if solver is None:
        solver = GlobalSolver(assemble_global(mesh, gammas, dt), pins)

    inv_m = np.zeros(mesh.n_nodes)
    pos = mesh.node_mass > 0.0
    inv_m[pos] = 1.0 / mesh.node_mass[pos]
    f = np.zeros_like(mesh.nodes) if forces is None else np.asarray(forces, dtype=float)
    load_shift = dt**2 * inv_m[:, None] * f
    x, v = mesh.nodes.copy(), np.zeros_like(mesh.nodes)
    frames = np.empty((steps, mesh.n_nodes, 3))
    for i in range(steps):
        xhat = x + dt * v + load_shift
        xn = pd_step(mesh, gammas, xhat, dt, pins, pin_path[i], iterations=iterations,
                     solver=solver, colliders=colliders)
        polish = None
        if polish_tol is not None:
            # the exact Jacobian converges quadratically near the solution
            xn, ok, iters, _ = newton_polish(mesh, gammas, xn, dt=dt, pins=pins,
                                             pin_vals=pin_path[i], xhat=xhat, tol=polish_tol)
            polish = (ok, iters)
        v = damping * (xn - x) / dt
        x = xn
        frames[i] = x
        if on_step is not None:
            on_step(i, x, polish)
    return frames

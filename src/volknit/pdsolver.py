"""Projective-dynamics solver for the homogenized volume model.

The global matrix of the two-projection material decouples by coordinate,
so the solver carries one scalar SPD matrix and solves three right-hand
sides at once.  Larger systems can route the global solve through a
component-mode subspace (per-domain interior eigenmodes plus exact
boundary coupling) refined by aggregated weighted-Jacobi sweeps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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


def scatter_scalar(mesh, per_element):
    """Assemble sum_e c_e G_e G_e^T into an (nV, nV) sparse matrix."""
    G = mesh.shape_grad
    S4 = per_element[:, None, None] * np.einsum("eni,emi->enm", G, G)
    rows = np.repeat(mesh.tets, 4, axis=1).reshape(-1)
    cols = np.tile(mesh.tets, (1, 4)).reshape(-1)
    return sp.csr_matrix((S4.reshape(-1), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def assemble_global(mesh, gammas, dt):
    """Scalar global PD matrix K = M/dt^2 + sum_e 2 V_e (g_s + g_v) G G^T.

    The same matrix acts on each coordinate; expanding to all DOFs would
    just be the Kronecker product with a 3x3 identity.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if np.any(gammas.gamma_s < 0.0) or np.any(gammas.gamma_v < 0.0):
        raise ValueError("negative material coefficient")
    if mesh.node_mass is None:
        raise ValueError("mesh node masses not lumped yet")
    w = 2.0 * mesh.volume * (gammas.gamma_s + gammas.gamma_v)
    K = scatter_scalar(mesh, w) + sp.diags(mesh.node_mass / dt**2)
    return K.tocsc()


def elastic_rhs(mesh, gammas, x):
    """Local-step right-hand side sum_e 2 V_e G^T (g_s R + g_v V), (nV, 3).

    Also returns the element projections so callers can reuse them for
    energies.
    """
    F = mesh.deformation_gradients(np.asarray(x, dtype=float).reshape(-1))
    R, V = mat.batch_projections(F)
    P = gammas.gamma_s[:, None, None] * R + gammas.gamma_v[:, None, None] * V
    GT = 2.0 * mesh.volume[:, None, None] * np.einsum("enj,eij->eni", mesh.shape_grad, P)
    rhs = np.zeros((mesh.n_nodes, 3))
    np.add.at(rhs, mesh.tets.reshape(-1), GT.reshape(-1, 3))
    return rhs, F, R, V


def elastic_energy(mesh, gammas, x, FRV=None):
    if FRV is None:
        F = mesh.deformation_gradients(np.asarray(x, dtype=float).reshape(-1))
        R, V = mat.batch_projections(F)
    else:
        F, R, V = FRV
    ds = np.sum((F - R) ** 2, axis=(1, 2))
    dv = np.sum((F - V) ** 2, axis=(1, 2))
    return float(np.sum(mesh.volume * (gammas.gamma_s * ds + gammas.gamma_v * dv)))


def elastic_gradient(mesh, gammas, x):
    """Gradient of the elastic energy wrt node positions, (nV, 3).

    The projections are minimizers of their matrix distances, so their
    dependence on x drops out of the first derivative.
    """
    F = mesh.deformation_gradients(np.asarray(x, dtype=float).reshape(-1))
    R, V = mat.batch_projections(F)
    P = gammas.gamma_s[:, None, None] * (F - R) + gammas.gamma_v[:, None, None] * (F - V)
    GT = 2.0 * mesh.volume[:, None, None] * np.einsum("enj,eij->eni", mesh.shape_grad, P)
    out = np.zeros((mesh.n_nodes, 3))
    np.add.at(out, mesh.tets.reshape(-1), GT.reshape(-1, 3))
    return out


def exact_elastic_hessian(mesh, gammas, x):
    """Second derivative of the elastic energy over all DOFs, (3nV, 3nV).

    Unlike the frozen-projection form used by the global PD matrix, this
    carries the projection sensitivities, so it is the true Jacobian of the
    elastic gradient; symmetric, not necessarily definite.
    """
    F = mesh.deformation_gradients(np.asarray(x, dtype=float).reshape(-1))
    LR, LV = mat.projection_jacobians_batch(F)
    I9 = np.eye(9)
    M9 = (gammas.gamma_s[:, None, None] * (I9 - LR)
          + gammas.gamma_v[:, None, None] * (I9 - LV))
    He = 2.0 * mesh.volume[:, None, None] * np.einsum(
        "eia,eij,ejb->eab", mesh.diff_op, M9, mesh.diff_op)
    dofs = mesh.element_dofs()
    rows = np.repeat(dofs, 12, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, 12)).reshape(-1)
    n = 3 * mesh.n_nodes
    return sp.csr_matrix((He.reshape(-1), (rows, cols)), shape=(n, n))


# ---------------------------------------------------------------------------
# colliders


def collider_targets(x, colliders):
    """Projection targets for penetrating nodes.

    Returns (indices, targets): nodes currently inside a collider and their
    closest surface points.  Non-penetrating nodes are untouched.
    """
    x = np.asarray(x, dtype=float)
    idx, tgt = [], []
    for kind, *args in colliders:
        if kind == "plane":
            p0 = np.asarray(args[0], dtype=float)
            n = np.asarray(args[1], dtype=float)
            n = n / np.linalg.norm(n)
            depth = (x - p0) @ n
            pen = np.flatnonzero(depth < 0.0)
            idx.append(pen)
            tgt.append(x[pen] - depth[pen, None] * n)
        elif kind == "sphere":
            c = np.asarray(args[0], dtype=float)
            r = float(args[1])
            rel = x - c
            d = np.linalg.norm(rel, axis=1)
            pen = np.flatnonzero(d < r)
            safe = np.maximum(d[pen], 1e-12)
            idx.append(pen)
            tgt.append(c + rel[pen] * (r / safe)[:, None])
        else:
            raise ValueError(f"unknown collider kind {kind!r}")
    if not idx:
        return np.empty(0, dtype=int), np.empty((0, 3))
    return np.concatenate(idx), np.concatenate(tgt) if tgt else np.empty((0, 3))


def surface_targets(points, colliders):
    """Project points out of any collider they penetrate; identity otherwise."""
    out = np.asarray(points, dtype=float).copy()
    idx, tgt = collider_targets(out, colliders)
    out[idx] = tgt
    return out


def collide_project(state, colliders=None):
    """Snap penetrating nodes of a state to the collider surfaces."""
    colliders = state.colliders if colliders is None else colliders
    idx, tgt = collider_targets(state.x, colliders)
    if len(idx):
        state.x = state.x.copy()
        state.x[idx] = tgt
    return state


# ---------------------------------------------------------------------------
# simulation state and stepping


@dataclass
class SimState:
    """Forward-simulation state; pinned nodes track their targets exactly."""

    x: np.ndarray                 # (nV, 3)
    v: np.ndarray                 # (nV, 3)
    dt: float
    pins: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    pin_targets: np.ndarray = None
    colliders: tuple = ()

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(-1, 3).copy()
        self.v = np.asarray(self.v, dtype=float).reshape(-1, 3).copy()
        self.pins = np.asarray(self.pins, dtype=int)
        if self.pin_targets is None and len(self.pins):
            self.pin_targets = self.x[self.pins].copy()
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


class GlobalSolver:
    """Solves K X = B for the scalar global matrix, directly or via a
    component-mode subspace with aggregated-Jacobi refinement."""

    def __init__(self, K, free, pins, mode="direct", cms=None, refine_sweeps=0,
                 aggregation=2, omega=JACOBI_OMEGA, chebyshev=False):
        self.K = K
        self.free = free
        self.pins = pins
        self.Kff = K[free][:, free].tocsc()
        self.Kfp = K[free][:, pins].tocsc() if len(pins) else None
        self.mode = mode
        self.refine_sweeps = refine_sweeps
        self.aggregation = aggregation
        self.omega = omega
        self.chebyshev = chebyshev
        if mode == "direct":
            self._solve = spla.factorized(self.Kff)
            self.cms = None
        elif mode == "cms":
            self.cms = cms
        else:
            raise ValueError(f"unknown solver mode {mode!r}")

    def solve(self, B, pin_vals):
        """Solve with pinned values eliminated; B is (nV, k)."""
        Bf = B[self.free]
        if self.Kfp is not None and len(self.pins):
            Bf = Bf - self.Kfp @ pin_vals
        out = np.empty_like(B)
        if len(self.pins):
            out[self.pins] = pin_vals
        if self.mode == "direct":
            for k in range(Bf.shape[1]):
                out[self.free, k] = self._solve(Bf[:, k])
            return out
        for k in range(Bf.shape[1]):
            xk = self.cms.solve(Bf[:, k])
            if self.refine_sweeps > 0:
                xk, _ = a_jacobi_refine(
                    self.Kff, Bf[:, k], xk, sweeps=self.refine_sweeps,
                    aggregation=self.aggregation, omega=self.omega,
                    chebyshev=self.chebyshev,
                )
            out[self.free, k] = xk
        return out


def _predicted(state, forces, mesh):
    inv_m = np.zeros(mesh.n_nodes)
    pos = mesh.node_mass > 0.0
    inv_m[pos] = 1.0 / mesh.node_mass[pos]
    f = np.zeros_like(state.x) if forces is None else np.asarray(forces, dtype=float)
    return state.x + state.dt * state.v + state.dt**2 * inv_m[:, None] * f


def pd_step(state, mesh, gammas, iterations=PD_ITERS_DEFAULT, forces=None,
            solver=None, contact_stiffness=CONTACT_STIFFNESS, damping=1.0):
    """One implicit-Euler step by local/global rounds; returns the state.

    Colliders act as quadratic pull-to-surface constraints on nodes that
    penetrate at the prediction, folded into the global matrix for the
    duration of the step.  Aborts on non-finite positions with the
    iteration index.
    """
    n = mesh.n_nodes
    free = np.setdiff1d(np.arange(n), state.pins)
    xhat = _predicted(state, forces, mesh)
    dt2 = state.dt**2

    cidx, _ = collider_targets(xhat, state.colliders)
    cw = None
    base_solver = solver
    if base_solver is None or len(cidx):
        K = assemble_global(mesh, gammas, state.dt)
        if len(cidx):
            # stiff relative to the local diagonal so resting contact sits
            # within a small fraction of a cell of the surface
            cw = contact_stiffness * K.diagonal()[cidx]
            K = (K + sp.csr_matrix((cw, (cidx, cidx)), shape=(n, n))).tocsc()
        base_solver = GlobalSolver(K, free, state.pins)

    x_start = state.x.copy()
    x = xhat.copy()
    if len(state.pins):
        pin_vals = state.pin_targets
        x[state.pins] = pin_vals
    else:
        pin_vals = np.empty((0, 3))

    for it in range(iterations):
        rhs, F, R, V = elastic_rhs(mesh, gammas, x)
        b = (mesh.node_mass[:, None] / dt2) * xhat + rhs
        if len(cidx):
            # constrained nodes are pulled to their surface projection
            # (or held where they are once they have separated)
            b[cidx] += cw[:, None] * surface_targets(x[cidx], state.colliders)
        x = base_solver.solve(b, pin_vals)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"projective step produced non-finite positions at iteration {it}")

    state.v = damping * (x - x_start) / state.dt
    state.x = x
    return state


def pd_objective(state_or_x, mesh, gammas, xhat, dt):
    """Inertia plus elastic potential minimized by one implicit step."""
    x = state_or_x.x if isinstance(state_or_x, SimState) else np.asarray(state_or_x)
    d = x - xhat
    inertia = 0.5 / dt**2 * float(np.sum(mesh.node_mass[:, None] * d * d))
    return inertia + elastic_energy(mesh, gammas, x)


def pd_equilibrium(mesh, gammas, inertia_target, x0, pins, pin_vals, dt,
                   iterations=PD_ITERS_DEFAULT, solver=None):
    """Proximal local/global rounds on the quasi-static objective
    E(x) + (1/dt^2) a^T M x; monotone and safe far from the solution.

    Each round solves K x = (M/dt^2)(x_cur - a) + elastic rhs, i.e. the
    frozen-projection objective plus a mass-metric proximal anchor at the
    current iterate.
    """
    n = mesh.n_nodes
    free = np.setdiff1d(np.arange(n), pins)
    if solver is None:
        solver = GlobalSolver(assemble_global(mesh, gammas, dt), free, pins)
    x = np.asarray(x0, dtype=float).reshape(-1, 3).copy()
    if len(pins):
        x[pins] = pin_vals
    m_dt2 = mesh.node_mass[:, None] / dt**2
    for it in range(iterations):
        rhs, F, R, V = elastic_rhs(mesh, gammas, x)
        b = m_dt2 * (x - inertia_target) + rhs
        x = solver.solve(b, pin_vals if len(pins) else np.empty((0, 3)))
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"quasi-static projection diverged at iteration {it}")
    return x


def quasi_static_objective(mesh, gammas, inertia_target, x, dt):
    lin = float(np.sum(mesh.node_mass[:, None] * inertia_target * x)) / dt**2
    return elastic_energy(mesh, gammas, x) + lin


# ---------------------------------------------------------------------------
# Newton polish


def newton_polish(mesh, gammas, x0, *, dt, pins=(), pin_vals=None,
                  inertia_target=None, xhat=None, tol=1e-5, max_iters=20,
                  exact=False):
    """Drive the step residual below tol with Newton-type iterations.

    Two residual flavors share the machinery: the dynamic step residual
    (M/dt^2)(x - xhat) + dE, or the quasi-static fitting residual
    (M/dt^2) a + dE with a constant inertia target.  The default iteration
    matrix is the frozen-projection elastic Hessian plus M/dt^2, which is
    positive definite, so steps are descent directions for the associated
    objective; a halving line search keeps it monotone.  That iteration is
    only linearly convergent, so `exact` switches to the true residual
    Jacobian (projection sensitivities included) for quadratic convergence
    at tight tolerances, falling back to the definite matrix whenever the
    exact step fails to decrease the objective.

    Returns (x, converged flag, iterations used).
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
        g = elastic_gradient(mesh, gammas, xc)
        if xhat is not None:
            g = g + m_dt2 * (xc - xhat)
        else:
            g = g + m_dt2 * inertia_target
        return g

    def objective(xc):
        if xhat is not None:
            d = xc - xhat
            return elastic_energy(mesh, gammas, xc) + 0.5 * float(np.sum(m_dt2 * d * d))
        lin = float(np.sum(m_dt2 * inertia_target * xc))
        return elastic_energy(mesh, gammas, xc) + lin

    def gmax(gv):
        return float(np.abs(gv[free]).max()) if len(free) else 0.0

    g = residual(x)
    if gmax(g) < tol:
        return x, True, 0

    H = assemble_global(mesh, gammas, dt)     # GN Hessian + M/dt^2, scalar
    solve = spla.factorized(H[free][:, free].tocsc())
    fdofs = (3 * free[:, None] + np.arange(3)[None, :]).reshape(-1)
    mass_diag = np.repeat(mesh.node_mass, 3) / dt**2

    def gn_step(gc):
        step = np.zeros_like(x)
        for k in range(3):
            step[free, k] = solve(-gc[free, k])
        return step

    def exact_step(xc, gc):
        J = exact_elastic_hessian(mesh, gammas, xc)
        if xhat is not None:
            J = J + sp.diags(mass_diag)
        try:
            d = spla.spsolve(J[fdofs][:, fdofs].tocsc(), -gc.reshape(-1)[fdofs])
        except RuntimeError:
            return None
        if not np.all(np.isfinite(d)):
            return None
        step = np.zeros_like(x)
        step.reshape(-1)[fdofs] = d
        return step

    def try_step(step, obj):
        t = 1.0
        for _ in range(12):
            xn = x + t * step
            if len(pins):
                xn[pins] = pin_vals
            on = objective(xn)
            if on < obj + 1e-15 * max(1.0, abs(obj)):
                return xn, on
            t *= 0.5
        return None, obj

    obj = objective(x)
    stall = 0
    for it in range(1, max_iters + 1):
        xn = None
        if exact:
            step = exact_step(x, g)
            if step is not None:
                xn, on = try_step(step, obj)
        if xn is None:
            xn, on = try_step(gn_step(g), obj)
        if xn is None:
            stall += 1
            if stall >= 10:
                log.warning("newton polish stalled at residual %.3e", gmax(g))
                return x, False, it
            xn, on = x, obj
        x, obj = xn, on
        g = residual(x)
        if gmax(g) < tol:
            return x, True, it
    ok = gmax(g) < tol
    if not ok:
        log.warning("newton polish hit iteration cap at residual %.3e", gmax(g))
    return x, ok, max_iters


# ---------------------------------------------------------------------------
# component-mode subspace


def partition_elements(mesh, n_domains, labels=None):
    """Element domain labels: supplied per-pattern labels or geometric slabs
    along the longest bounding-box axis."""
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if len(labels) != mesh.n_elements:
            raise ValueError("need one domain label per element")
        return labels
    centers = mesh.nodes[mesh.tets].mean(axis=1)
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    axis = int(np.argmax(span))
    c = centers[:, axis]
    edges = np.quantile(c, np.linspace(0.0, 1.0, n_domains + 1)[1:-1])
    return np.searchsorted(edges, c)


def classify_nodes(mesh, element_labels, free=None):
    """Interior node sets per domain plus the merged boundary set.

    A node is interior to a domain when every incident element carries that
    label; nodes shared between domains form the single merged boundary.
    Restricted to `free` indices when given (pinned DOFs are eliminated
    before the subspace is built).
    """
    n = mesh.n_nodes
    lo = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(n, -1, dtype=np.int64)
    for e, t in enumerate(mesh.tets):
        lab = element_labels[e]
        np.minimum.at(lo, t, lab)
        np.maximum.at(hi, t, lab)
    keep = np.ones(n, dtype=bool) if free is None else np.zeros(n, dtype=bool)
    if free is not None:
        keep[free] = True
    interior = []
    n_dom = int(element_labels.max()) + 1
    taken = np.zeros(n, dtype=bool)
    for d in range(n_dom):
        sel = np.flatnonzero((lo == d) & (hi == d) & keep)
        interior.append(sel)
        taken[sel] = True
    boundary = np.flatnonzero(keep & ~taken & (hi >= 0))
    return interior, boundary


class CmsSubspace:
    """Craig-Bampton style reduction of a sparse SPD matrix.

    Per domain: interior eigenmodes of K_ii plus the static boundary
    response Psi = -K_ii^{-1} K_ib; boundary DOFs are kept verbatim (one
    merged copy across domains).  With complete interior bases the reduced
    solve is exact.
    """

    def __init__(self, K, interior_sets, boundary, modes_per_domain=20):
        self.n = K.shape[0]
        self.boundary = np.asarray(boundary, dtype=int)
        cols = []
        col_count = 0
        nb = len(self.boundary)
        blocks = []
        for sel in interior_sets:
            sel = np.asarray(sel, dtype=int)
            if len(sel) == 0:
                blocks.append(None)
                continue
            Kii = K[sel][:, sel].tocsc()
            solve_ii = spla.factorized(Kii)
            m = min(modes_per_domain, len(sel))
            Phi = self._modes(Kii, m)
            Psi = None
            if nb:
                Kib = np.asarray(K[sel][:, self.boundary].todense())
                Psi = -np.column_stack([solve_ii(Kib[:, j]) for j in range(nb)])
            blocks.append((sel, Phi, Psi))
            col_count += Phi.shape[1]
        self.blocks = blocks

        # basis T: [interior eigenmode columns ... , boundary columns]
        rows, colsz, vals = [], [], []
        c0 = 0
        for blk in blocks:
            if blk is None:
                continue
            sel, Phi, Psi = blk
            for j in range(Phi.shape[1]):
                rows.extend(sel)
                colsz.extend([c0 + j] * len(sel))
                vals.extend(Phi[:, j])
            c0 += Phi.shape[1]
        for bj, node in enumerate(self.boundary):
            rows.append(node)
            colsz.append(c0 + bj)
            vals.append(1.0)
        for blk in blocks:
            if blk is None:
                continue
            sel, Phi, Psi = blk
            if Psi is not None:
                for bj in range(nb):
                    rows.extend(sel)
                    colsz.extend([c0 + bj] * len(sel))
                    vals.extend(Psi[:, bj])
        self.T = sp.csr_matrix(
            (vals, (rows, colsz)), shape=(self.n, c0 + nb)
        )
        self.K_red = (self.T.T @ K @ self.T).tocsc()
        # symmetrize away assembly roundoff before factorizing
        self.K_red = 0.5 * (self.K_red + self.K_red.T)
        self._solve = spla.factorized(self.K_red)

    @staticmethod
    def _modes(Kii, m):
        nloc = Kii.shape[0]
        try:
            if m >= nloc or nloc <= 400:
                w, v = np.linalg.eigh(Kii.toarray())
                return v[:, :m]
            w, v = spla.eigsh(Kii, k=m, sigma=0.0, mode="normal")
            return v
        except Exception as exc:                      # eigensolver failure
            log.warning("interior eigensolver failed (%s); falling back to dense", exc)
            w, v = np.linalg.eigh(Kii.toarray())
            return v[:, : min(m, nloc)]

    def solve(self, b):
        return self.T @ self._solve(self.T.T @ b)


def build_cms(K, mesh=None, n_domains=2, modes_per_domain=20, element_labels=None,
              free=None, interior_sets=None, boundary=None):
    """Convenience constructor: partition a mesh (or use explicit sets) and
    reduce K onto the component-mode basis."""
    if interior_sets is None:
        labels = partition_elements(mesh, n_domains, element_labels)
        interior_sets, boundary = classify_nodes(mesh, labels, free)
        if free is not None:
            # K is the free-free block, so renumber into free-local indices
            remap = -np.ones(mesh.n_nodes, dtype=int)
            remap[free] = np.arange(len(free))
            interior_sets = [remap[s] for s in interior_sets]
            boundary = remap[boundary]
    return CmsSubspace(K, interior_sets, boundary, modes_per_domain)


# ---------------------------------------------------------------------------
# aggregated Jacobi


def _power_rho(K, invd, omega, iters=30, seed=0):
    """Spectral-radius estimate of the weighted-Jacobi iteration matrix."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=K.shape[0])
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iters):
        v = v - omega * (invd * (K @ v))
        nrm = np.linalg.norm(v)
        if nrm < 1e-300:
            return 0.0
        rho = nrm
        v /= nrm
    return min(rho, 0.9999)


def a_jacobi_refine(K, b, x0, sweeps=30, aggregation=2, omega=JACOBI_OMEGA,
                    chebyshev=False, rho=None):
    """Aggregated weighted-Jacobi refinement of K x = b.

    One aggregated sweep applies `aggregation` plain weighted-Jacobi
    updates fused into a single accumulation (algebraically identical to
    running them one by one).  With `chebyshev` the sweeps are blended by
    the classical semi-iterative weights using a power-iteration estimate
    of the smoother's spectral radius.

    Returns (x, info) where info carries the residual history and a
    `diverged` flag; on divergence the best iterate seen is returned.
    """
    if aggregation not in (2, 3):
        raise ValueError("aggregation must be 2 or 3")
    d = K.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("matrix diagonal must be positive")
    invd = 1.0 / d
    x = np.asarray(x0, dtype=float).copy()
    r = b - K @ x
    best_x, best_r = x.copy(), np.linalg.norm(r)
    history = [best_r]
    info = {"diverged": False}

    if chebyshev:
        if rho is None:
            rho = _power_rho(K, invd, omega)
        x_prev = x.copy()
        w = 1.0
        total = sweeps * aggregation
        for k in range(total):
            y = x + omega * (invd * (b - K @ x))
            if k == 0:
                x_new = y
                w = 2.0 / (2.0 - rho**2)
            else:
                x_new = w * (y - x_prev) + x_prev
                w = 4.0 / (4.0 - rho**2 * w)
            x_prev, x = x, x_new
            rn = np.linalg.norm(b - K @ x)
            history.append(rn)
            if rn < best_r:
                best_r, best_x = rn, x.copy()
            if rn > 10.0 * best_r:
                info["diverged"] = True
                info["residuals"] = history
                return best_x, info
        info["residuals"] = history
        return (best_x if best_r < history[-1] else x), info

    for _ in range(sweeps):
        # fused aggregation: e accumulates the next `aggregation` updates
        e = np.zeros_like(x)
        s = r.copy()
        for _ in range(aggregation):
            cs = omega * (invd * s)
            e += cs
            s -= K @ cs
        x = x + e
        r = s
        rn = np.linalg.norm(r)
        history.append(rn)
        if rn < best_r:
            best_r, best_x = rn, x.copy()
        if rn > 10.0 * best_r:
            info["diverged"] = True
            break
    info["residuals"] = history
    if info["diverged"] or history[-1] > best_r:
        return best_x, info
    return x, info


# ---------------------------------------------------------------------------
# high-level forward simulation


def simulate_mesh(mesh, gammas, steps, dt, forces=None, pins=(), pin_targets=None,
                  colliders=(), iterations=PD_ITERS_DEFAULT, solver_mode="direct",
                  n_domains=2, modes_per_domain=20, refine_sweeps=30, aggregation=2,
                  chebyshev=False, damping=1.0, polish_tol=None, x0=None):
    """Run a forward simulation and return the frame stack (steps, nV, 3).

    pin_targets may be constant (nP, 3) or a per-step path (steps, nP, 3).
    """
    pins = np.asarray(pins, dtype=int)
    pin_path = None
    if pin_targets is not None:
        pin_targets = np.asarray(pin_targets, dtype=float)
        if pin_targets.ndim == 3:
            pin_path = pin_targets
            pin_targets = pin_path[0]
    state = SimState(
        x=mesh.nodes.copy() if x0 is None else np.asarray(x0, dtype=float).copy(),
        v=np.zeros_like(mesh.nodes),
        dt=dt,
        pins=pins,
        pin_targets=pin_targets,
        colliders=tuple(colliders),
    )
    free = np.setdiff1d(np.arange(mesh.n_nodes), pins)
    K = assemble_global(mesh, gammas, dt)
    if solver_mode == "cms":
        cms = build_cms(K[free][:, free].tocsc(), mesh, n_domains=n_domains,
                        modes_per_domain=modes_per_domain, free=free)
        solver = GlobalSolver(K, free, pins, mode="cms", cms=cms,
                              refine_sweeps=refine_sweeps, aggregation=aggregation,
                              chebyshev=chebyshev)
    else:
        solver = GlobalSolver(K, free, pins)

    if forces is not None:
        forces = np.asarray(forces, dtype=float)
        if forces.ndim == 2:
            forces = np.broadcast_to(forces, (steps,) + forces.shape)
    frames = np.empty((steps, mesh.n_nodes, 3))
    for i in range(steps):
        if pin_path is not None:
            state.pin_targets = pin_path[i]
        f = None if forces is None else forces[i]
        sv = solver if not state.colliders else None
        polish = polish_tol is not None and not state.colliders
        if polish:
            x_start, xh = state.x.copy(), _predicted(state, f, mesh)
        pd_step(state, mesh, gammas, iterations=iterations, forces=f,
                solver=sv, damping=damping)
        if polish:
            # polish toward this step's prediction, then rebuild v from the
            # polished positions as pd_step does from its own
            state.x, _, _ = newton_polish(
                mesh, gammas, state.x, dt=dt, pins=pins,
                pin_vals=state.pin_targets, xhat=xh, tol=polish_tol,
            )
            state.v = damping * (state.x - x_start) / dt
        frames[i] = state.x
    return frames

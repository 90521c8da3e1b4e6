"""Per-element material estimation from yarn poses.

Each sample couples a yarn pose with its transferred mesh targets and an
inertia target; the fitted state is the quasi-static equilibrium of the
homogenized mesh under those loads.  The fit minimizes the sum of the
per-sample pose-matching losses.  Each sample keeps its own equilibrium
state and adjoint solve against the exact equilibrium Jacobian; gradients
add up, and Gauss-Newton directions come from one sparse symmetric block
system, one block pair per sample, that never forms the dense sensitivity
matrix.  The parameter is the per-element coefficient vector alone.  A
spectral coarse-to-fine schedule (element-graph Laplacian eigenvectors,
ranks 1 / 10 / 30 / full) initializes the material: each stage's basis
only restricts the direction, and each stage starts at the previous
stage's coefficients.  One cold full-space pass from them ends the fit
(without that pass the bench training loss was 10 % higher).

A sample's first equilibrium is a cold solve: proximal rounds from the
transferred pose, then Newton.  Every trial after it is a warm solve from
the current converged state, straight to Newton with at least one step.
Gradient descent tries its fixed step once and stops when it fails;
Gauss-Newton halves its step until the loss falls.  A trial that misses
the adjoint gate on any sample fails.  The problem counts its solves.  The
per-element coefficients keep to GAMMA_FLOOR by projected Newton (Bertsekas
1982): an active set taken from the current point alone, and every trial
projected onto the floor.
"""

from __future__ import annotations

import logging
from dataclasses import InitVar, dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import material as mat
from . import pdsolver, transfer, volmesh
from .yarn_model import YarnSequence

log = logging.getLogger(__name__)

GD_STEP = 0.01
GN_STEP = 1.0
GD_ITERS = 12
GN_ITERS = 30
MAX_HALVINGS = 8
EQ_GATE = 1e-5          # max residual allowed for any adjoint evaluation
STOP_REL = 1e-4         # relative loss decrease below this ...
STOP_WINDOW = 3         # ... for this many iterations stops the GN phase
KAPPA_SCALE = 1e-6
STAGE_RANKS = (1, 10, 30, None)


# ---------------------------------------------------------------------------
# samples and the shared loss


@dataclass
class FitSample:
    """One yarn pose prepared for fitting against the y2v operator `op`."""

    index: int
    yarn_pose: np.ndarray            # (nY, 3)
    targets: transfer.TargetDeformation
    inertia: np.ndarray              # (nV, 3) inertia target
    pins: np.ndarray                 # mesh node indices held fixed
    pin_vals: np.ndarray
    x_init: np.ndarray               # warm start (y2v transfer of the pose)
    op: InitVar[transfer.Y2VOperator]
    fdofs: np.ndarray = field(init=False, repr=False)    # free DOF indices
    G: sp.csr_matrix = field(init=False, repr=False)     # loss Hessian, free block

    def __post_init__(self, op):
        if not np.all(np.isfinite(self.inertia)):
            raise ValueError("non-finite inertia target")
        if not self.targets.covered.any():
            raise ValueError("sample covers no elements")
        # built once per sample; the loss Hessian acts on each coordinate
        free = np.setdiff1d(np.arange(len(self.x_init)), self.pins)
        self.fdofs = (3 * free[:, None] + np.arange(3)[None, :]).reshape(-1)
        G = sp.kron(op.matrix(), sp.eye(3)).tocsr()
        self.G = G[self.fdofs][:, self.fdofs]


def build_sample(op, frames, i, dt=None, yarn_pins=(), yarn_force=None):
    """Assemble a FitSample from frame i of a yarn sequence.

    `op` is the transfer operator; pinned yarn vertices pin the nodes of
    their host elements at the transferred positions.  The inertia target
    needs two history frames and dt; static samples (dt None or i < 2) get
    a zero target.
    """
    x_init, targets = op.transfer(frames[i])
    if dt is not None and i >= 2:
        a = transfer.estimate_inertia(op, YarnSequence(frames=frames, dt=dt), i, yarn_force)
    else:
        a = np.zeros_like(x_init)
    yarn_pins = np.asarray(yarn_pins, dtype=int)
    if len(yarn_pins):
        hosts = op.embedding.host_elem[yarn_pins]
        pins = np.unique(op.mesh.tets[hosts])
    else:
        pins = np.empty(0, dtype=int)
    return FitSample(index=i, yarn_pose=np.asarray(frames[i], dtype=float),
                     targets=targets, inertia=a, pins=pins,
                     pin_vals=x_init[pins], x_init=x_init, op=op)


@dataclass
class EquilibriumStats:
    """What the equilibrium solves of a fit did, for its report."""

    cold: int = 0               # solves from sample.x_init with PD rounds
    warm: int = 0               # solves from a given converged state
    newton_iters: int = 0       # Newton iterations over all solves
    unconverged: int = 0        # solves that ended at or above their tol
    max_residual: float = 0.0   # largest final residual
    ridges: int = 0             # adjoint solves retried on H + kappa I

    def record(self, cold, iters, ok, resid):
        self.cold += int(cold)
        self.warm += int(not cold)
        self.newton_iters += int(iters)
        self.unconverged += int(not ok)
        self.max_residual = max(self.max_residual, float(resid))


class FitProblem:
    """Pose-matching loss and equilibrium plumbing shared across samples.

    The loss is the y2v objective of `op` (a transfer.Y2VOperator) at the
    sample's targets and yarn pose, so at the transferred pose it is the
    reconstruction optimum; its weights and Hessian are the operator's.
    `stats` counts the equilibrium solves.
    """

    def __init__(self, op, dt=1e-2):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.op = op
        self.mesh = op.mesh
        self.dt = dt
        self.stats = EquilibriumStats()

    def loss(self, x, sample):
        return self.op.objective(x, sample.targets, sample.yarn_pose)

    def loss_grad_x(self, x, sample):
        return self.op.gradient(x, sample.targets, sample.yarn_pose)

    def solve_equilibrium(self, gammas, sample, x0=None, tol=1e-6,
                          pd_iters=6, max_newton=60):
        """Quasi-static state under the sample loads.

        A cold solve (x0 None) runs pd_iters proximal rounds from
        sample.x_init, then polishes with exact-Jacobian Newton.  A given
        x0 is a converged state of neighbouring coefficients: proximal
        rounds would only move it off the equilibrium for Newton to bring
        back, so the warm solve goes straight to Newton and takes at least
        one step, which moves x even when the start already meets tol.

        Returns (x, residual infinity norm on free nodes, converged flag).
        """
        cold = x0 is None
        if cold:
            x0 = pdsolver.pd_equilibrium(
                self.mesh, gammas, sample.inertia, sample.x_init, sample.pins,
                sample.pin_vals, self.dt, iterations=pd_iters)
        x, ok, iters, resid = pdsolver.newton_polish(
            self.mesh, gammas, x0, dt=self.dt, pins=sample.pins,
            pin_vals=sample.pin_vals, inertia_target=sample.inertia,
            tol=tol, max_iters=max_newton, min_iters=0 if cold else 1)
        self.stats.record(cold, iters, ok, resid)
        return x, resid, ok

    def evaluate(self, gammas, samples, xs=None):
        """(summed loss, states, residuals) of the samples' equilibria:
        cold solves, or warm ones from the states xs (one per sample)."""
        solved = [self.solve_equilibrium(gammas, s, x0=x0) for s, x0 in
                  zip(samples, [None] * len(samples) if xs is None else xs)]
        xs = [x for x, _, _ in solved]
        return (_total([self.loss(x, s) for x, s in zip(xs, samples)]), xs,
                [resid for _, resid, _ in solved])


def _total(values):
    """Sum over samples in their order; one sample's value is itself."""
    return sum(values[1:], values[0])


# ---------------------------------------------------------------------------
# adjoint machinery


def gamma_jacobian(mesh, x):
    """Sparse d(residual)/d(gamma), shape (3nV, 2nE).

    The equilibrium residual is linear in the coefficients, so the column
    for each coefficient is that element's unit-coefficient force pattern:
    kron(D, I3)^T applied to a column holding 2 V_e vec((F - R)^T) (shape)
    or 2 V_e vec((F - V)^T) (volume) in the element's nine rows.
    """
    F = mesh.deformation_gradients(x)
    R, V = mat.batch_projections(F)
    P = 2.0 * mesh.volume[:, None, None] * np.stack([F - R, F - V])
    nE = mesh.n_elements
    cols = sp.csc_matrix(
        (P.transpose(0, 1, 3, 2).reshape(-1), np.tile(np.arange(9 * nE), 2),
         np.arange(0, 18 * nE + 1, 9)), shape=(9 * nE, 2 * nE))
    return (mesh.dof_grad_op.T @ cols).tocsr()


@dataclass
class AdjointState:
    """One sample's equilibrium-point quantities, on its free DOFs."""

    H: sp.csc_matrix          # exact equilibrium Jacobian
    J: sp.csr_matrix          # residual derivative in gamma
    G: sp.csr_matrix          # loss Hessian (the sample's kept block)
    grad: np.ndarray          # loss gradient in gamma, length 2nE


def adjoint_gradient(problem, sample, gammas, x, residual, logger=None):
    """One sample's loss gradient in the coefficients via one adjoint solve.

    The equilibrium Jacobian carries the projection sensitivities; with
    the frozen-projection form the gradient has order-one error.  Each
    call is gated on `residual`, the equilibrium residual that
    solve_equilibrium returned with x, and logged.
    """
    ok = residual < EQ_GATE
    if logger is not None:
        logger.log_gate(sample.index, residual, ok)
    if not ok:
        raise EquilibriumGateError(
            f"adjoint evaluation rejected: residual {residual:.3e} >= {EQ_GATE:g}")

    fdofs = sample.fdofs
    Hff = pdsolver.exact_elastic_hessian(problem.mesh, gammas, x, fdofs)
    gx = problem.loss_grad_x(x, sample).reshape(-1)[fdofs]
    try:
        lam = spla.spsolve(Hff, gx)
    except RuntimeError:
        lam = None
    # an exactly singular H can also come back as a warning and a NaN lambda
    if lam is None or not np.isfinite(lam).all():
        kap = KAPPA_SCALE * Hff.diagonal().sum() / Hff.shape[0]
        log.warning("singular equilibrium Jacobian; adding %.3e ridge", kap)
        problem.stats.ridges += 1
        lam = spla.spsolve((Hff + kap * sp.eye(Hff.shape[0])).tocsc(), gx)
    J = gamma_jacobian(problem.mesh, x)[fdofs]
    grad = -(J.T @ lam)
    return AdjointState(H=Hff, J=J, G=sample.G, grad=grad)


def objective_gradient(problem, samples, gammas, xs, residuals, logger=None):
    """Adjoint states of every sample and the summed loss gradient."""
    states = [adjoint_gradient(problem, s, gammas, x, residual=r, logger=logger)
              for s, x, r in zip(samples, xs, residuals)]
    return states, _total([st.grad for st in states])


class EquilibriumGateError(RuntimeError):
    pass


def _coords(basis, v):
    """A coefficient gradient (length 2nE) or the columns of a coefficient
    Jacobian (nE + nE columns) in a stage's coordinates: basis^T per field,
    or v itself in the full per-element space (basis None)."""
    if basis is None:
        return v
    nE = basis.shape[0]
    if v.ndim == 1:
        return np.concatenate([basis.T @ v[:nE], basis.T @ v[nE:]])
    return np.hstack([v[:, :nE] @ basis, v[:, nE:] @ basis])


def adjoint_gauss_newton(states, kappa=None, basis=None, frozen=()):
    """Gauss-Newton direction of the summed loss from one sparse symmetric
    block system, given one AdjointState per sample.

    Two auxiliary vectors (v_k, u_k) per sample turn (sum_k J_k^T H_k^-1 G_k
    H_k^-1 J_k + kappa I) d = -sum_k grad_k into one sparse solve; the last
    row carries -(P + kappa I) d, so the gradient enters with a plus sign.
    Each sample adds its pair of block rows around that shared row:

        [ 0   H_k  J_k ] [v_k]   [ 0    ]
        [ H_k -G_k  0  ] [u_k] = [ 0    ]
        [ J_k^T 0  -kI ] [ d ]   [ grad ]

    kappa defaults to KAPPA_SCALE times the summed mean diagonals of the
    G_k.  `basis` restricts the direction to a spectral subspace; `frozen`
    drops coefficient columns, d is zero there.  Returns (d, kappa, ok); ok False
    means the factorization failed or produced a non-descent direction and
    the caller should escalate kappa or fall back to the gradient.
    """
    if kappa is None:
        kappa = _total([KAPPA_SCALE * st.G.diagonal().sum() / st.G.shape[0]
                        for st in states])
    grad = _coords(basis, _total([st.grad for st in states]))
    keep = np.setdiff1d(np.arange(len(grad)), frozen)
    gk = grad[keep]

    m, n = len(keep), 2 * len(states)
    blocks = [[None] * (n + 1) for _ in range(n + 1)]
    for k, st in enumerate(states):
        Jk = sp.csr_matrix(_coords(basis, st.J))[:, keep]
        v, u = 2 * k, 2 * k + 1
        blocks[v][u] = blocks[u][v] = st.H
        blocks[u][u] = -st.G
        blocks[v][n], blocks[n][v] = Jk, Jk.T
    blocks[n][n] = -kappa * sp.eye(m)
    KKT = sp.bmat(blocks, format="csc")
    rhs = np.concatenate([np.zeros(KKT.shape[0] - m), gk])
    try:
        sol = spla.splu(KKT).solve(rhs)
    except RuntimeError:
        return None, kappa, False
    dk = sol[KKT.shape[0] - m:]
    if not np.all(np.isfinite(dk)):
        return None, kappa, False
    d = np.zeros(len(grad))
    d[keep] = dk
    # d = 0 at a stationary point is the valid homogeneous solution, not a
    # failed descent direction
    if len(gk) and np.linalg.norm(gk) > 0.0 and float(d @ grad) >= 0.0:
        return d, kappa, False
    return d, kappa, True


# ---------------------------------------------------------------------------
# safeguarded stepping


def safeguarded_update(gamma, d, step, eval_loss, current_loss,
                       tries=MAX_HALVINGS + 1):
    """Backtracking update projected onto GAMMA_FLOOR.

    Trials max(gamma + t*step*d, GAMMA_FLOOR) at t = 1, 1/2, ..., at most
    `tries` of them, halving t while the loss does not decrease; tries 1
    takes the fixed step or nothing.  Returns (gamma', loss', accepted, t).
    """
    def point(t):
        return np.maximum(gamma + t * step * d, mat.GAMMA_FLOOR)

    trial, val, t = pdsolver.backtrack(point, eval_loss, current_loss, tries)
    if trial is None:
        return gamma, current_loss, False, 0.0
    return trial, val, True, t


@dataclass
class FitLogger:
    """Collects gate checks and convergence rows for reporting."""

    gate: list = field(default_factory=list)          # (sample, resid, ok)
    rows: list = field(default_factory=list)          # convergence entries
    # damping-ladder block solves, the failed ones, and fallbacks to -grad
    gauss_newton: dict = field(default_factory=lambda: dict(solves=0, escalations=0, exhausted=0))

    def log_gate(self, sample, resid, ok):
        self.gate.append((sample, resid, ok))

    def log_iter(self, phase, iteration, loss, step, grad_norm):
        self.rows.append(dict(phase=phase, iteration=iteration,
                              loss=loss, step=step, grad_norm=grad_norm))

    @property
    def gate_violations(self):
        return sum(1 for _, _, ok in self.gate if not ok)


@dataclass
class FitResult:
    gamma: np.ndarray          # stacked (2nE,)
    loss: float                # summed over the samples
    xs: list                   # equilibrium state of each sample
    losses: list
    stalled: bool
    resids: list = None        # equilibrium residual of each final state


def _gn_direction(states, grad, kappa, basis, active, logger):
    """Gauss-Newton direction with the damping ladder, zero on `active`.

    Up to five solves with `active` frozen, kappa times ten after each
    failed one, then -grad (`grad` is zero on `active`); `logger` counts
    them.  The first call fixes the kappa every later iteration starts
    from.  Returns (d, kappa).
    """
    counts = logger.gauss_newton
    kap = kappa
    for _ in range(5):
        counts["solves"] += 1
        d, kap, ok = adjoint_gauss_newton(states, kappa=kap, basis=basis,
                                          frozen=active)
        if ok:
            break
        counts["escalations"] += 1
        kap *= 10.0
    else:
        counts["exhausted"] += 1
        d = -grad
    if kappa is None:
        kappa = kap
    return d, kappa


def fit_sample(problem, samples, gamma0, *, basis=None,
               gd_iters=GD_ITERS, gn_iters=GN_ITERS, logger=None, init_state=None):
    """Two-phase fit of the summed loss of `samples`: gradient descent,
    then Gauss-Newton.

    The parameter is the coefficient vector, from gamma0 floored at
    GAMMA_FLOOR.  Without `basis` the gradient is zeroed on the active set
    (floored entries it would push down); an (nE, r) `basis` restricts the
    direction to its span per field: the gradient enters in its
    coordinates, and the direction found there steps the coefficients by
    basis @ d per field.  Both phases step with safeguarded_update and stop
    at their first rejected step.  GD tries its fixed step -GD_STEP*grad
    once; GN halves its step along _gn_direction up to MAX_HALVINGS times
    and also stops when the loss plateaus.  The first evaluation solves
    every sample cold, each trial solves them warm from their current
    states, and a trial that misses EQ_GATE on any sample fails; a phase
    that ends without moving hands its adjoint states to the next.  An
    `init_state`, the (loss, states, residuals) triple of gamma0, starts a
    stage exactly at the previous optimum.  Returns FitResult.
    """
    if not len(samples):
        raise ValueError("need at least one sample")
    logger = FitLogger() if logger is None else logger

    def eval_at(gamma_vec, warm=None):
        return problem.evaluate(gamma_vec.reshape(2, -1), samples, warm)

    def lift(d):
        # a direction in the stage's coordinates steps gamma by basis @ d per field
        r = len(d) // 2
        return d if basis is None else np.concatenate([basis @ d[:r], basis @ d[r:]])

    gamma = np.maximum(np.asarray(gamma0, dtype=float), mat.GAMMA_FLOOR)
    loss, xs, resids = eval_at(gamma) if init_state is None else init_state
    losses = [loss]
    stalled = False
    trial_state = None

    def eval_loss(trial):
        # every trial starts from the current states; safeguarded_update
        # accepts the last trial it evaluates, so its states are kept
        nonlocal trial_state
        val, *trial_state = eval_at(trial, xs)
        return val if max(trial_state[1]) < EQ_GATE else np.inf

    kappa = None
    window = []
    states = None                   # adjoint states at the current point
    for phase, iters, step, tries in (("gd", gd_iters, GD_STEP, 1),
                                      ("gn", gn_iters, GN_STEP, MAX_HALVINGS + 1)):
        for it in range(iters):
            if states is None:
                states, grad_full = objective_gradient(
                    problem, samples, gamma.reshape(2, -1), xs, resids, logger=logger)
            grad = _coords(basis, grad_full).copy()
            active = (np.flatnonzero((grad > 0.0) & (gamma <= mat.GAMMA_FLOOR))
                      if basis is None else [])
            grad[active] = 0.0
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-10:
                break
            if phase == "gd":
                d = -grad
            else:
                d, kappa = _gn_direction(states, grad, kappa, basis, active, logger)
            gamma, loss, accepted, t = safeguarded_update(
                gamma, lift(d), step, eval_loss, loss, tries=tries)
            if accepted:
                xs, resids = trial_state
                states = None
            logger.log_iter(phase, it, loss, step * t, gnorm)
            losses.append(loss)
            if not accepted:
                # flat for GD, and GN may still move; a rejected GN step stalls
                stalled = phase == "gn"
                break
            if phase == "gn":
                window = (window + [loss])[-STOP_WINDOW:]
                if (len(window) == STOP_WINDOW and window[0] > 0.0
                        and (window[0] - window[-1]) / window[0] < STOP_REL):
                    break

    return FitResult(gamma=gamma, loss=loss, xs=xs, losses=losses,
                     stalled=stalled, resids=resids)


# ---------------------------------------------------------------------------
# spectral coarse-to-fine schedule


def harmonic_basis(mesh, r):
    """First r eigenvectors of the element-adjacency graph Laplacian.

    Coefficients live on elements, so the graph couples elements sharing a
    face.  Columns are orthonormal and the first is the constant vector;
    prefixes are nested, so one build at the largest rank serves every
    stage of a schedule.
    """
    nE = mesh.n_elements
    r = min(r, nE)
    adj = volmesh.element_adjacency(mesh)
    L = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsc()
    # L is singular (the constants are its null space), so the shift sits below 0
    H = pdsolver.lowest_modes(L, r, -1e-6, 1500)
    # pin the null eigenvector to the exact constant and re-orthonormalize;
    # QR keeps the nested prefix spans, and the sign fix a positive constant
    H[:, 0] = 1.0 / np.sqrt(nE)
    Q, R = np.linalg.qr(H)
    Q *= np.sign(np.diag(R))[None, :]
    return Q


def fit_staged(problem, samples, gamma0, *, ranks=STAGE_RANKS, logger=None,
               gd_iters=GD_ITERS, gn_iters=GN_ITERS):
    """Coarse-to-fine fit of the summed loss through nested spectral
    subspaces.

    Each stage restricts the direction to the first `rank` harmonics per
    field, or not at all for rank None (the full per-element space).  Every
    stage after the first starts exactly at the previous stage's
    coefficients, loss and states, so stage-final losses can only decrease
    along the schedule.  Returns (FitResult, stage_losses dict); the
    result's `losses` run along the whole schedule, from the first stage's
    cold evaluation.
    """
    max_rank = max((rk for rk in ranks if rk is not None), default=0)
    H_full = harmonic_basis(problem.mesh, max_rank) if max_rank else None
    if H_full is not None and H_full.shape[1] < max_rank:
        log.warning("spectral basis truncated to rank %d", H_full.shape[1])

    gamma, start = gamma0, None
    stage_losses = {}
    losses = []
    for rk in ranks:
        result = fit_sample(problem, samples, gamma,
                            basis=None if rk is None else H_full[:, :rk],
                            logger=logger, gd_iters=gd_iters,
                            gn_iters=gn_iters, init_state=start)
        stage_losses["full" if rk is None else f"r{rk}"] = result.loss
        losses += result.losses if start is None else result.losses[1:]
        gamma, start = result.gamma, (result.loss, result.xs, result.resids)
    return replace(result, losses=losses), stage_losses


def fit_sequence(problem, samples, gamma0, *, logger=None,
                 gd_iters=GD_ITERS, gn_iters=GN_ITERS):
    """One cold full-space pass over the summed loss from gamma0, the
    staged material; it fails if GN stalled without lowering the loss, and
    its material is returned either way.  Returns ((2, nE) gamma, report
    dict); `logger` counts the gate checks."""
    res = fit_sample(problem, samples, gamma0, logger=logger,
                     gd_iters=gd_iters, gn_iters=gn_iters)
    progressed = res.losses[-1] < res.losses[0]
    failed = res.stalled and not progressed
    if failed:
        log.warning("the full-space pass stalled without progress")
    per_sample = [dict(index=s.index, loss=problem.loss(x, s), stalled=res.stalled,
                       progressed=progressed) for s, x in zip(samples, res.xs)]
    return res.gamma.reshape(2, -1), dict(samples=per_sample, failed=failed)

"""Per-element material estimation from yarn poses.

Each sample couples a yarn pose with its transferred mesh targets and an
inertia target; the fitted state is the quasi-static equilibrium of the
homogenized mesh under those loads.  The fit minimizes the sum of the
per-sample pose-matching losses.  Each solve gives a sample's Equilibrium
record; its adjoint solve factorizes the exact equilibrium Jacobian once,
and a rank-r stage's Gauss-Newton direction (a dense 2r x 2r solve) reuses
that LU; gradients add up.  The full space eliminates the coefficients to
one sparse direction solve.  The parameter is the per-element coefficient
vector alone.  A spectral coarse-to-fine schedule (element-graph Laplacian
eigenvectors, ranks 1 / 10 / 30 / full) initializes the material: each
stage's basis only restricts the direction, and each stage starts at the
previous stage's coefficients and states.  A last full-space pass
continues warm from the staged result, so a fit solves each sample cold
once.

A sample's first equilibrium is a cold solve: proximal rounds from the
transferred pose, then Newton.  Every trial after it is a warm solve from
the current converged state, straight to Newton with at least one step.
Gradient descent tries its fixed step once and stops when it fails;
Gauss-Newton halves its step until the loss falls.  A trial that misses
the adjoint gate on any sample fails.  The problem keeps the fit's one
record: its solves, gate checks, direction solves and convergence rows.  The
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
    hosts = op.embedding.host_elem[np.asarray(yarn_pins, dtype=int)]
    pins = np.unique(op.mesh.tets[hosts])
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

    def record(self, eq, cold, iters):
        self.cold += int(cold)
        self.warm += int(not cold)
        self.newton_iters += int(iters)
        self.unconverged += int(not eq.converged)
        self.max_residual = max(self.max_residual, float(eq.residual))


@dataclass
class Equilibrium:
    """One sample's solved equilibrium."""

    x: np.ndarray               # (nV, 3) state
    residual: float             # free-node residual infinity norm
    converged: bool             # residual below the solve's tol
    loss: float                 # the sample's loss at x


class FitProblem:
    """Pose-matching loss and equilibrium plumbing shared across samples.

    The loss is the y2v objective of `op` (a transfer.Y2VOperator) at the
    sample's targets and yarn pose, so at the transferred pose it is the
    reconstruction optimum; its weights and Hessian are the operator's.
    It keeps the record of what a fit on it did: `stats` counts the
    equilibrium solves, `gate` holds a (sample, residual, ok) row per
    adjoint evaluation, `gauss_newton` counts the damping ladder's direction
    solves, the failed ones and the fallbacks to -grad, and `rows` holds
    the convergence rows.
    """

    def __init__(self, op, dt=1e-2):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.op = op
        self.mesh = op.mesh
        self.dt = dt
        self.stats = EquilibriumStats()
        self.gate = []
        self.gauss_newton = dict(solves=0, escalations=0, exhausted=0)
        self.rows = []

    @property
    def gate_violations(self):
        return sum(1 for _, _, ok in self.gate if not ok)

    def loss(self, x, sample):
        return self.op.objective(x, sample.targets, sample.yarn_pose)

    def loss_grad_x(self, x, sample):
        return self.op.gradient(x, sample.targets, sample.yarn_pose)

    def solve_equilibrium(self, gammas, sample, x0=None, tol=1e-6,
                          pd_iters=6, max_newton=60):
        """Quasi-static state under the sample loads, as an Equilibrium.

        A cold solve (x0 None) runs pd_iters proximal rounds from
        sample.x_init, then polishes with exact-Jacobian Newton.  A given
        x0 is a converged state of neighbouring coefficients: proximal
        rounds would only move it off the equilibrium for Newton to bring
        back, so the warm solve goes straight to Newton and takes at least
        one step, which moves x even when the start already meets tol.
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
        eq = Equilibrium(x, resid, ok, self.loss(x, sample))
        self.stats.record(eq, cold, iters)
        return eq

    def evaluate(self, gammas, samples, warm=None):
        """(summed loss, Equilibrium of each sample): cold solves, or warm
        ones from the records `warm` (one per sample)."""
        x0s = [None] * len(samples) if warm is None else [w.x for w in warm]
        eqs = [self.solve_equilibrium(gammas, s, x0=x0) for s, x0 in zip(samples, x0s)]
        return _total([e.loss for e in eqs]), eqs


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

    H: sp.csc_matrix          # exact equilibrium Jacobian, ridged if singular
    lu: spla.SuperLU          # the one LU of H: adjoint and spectral GN solves
    J: sp.csr_matrix          # residual derivative in gamma
    G: sp.csr_matrix          # loss Hessian (the sample's kept block)
    grad: np.ndarray          # loss gradient in gamma, length 2nE


def adjoint_gradient(problem, sample, gammas, eq):
    """One sample's loss gradient in the coefficients via one adjoint solve
    at its Equilibrium `eq`, gated on eq.residual and recorded in problem.gate.

    The equilibrium Jacobian carries the projection sensitivities; with
    the frozen-projection form the gradient has order-one error.  An
    exactly singular H gives way to H + kappa I, in the state too.
    """
    ok = eq.residual < EQ_GATE
    problem.gate.append((sample.index, eq.residual, ok))
    if not ok:
        raise EquilibriumGateError(
            f"adjoint evaluation rejected: residual {eq.residual:.3e} >= {EQ_GATE:g}")

    fdofs = sample.fdofs
    Hff = pdsolver.exact_elastic_hessian(problem.mesh, gammas, eq.x, fdofs)
    gx = problem.loss_grad_x(eq.x, sample).reshape(-1)[fdofs]
    try:
        lu = spla.splu(Hff)
        lam = lu.solve(gx)
    except RuntimeError:
        lam = None
    # SuperLU raises on an exact zero pivot; a tiny one can overflow lambda
    if lam is None or not np.isfinite(lam).all():
        kap = KAPPA_SCALE * Hff.diagonal().sum() / Hff.shape[0]
        log.warning("singular equilibrium Jacobian; adding %.3e ridge", kap)
        problem.stats.ridges += 1
        Hff = (Hff + kap * sp.eye(Hff.shape[0])).tocsc()
        lu = spla.splu(Hff)
        lam = lu.solve(gx)
    J = gamma_jacobian(problem.mesh, eq.x)[fdofs]
    grad = -(J.T @ lam)
    return AdjointState(H=Hff, lu=lu, J=J, G=sample.G, grad=grad)


def objective_gradient(problem, samples, gammas, equilibria):
    """Adjoint states at every sample's Equilibrium and the summed gradient."""
    states = [adjoint_gradient(problem, s, gammas, eq)
              for s, eq in zip(samples, equilibria)]
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
    """Gauss-Newton direction d of the summed loss, given one AdjointState
    per sample: (sum_k S_k^T G_k S_k + kappa I) d = -grad, S_k = H_k^-1 J_k.

    With a spectral `basis` (nE, r), S_k solves with the adjoint's LU of H_k
    (st.lu) and the 2r x 2r system is solved densely.  In the full space
    (basis None), d = (sum_k J_k^T v_k - grad) / kappa is eliminated from
    the SGN block system (Zehnder et al. 2021), leaving one sparse solve of
    size 2 sum_k n_k, with J the J_k stacked and H, G block diagonal:

        [ J J^T / kappa   H ] [v]   [ J grad / kappa ]
        [ H              -G ] [u] = [ 0              ]

    J J^T has the pattern of H.  kappa must be positive; it defaults to
    KAPPA_SCALE times the summed mean diagonals of the G_k.  `frozen` drops
    coefficient columns, d is zero there.  Returns (d, kappa, ok); ok False
    means a factorization failed or produced a non-descent direction and
    the caller should escalate kappa or fall back to the gradient.
    """
    if kappa is None:
        kappa = _total([KAPPA_SCALE * st.G.diagonal().mean() for st in states])
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    grad = _coords(basis, _total([st.grad for st in states]))
    keep = np.setdiff1d(np.arange(len(grad)), frozen)
    gk = grad[keep]
    Js = [_coords(basis, st.J)[:, keep] for st in states]
    try:
        if basis is not None:
            S = [st.lu.solve(Jk) for st, Jk in zip(states, Js)]
            P = _total([Sk.T @ (st.G @ Sk) for st, Sk in zip(states, S)])
            dk = np.linalg.solve(P + kappa * np.eye(len(keep)), -gk)
        else:
            J, H = sp.vstack(Js, format="csr"), sp.block_diag([st.H for st in states])
            G, n = sp.block_diag([st.G for st in states]), J.shape[0]
            lu = spla.splu(sp.bmat([[J @ J.T / kappa, H], [H, -G]], format="csc"))
            # SuperLU raises on exact zero pivots only; a singular H_k leaves tiny ones
            piv = np.abs(lu.U.diagonal())
            if piv.min() <= 1e-12 * piv.max():
                raise RuntimeError("numerically singular system")
            v = lu.solve(np.concatenate([J @ gk / kappa, np.zeros(n)]))[:n]
            dk = (J.T @ v - gk) / kappa
    except (RuntimeError, np.linalg.LinAlgError):
        return None, kappa, False
    if not np.all(np.isfinite(dk)):
        return None, kappa, False
    d = np.zeros(len(grad))
    d[keep] = dk
    # d = 0 at a stationary point is the valid homogeneous solution, not a
    # failed descent direction
    return d, kappa, not (np.any(gk) and float(d @ grad) >= 0.0)


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
class FitResult:
    """A fit's end point; each sample's adjoint state and its one LU stay behind."""

    gamma: np.ndarray          # stacked (2nE,)
    loss: float                # summed over the samples
    equilibria: list           # Equilibrium of each sample at gamma
    losses: list
    stalled: bool


def _gn_direction(problem, states, grad, kappa, basis, active):
    """Gauss-Newton direction with the damping ladder, zero on `active`.

    Up to five solves with `active` frozen, kappa times ten after each
    failed one, then -grad (`grad` is zero on `active`); problem.gauss_newton
    counts them.  The first call fixes the kappa every later iteration
    starts from.  Returns (d, kappa).
    """
    counts = problem.gauss_newton
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
               gd_iters=GD_ITERS, gn_iters=GN_ITERS, init_state=None):
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
    `init_state`, the (loss, equilibria) pair of gamma0, starts a stage
    exactly at the previous optimum.  Returns FitResult.
    """
    if not len(samples):
        raise ValueError("need at least one sample")

    def lift(d):
        # a direction in the stage's coordinates steps gamma by basis @ d per field
        r = len(d) // 2
        return d if basis is None else np.concatenate([basis @ d[:r], basis @ d[r:]])

    gamma = np.maximum(np.asarray(gamma0, dtype=float), mat.GAMMA_FLOOR)
    loss, eqs = (problem.evaluate(gamma.reshape(2, -1), samples) if init_state is None
                 else init_state)
    losses = [loss]
    stalled = False
    trial_eqs = None

    def eval_loss(trial):
        # every trial starts from the current states; safeguarded_update
        # accepts the last trial it evaluates, so its states are kept
        nonlocal trial_eqs
        val, trial_eqs = problem.evaluate(trial.reshape(2, -1), samples, eqs)
        return val if max(e.residual for e in trial_eqs) < EQ_GATE else np.inf

    kappa = None
    window = []
    states = None                   # adjoint states at the current point
    for phase, iters, step, tries in (("gd", gd_iters, GD_STEP, 1),
                                      ("gn", gn_iters, GN_STEP, MAX_HALVINGS + 1)):
        for it in range(iters):
            if states is None:
                states, grad_full = objective_gradient(
                    problem, samples, gamma.reshape(2, -1), eqs)
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
                d, kappa = _gn_direction(problem, states, grad, kappa, basis, active)
            gamma, loss, accepted, t = safeguarded_update(
                gamma, lift(d), step, eval_loss, loss, tries=tries)
            if accepted:
                eqs = trial_eqs
                states = None
            problem.rows.append(dict(phase=phase, iteration=it, loss=loss,
                                     step=step * t, grad_norm=gnorm))
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

    return FitResult(gamma=gamma, loss=loss, equilibria=eqs, losses=losses,
                     stalled=stalled)


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


def fit_staged(problem, samples, gamma0, *, ranks=STAGE_RANKS,
               gd_iters=GD_ITERS, gn_iters=GN_ITERS):
    """Coarse-to-fine fit of the summed loss through nested spectral
    subspaces.

    Each stage restricts the direction to the first `rank` harmonics per
    field, or not at all for rank None (the full per-element space).  Every
    stage after the first starts exactly at the previous stage's
    coefficients, loss and states, so stage-final losses can only decrease
    along the schedule.  Returns (FitResult, stage_losses dict); the
    result's `losses` run along the whole schedule, from the first stage's
    cold evaluation, and fit_sequence continues from its states.
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
                            gd_iters=gd_iters, gn_iters=gn_iters, init_state=start)
        stage_losses["full" if rk is None else f"r{rk}"] = result.loss
        losses += result.losses if start is None else result.losses[1:]
        gamma, start = result.gamma, (result.loss, result.equilibria)
    return replace(result, losses=losses), stage_losses


def fit_sequence(problem, samples, staged, *, gd_iters=GD_ITERS, gn_iters=GN_ITERS):
    """The fit's last pass: the full space once more from the FitResult
    `staged` of fit_staged, warm from its coefficients, loss and states, so
    it solves nothing cold.  It fails if GN stalled without lowering the
    loss, and its material is returned either way.  Returns ((2, nE) gamma,
    report dict)."""
    res = fit_sample(problem, samples, staged.gamma, gd_iters=gd_iters,
                     gn_iters=gn_iters, init_state=(staged.loss, staged.equilibria))
    progressed = res.losses[-1] < res.losses[0]
    failed = res.stalled and not progressed
    if failed:
        log.warning("the full-space pass stalled without progress")
    per_sample = [dict(index=s.index, loss=e.loss, stalled=res.stalled,
                       progressed=progressed) for s, e in zip(samples, res.equilibria)]
    return res.gamma.reshape(2, -1), dict(samples=per_sample, failed=failed)

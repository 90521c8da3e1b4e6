"""Inverse-material tests: loss, adjoint gradients, block Gauss-Newton,
safeguards, spectral staging, the summed objective over samples, and the
full-space pass."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import oracles
from volknit import fitting, material as mat, pdsolver, transfer, volmesh, yarn_model

DT = 1e-2


# ---------------------------------------------------------------------------
# scene builders


def make_scene(n, cell, gamma_pairs, stretch=0.12):
    """Wavy yarn in a voxel mesh, end vertices pinned, one end stretched.

    gamma_pairs is ((gs_left, gv_left), (gs_right, gv_right)); the truth
    field splits at the x midpoint of the element centers.
    """
    t = np.linspace(0.0, 1.0, n)
    pts = np.c_[0.8 * t, 0.05 * np.sin(7 * t), 0.04 * np.cos(5 * t)]
    yarn = yarn_model.YarnModel(pts, [list(range(n))], linear_density=0.01)
    mesh = volmesh.voxelize(yarn, cell)
    emb = volmesh.embed_yarn(mesh, yarn)
    volmesh.lump_mass(mesh, yarn, emb)

    centers = mesh.nodes[mesh.tets].mean(axis=1)
    xm = 0.5 * (centers[:, 0].min() + centers[:, 0].max())
    right = centers[:, 0] > xm
    (gsl, gvl), (gsr, gvr) = gamma_pairs
    gam_true = np.array([np.where(right, gsr, gsl), np.where(right, gvr, gvl)], dtype=float)

    end_verts = np.array([0, 1, n - 2, n - 1])
    pins = np.unique(mesh.tets[emb.host_elem[end_verts]])
    pin_vals = mesh.nodes[pins].copy()
    moved = pin_vals[:, 0] > xm
    pin_vals[moved, 0] += stretch * 0.8

    return dict(yarn=yarn, mesh=mesh, emb=emb, gam_true=gam_true,
                pins=pins, pin_vals=pin_vals, end_verts=end_verts)


def equilibrate(mesh, gam, pins, pin_vals, tol=1e-10):
    x0 = mesh.nodes.copy()
    x0[pins] = pin_vals
    zero = np.zeros_like(x0)
    x = pdsolver.pd_equilibrium(mesh, gam, zero, x0, pins, pin_vals, DT,
                                iterations=8)
    x, ok, _, _ = pdsolver.newton_polish(
        mesh, gam, x, dt=DT, pins=pins, pin_vals=pin_vals,
        inertia_target=zero, tol=tol, max_iters=150)
    assert ok
    return x


def synthetic_sample(scene, index=0):
    """Sample whose targets are exactly the truth equilibrium (loss 0 at
    the generating field)."""
    mesh, emb = scene["mesh"], scene["emb"]
    xstar = equilibrate(mesh, scene["gam_true"], scene["pins"],
                        scene["pin_vals"], tol=1e-11)
    F = mesh.deformation_gradients(xstar.reshape(-1))
    targets = transfer.TargetDeformation(
        per_element_f=F.copy(), covered=np.ones(mesh.n_elements, bool))
    pose = emb.interp @ xstar
    sample = fitting.FitSample(
        index=index, yarn_pose=pose, targets=targets,
        inertia=np.zeros_like(xstar), pins=scene["pins"],
        pin_vals=scene["pin_vals"].copy(), x_init=xstar.copy(),
        op=scene["problem"].op)
    return sample, xstar


def lighter_stretch_sample(scene, stretch=0.05, index=1):
    """A second synthetic sample of the scene: the moved pins travel
    `stretch` instead of the scene's stretch."""
    pin_vals = scene["mesh"].nodes[scene["pins"]].copy()
    moved = scene["pin_vals"][:, 0] != pin_vals[:, 0]
    pin_vals[moved, 0] += stretch * 0.8
    return synthetic_sample(dict(scene, pin_vals=pin_vals), index=index)[0]


def loss_at(problem, sample, gvec, tol=1e-10, warm=None):
    x, resid, ok = problem.solve_equilibrium(
        gvec.reshape(2, -1), sample, x0=sample.x_init if warm is None else warm,
        tol=tol, pd_iters=4, max_newton=150)
    assert ok, f"equilibrium stalled at residual {resid:.3e}"
    return problem.loss(x, sample)


def fd_gamma_gradient(problem, sample, gvec, h=1e-3):
    # h near sqrt(eps)*scale is too small here: the loss differences fall
    # into solver noise, so the oracle uses a coarser step
    g = np.empty_like(gvec)
    for j in range(len(gvec)):
        e = np.zeros_like(gvec)
        e[j] = h
        g[j] = (loss_at(problem, sample, gvec + e)
                - loss_at(problem, sample, gvec - e)) / (2.0 * h)
    return g


@pytest.fixture(scope="module")
def scene():
    sc = make_scene(24, 0.09, ((3.0, 2.0), (12.0, 6.0)))
    sc["problem"] = fitting.FitProblem(
        transfer.Y2VOperator(sc["mesh"], sc["emb"], sc["yarn"]), dt=DT)
    sc["sample"], sc["xstar"] = synthetic_sample(sc)
    return sc


@pytest.fixture(scope="module")
def small_scene():
    sc = make_scene(16, 0.3, ((3.0, 2.0), (12.0, 6.0)))
    sc["problem"] = fitting.FitProblem(
        transfer.Y2VOperator(sc["mesh"], sc["emb"], sc["yarn"]), dt=DT)
    sc["sample"], sc["xstar"] = synthetic_sample(sc)
    return sc


@pytest.fixture(scope="module")
def uniform_scene():
    """Uniform truth with realistic targets estimated from the yarn pose."""
    sc = make_scene(20, 0.15, ((8.0, 4.0), (8.0, 4.0)))
    mesh, emb, yarn = sc["mesh"], sc["emb"], sc["yarn"]
    op = transfer.Y2VOperator(mesh, emb, yarn)
    xstar = equilibrate(mesh, sc["gam_true"], sc["pins"], sc["pin_vals"],
                        tol=1e-11)
    pose = emb.interp @ xstar
    sample = fitting.build_sample(op, [pose], 0, yarn_pins=sc["end_verts"])
    sc["op"] = op
    sc["problem"] = fitting.FitProblem(op, dt=DT)
    sc["sample"] = sample
    sc["xstar"] = xstar
    return sc


def single_tet_problem():
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = volmesh.VolumeMesh(
        nodes=nodes, tets=np.array([[0, 1, 2, 3]]), cell_size=1.0,
        origin=np.zeros(3), voxels=np.zeros((1, 3), dtype=int),
        tet_voxel=np.zeros(1, dtype=int),
    )
    mesh.node_mass = np.full(4, 0.1)
    emb = type("E", (), {})()
    emb.interp = sp.csr_matrix(np.full((1, 4), 0.25))
    emb.yarn_mass = np.array([0.05])
    return mesh, fitting.FitProblem(transfer.Y2VOperator(mesh, emb, None), dt=DT)


# ---------------------------------------------------------------------------
# loss


class TestLoss:
    def test_same_functional_as_reconstruction(self, uniform_scene):
        op, problem = uniform_scene["op"], uniform_scene["problem"]
        yarn = uniform_scene["yarn"]
        t = np.linspace(0.0, 1.0, len(yarn.rest_vertices))
        pose = yarn.rest_vertices + 0.03 * np.c_[t, np.sin(3 * t), np.cos(2 * t)]
        x_rec, targets = op.transfer(pose)
        sample = fitting.FitSample(
            index=0, yarn_pose=pose, targets=targets,
            inertia=np.zeros_like(x_rec), pins=np.empty(0, int),
            pin_vals=np.zeros((0, 3)), x_init=x_rec, op=op)
        a = problem.loss(x_rec, sample)
        b = op.objective(x_rec, targets, pose)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_rigid_pair_zero(self, uniform_scene, rng):
        mesh, emb = uniform_scene["mesh"], uniform_scene["emb"]
        problem = uniform_scene["problem"]
        th = 0.7
        Q = np.array([[np.cos(th), -np.sin(th), 0],
                      [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
        tr_vec = np.array([0.3, -0.1, 0.2])
        x = mesh.nodes @ Q.T + tr_vec
        pose = np.asarray(emb.interp @ x)
        targets = transfer.TargetDeformation(
            per_element_f=np.broadcast_to(Q, (mesh.n_elements, 3, 3)).copy(),
            covered=np.ones(mesh.n_elements, bool))
        sample = fitting.FitSample(
            index=0, yarn_pose=pose, targets=targets,
            inertia=np.zeros_like(x), pins=np.empty(0, int),
            pin_vals=np.zeros((0, 3)), x_init=x, op=problem.op)
        assert problem.loss(x, sample) < 1e-18

    def test_term_by_term_oracle(self, uniform_scene, rng):
        # realistic sample: covered and fill targets weighted alike
        problem, sample = uniform_scene["problem"], uniform_scene["sample"]
        mesh = problem.mesh
        x = mesh.nodes + 0.01 * rng.standard_normal(mesh.nodes.shape)
        F = mesh.deformation_gradients(x.reshape(-1))
        total = 0.0
        for e in range(mesh.n_elements):
            d = F[e] - sample.targets.per_element_f[e]
            total += mesh.volume[e] * np.sum(d * d)
        r = problem.op.embedding.interp @ x - sample.yarn_pose
        for k in range(len(sample.yarn_pose)):
            total += problem.op.alpha * problem.op.embedding.yarn_mass[k] ** 2 \
                * np.sum(r[k] ** 2)
        got = problem.loss(x, sample)
        assert abs(got - total) <= 1e-12 * max(1.0, abs(total))

    def test_nonnegative(self, scene, rng):
        problem, sample = scene["problem"], scene["sample"]
        for _ in range(5):
            x = problem.mesh.nodes + 0.05 * rng.standard_normal(
                problem.mesh.nodes.shape)
            assert problem.loss(x, sample) >= 0.0

    def test_loss_grad_x_matches_fd(self, small_scene, rng):
        problem, sample = small_scene["problem"], small_scene["sample"]
        mesh = problem.mesh
        x = mesh.nodes + 0.01 * rng.standard_normal(mesh.nodes.shape)
        g = problem.loss_grad_x(x, sample)
        h = 1e-6
        for _ in range(12):
            i = rng.integers(mesh.n_nodes)
            j = rng.integers(3)
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            fd = (problem.loss(xp, sample) - problem.loss(xm, sample)) / (2 * h)
            assert abs(fd - g[i, j]) <= 1e-5 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# sample construction


class TestBuildSample:
    def test_static_sample(self, uniform_scene):
        op = uniform_scene["op"]
        yarn = uniform_scene["yarn"]
        ends = uniform_scene["end_verts"]
        s = fitting.build_sample(op, [yarn.rest_vertices.copy()], 0, yarn_pins=ends)
        assert np.all(s.inertia == 0.0)
        hosts = op.embedding.host_elem[ends]
        assert np.array_equal(s.pins, np.unique(op.mesh.tets[hosts]))
        assert np.allclose(s.pin_vals, s.x_init[s.pins])
        assert s.targets.covered.any()

    def test_dynamic_inertia_matches_direct_estimate(self, uniform_scene):
        op = uniform_scene["op"]
        yarn = uniform_scene["yarn"]
        delta = np.array([0.002, 0.0, 0.001])
        frames = [yarn.rest_vertices.copy(), yarn.rest_vertices + delta,
                  yarn.rest_vertices + 2.5 * delta]
        s = fitting.build_sample(op, frames, 2, dt=DT)
        seq = type("S", (), {})()
        seq.frames = frames
        seq.dt = DT
        a = transfer.estimate_inertia(op, seq, 2,
                                      yarn_force=np.zeros_like(frames[2]))
        assert np.array_equal(s.inertia, a)

    def test_static_when_dt_missing(self, uniform_scene):
        op = uniform_scene["op"]
        yarn = uniform_scene["yarn"]
        frames = [yarn.rest_vertices.copy()] * 3
        s = fitting.build_sample(op, frames, 2)   # no dt -> static
        assert np.all(s.inertia == 0.0)

    def test_kept_free_dofs_and_loss_hessian_block(self, uniform_scene):
        # the dense Kronecker expansion of the y2v matrix, restricted to the
        # DOFs of the unpinned nodes
        op, s = uniform_scene["op"], uniform_scene["sample"]
        free = [n for n in range(op.mesh.n_nodes) if n not in set(s.pins)]
        dofs = np.array([3 * n + c for n in free for c in range(3)])
        assert np.array_equal(s.fdofs, dofs)
        dense = np.kron(op.matrix().toarray(), np.eye(3))
        assert np.array_equal(s.G.toarray(), dense[np.ix_(dofs, dofs)])

    def test_nonfinite_inertia_rejected(self, uniform_scene):
        s = uniform_scene["sample"]
        bad = s.inertia.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="inertia"):
            fitting.FitSample(index=0, yarn_pose=s.yarn_pose,
                              targets=s.targets, inertia=bad, pins=s.pins,
                              pin_vals=s.pin_vals, x_init=s.x_init,
                              op=uniform_scene["op"])

    def test_empty_coverage_rejected(self, uniform_scene):
        s = uniform_scene["sample"]
        t = transfer.TargetDeformation(
            per_element_f=s.targets.per_element_f,
            covered=np.zeros_like(s.targets.covered))
        with pytest.raises(ValueError, match="covers no"):
            fitting.FitSample(index=0, yarn_pose=s.yarn_pose, targets=t,
                              inertia=s.inertia, pins=s.pins,
                              pin_vals=s.pin_vals, x_init=s.x_init,
                              op=uniform_scene["op"])


# ---------------------------------------------------------------------------
# equilibrium solves


class TestSolveEquilibrium:
    def test_warm_solve_moves_a_converged_state(self, scene):
        # coefficients moved by 1e-9 relative leave the converged state
        # within tol of the new equilibrium; the warm solve still steps
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        g = scene["gam_true"] * np.linspace(0.8, 1.2, 2 * nE).reshape(2, -1)
        x, resid, ok = problem.solve_equilibrium(g, sample)
        assert ok and resid < 1e-6
        before = fitting.EquilibriumStats(**vars(problem.stats))
        x2, resid2, ok2 = problem.solve_equilibrium(
            g * (1.0 + 1e-9), sample, x0=x)
        assert ok2 and resid2 < 1e-6
        assert not np.array_equal(x2, x)
        st = problem.stats
        assert (st.cold, st.warm) == (before.cold, before.warm + 1)
        assert st.newton_iters >= before.newton_iters + 1

    def test_cold_solve_keeps_its_proximal_rounds(self, scene, monkeypatch):
        problem, sample = scene["problem"], scene["sample"]
        calls = []
        pd_eq = pdsolver.pd_equilibrium
        monkeypatch.setattr(pdsolver, "pd_equilibrium",
                            lambda *a, **k: calls.append(1) or pd_eq(*a, **k))
        x, _, _ = problem.solve_equilibrium(scene["gam_true"], sample)
        problem.solve_equilibrium(scene["gam_true"], sample, x0=x)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# adjoint gradient


class TestGammaJacobian:
    def test_columns_are_unit_coefficient_gradients(self, small_scene, rng):
        # the residual is linear in the coefficients, so each column is the
        # elastic gradient at that unit coefficient up to rounding
        mesh = small_scene["mesh"]
        nE = mesh.n_elements
        x = small_scene["xstar"] + 0.02 * rng.standard_normal(mesh.nodes.shape)
        J = fitting.gamma_jacobian(mesh, x).toarray()
        assert J.shape == (3 * mesh.n_nodes, 2 * nE)
        for col in range(2 * nE):
            unit = np.zeros(2 * nE)
            unit[col] = 1.0
            g = pdsolver.elastic_gradient(
                mesh, unit.reshape(2, -1), x).reshape(-1)
            assert np.abs(J[:, col] - g).max() <= 1e-14 * np.abs(g).max()


class TestAdjointGradient:
    def test_matches_central_differences(self, small_scene):
        problem, sample = small_scene["problem"], small_scene["sample"]
        nE = problem.mesh.n_elements
        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
        gf = g0.reshape(2, -1)
        x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-10,
                                                 max_newton=150)
        assert ok
        state = fitting.adjoint_gradient(problem, sample, gf, x,
                                         residual=resid)
        fd = fd_gamma_gradient(problem, sample, g0)
        rel = np.linalg.norm(state.grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-3
        assert rel < 1e-5          # typically far tighter than the contract

    def test_stationary_at_generating_field(self, scene):
        problem, sample = scene["problem"], scene["sample"]
        gf = scene["gam_true"]
        x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-9)
        assert ok
        state = fitting.adjoint_gradient(problem, sample, gf, x,
                                         residual=resid)
        assert np.linalg.norm(state.grad) < 1e-6

    def test_single_element_chain_rule(self):
        mesh, problem = single_tet_problem()
        pins = np.array([0, 1, 2])
        pin_vals = mesh.nodes[pins] * np.array([1.08, 0.97, 1.0])
        Ft = np.eye(3)
        Ft[0, 0] = 1.05
        Ft[1, 1] = 0.96
        targets = transfer.TargetDeformation(
            per_element_f=Ft[None], covered=np.ones(1, bool))
        pose = np.array([[0.3, 0.28, 0.27]])
        sample = fitting.FitSample(
            index=0, yarn_pose=pose, targets=targets,
            inertia=np.zeros((4, 3)), pins=pins, pin_vals=pin_vals,
            x_init=np.vstack([pin_vals, mesh.nodes[3]]), op=problem.op)
        g0 = np.array([3.0, 1.5])
        gf = g0.reshape(2, -1)
        x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-12)
        assert ok
        state = fitting.adjoint_gradient(problem, sample, gf, x,
                                         residual=resid)
        fd = fd_gamma_gradient(problem, sample, g0, h=1e-4)
        assert np.allclose(state.grad, fd, rtol=1e-6, atol=1e-12)

    def test_alpha_scales_regularizer(self, small_scene, rng):
        mesh, emb = small_scene["mesh"], small_scene["emb"]
        sample, yarn = small_scene["sample"], small_scene["yarn"]
        p1 = fitting.FitProblem(transfer.Y2VOperator(mesh, emb, yarn, alpha=0.1), dt=DT)
        p2 = fitting.FitProblem(transfer.Y2VOperator(mesh, emb, yarn, alpha=0.2), dt=DT)
        x = mesh.nodes + 0.01 * rng.standard_normal(mesh.nodes.shape)
        g1 = p1.loss_grad_x(x, sample)
        g2 = p2.loss_grad_x(x, sample)
        r = emb.interp @ x - sample.yarn_pose
        anchor = 2.0 * 0.1 * (emb.interp.T @ (emb.yarn_mass[:, None]**2 * r))
        assert np.allclose(g2 - g1, anchor, rtol=1e-12, atol=1e-14)

    def test_adjoint_tracks_alpha(self, small_scene):
        # doubled regularizer weight changes lambda; FD must still agree
        mesh, emb = small_scene["mesh"], small_scene["emb"]
        sample, yarn = small_scene["sample"], small_scene["yarn"]
        p2 = fitting.FitProblem(transfer.Y2VOperator(mesh, emb, yarn, alpha=0.2), dt=DT)
        nE = mesh.n_elements
        g0 = np.concatenate([np.full(nE, 2.5), np.full(nE, 3.5)])
        gf = g0.reshape(2, -1)
        x, resid, ok = p2.solve_equilibrium(gf, sample, tol=1e-10,
                                            max_newton=150)
        assert ok
        state = fitting.adjoint_gradient(p2, sample, gf, x, residual=resid)
        fd = fd_gamma_gradient(p2, sample, g0)
        rel = np.linalg.norm(state.grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-3

    def test_gate_rejects_bad_equilibrium(self, scene):
        problem, sample = scene["problem"], scene["sample"]
        lg = fitting.FitLogger()
        with pytest.raises(fitting.EquilibriumGateError):
            fitting.adjoint_gradient(problem, sample, scene["gam_true"],
                                     sample.x_init, residual=1.0, logger=lg)
        assert lg.gate_violations == 1
        # clean evaluations pass and are logged as such
        x, resid, ok = problem.solve_equilibrium(scene["gam_true"], sample)
        fitting.adjoint_gradient(problem, sample, scene["gam_true"], x,
                                 residual=resid, logger=lg)
        assert lg.gate_violations == 1
        assert len(lg.gate) == 2

    def test_failed_solve_retries_with_a_counted_ridge(self, small_scene, monkeypatch):
        # spsolve reports an exactly singular matrix by raising or, with a
        # MatrixRankWarning, by an all-NaN result; either retries on H + kI
        problem, sample = small_scene["problem"], small_scene["sample"]
        nE = problem.mesh.n_elements
        gf = oracles.uniform(nE, 2.0, 4.0)
        x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-10, max_newton=150)
        assert ok
        plain = fitting.adjoint_gradient(problem, sample, gf, x, residual=resid).grad
        spsolve = fitting.spla.spsolve
        for failure in ("raises", "nan"):
            calls = []

            def first_fails(*args, **kw):
                calls.append(1)
                if len(calls) > 1:
                    return spsolve(*args, **kw)
                if failure == "raises":
                    raise RuntimeError("Factor is exactly singular")
                return np.full(args[1].shape, np.nan)

            monkeypatch.setattr(fitting.spla, "spsolve", first_fails)
            before = problem.stats.ridges
            state = fitting.adjoint_gradient(problem, sample, gf, x, residual=resid)
            assert problem.stats.ridges == before + 1, failure
            assert len(calls) == 2, failure
            assert np.all(np.isfinite(state.grad)), failure
            # the ridge is KAPPA_SCALE times the mean diagonal: a small nudge
            assert np.linalg.norm(state.grad - plain) < 1e-4 * np.linalg.norm(plain), failure


# ---------------------------------------------------------------------------
# Gauss-Newton direction


class TestGaussNewton:
    def _state(self, sc, gvec):
        problem, sample = sc["problem"], sc["sample"]
        gf = gvec.reshape(2, -1)
        x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-10,
                                                 max_newton=150)
        assert ok
        return fitting.adjoint_gradient(problem, sample, gf, x, residual=resid)

    def test_matches_dense_oracle(self, small_scene):
        problem, sample = small_scene["problem"], small_scene["sample"]
        assert problem.mesh.n_elements <= 60   # dense oracle feasibility
        nE = problem.mesh.n_elements
        state = self._state(small_scene,
                            np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)]))
        d, kappa, ok = fitting.adjoint_gauss_newton([state])
        assert ok
        dense = oracles.dense_gauss_newton_direction([state], kappa)
        rel = np.linalg.norm(d - dense) / np.linalg.norm(dense)
        assert rel < 1e-6
        assert float(d @ state.grad) < 0.0

    def test_zero_gradient_zero_direction(self, small_scene):
        problem, sample = small_scene["problem"], small_scene["sample"]
        state = self._state(small_scene, small_scene["gam_true"])
        if np.linalg.norm(state.grad) > 0.0:
            # drive the gradient to exact zero: stationarity modulo the
            # last bits of the equilibrium solve
            state.grad = np.zeros_like(state.grad)
        d, _, ok = fitting.adjoint_gauss_newton([state])
        assert ok
        assert np.linalg.norm(d) == 0.0

    def test_identity_weight_is_damped_least_squares(self, small_scene):
        problem = small_scene["problem"]
        nE = problem.mesh.n_elements
        state = self._state(small_scene,
                            np.concatenate([np.full(nE, 3.0), np.full(nE, 2.0)]))
        state = replace(state, G=sp.eye(state.H.shape[0], format="csr"))
        kappa = 1e-6
        d, _, ok = fitting.adjoint_gauss_newton([state], kappa=kappa)
        assert ok
        dense = oracles.dense_gauss_newton_direction([state], kappa)
        assert np.linalg.norm(d - dense) / np.linalg.norm(dense) < 1e-8

    def test_reduced_direction(self, small_scene):
        problem, sample = small_scene["problem"], small_scene["sample"]
        nE = problem.mesh.n_elements
        state = self._state(small_scene,
                            np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)]))
        H = fitting.harmonic_basis(problem.mesh, 5)
        d, _, ok = fitting.adjoint_gauss_newton([state], basis=H)
        assert ok and d.shape == (10,)
        grad_red = np.concatenate([H.T @ state.grad[:nE],
                                   H.T @ state.grad[nE:]])
        assert float(d @ grad_red) < 0.0


# ---------------------------------------------------------------------------
# safeguarded stepping


class TestSafeguardedUpdate:
    def test_zero_direction_no_change(self):
        gamma = np.array([1.0, 2.0])
        out, val, accepted, t = fitting.safeguarded_update(
            gamma, np.zeros(2), 1.0, lambda g: float(np.sum(g**2)), 5.0)
        assert np.array_equal(out, gamma)
        assert not accepted and t == 0.0

    def test_trial_projected_onto_floor(self):
        # one entry goes negative, one lands in (0, floor); both end on it
        gamma = np.array([1.0, 0.5, 1.0 + 0.5 * mat.GAMMA_FLOOR])
        d = np.array([0.0, -1.0, -1.0])
        out, val, accepted, t = fitting.safeguarded_update(
            gamma, d, 1.0, lambda g: float(np.sum(g)), 10.0)
        assert accepted and t == 1.0
        assert np.array_equal(out, [1.0, mat.GAMMA_FLOOR, mat.GAMMA_FLOOR])

    def test_quadratic_converges_to_minimizer(self, rng):
        n = 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(np.linspace(0.5, 2.5, n)) @ Q.T
        gstar = 1.0 + rng.random(n)
        f = lambda g: 0.5 * float((g - gstar) @ A @ (g - gstar))
        gamma = gstar + 0.8 * rng.standard_normal(n)
        val = f(gamma)
        for _ in range(300):
            d = -(A @ (gamma - gstar))
            gamma, val, accepted, _ = fitting.safeguarded_update(
                gamma, d, 1.0, f, val)
            if not accepted and np.linalg.norm(d) < 1e-9:
                break
        assert np.abs(gamma - gstar).max() < 1e-6

    def test_rejects_after_max_halvings(self):
        gamma = np.array([1.0])
        out, val, accepted, t = fitting.safeguarded_update(
            gamma, np.array([1.0]), 1.0, lambda g: 100.0, 1.0)
        assert not accepted
        assert np.array_equal(out, gamma)


# ---------------------------------------------------------------------------
# single-sample fitting


class TestFitSample:
    def test_immediate_termination_at_truth(self, scene):
        problem, sample = scene["problem"], scene["sample"]
        g0 = scene["gam_true"].reshape(-1)
        res = fitting.fit_sample(problem, [sample], g0)
        assert len(res.losses) == 1
        assert not res.stalled
        assert res.loss < 1e-15
        assert np.allclose(res.gamma, g0, rtol=0, atol=1e-12)

    def test_two_material_recovery(self, scene):
        # fit from scratch through the staged schedule; the flat two-phase
        # budget alone lands near 1e-3, the schedule goes well past it
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
        initial = loss_at(problem, sample, g0)
        lg = fitting.FitLogger()
        res, _ = fitting.fit_staged(problem, [sample], g0, logger=lg)
        assert res.loss <= 1e-3 * initial
        assert np.all(res.gamma >= 0.0)
        assert lg.gate_violations == 0
        # the running loss never increases, and every accepted step
        # strictly decreases it
        prev = None
        for row in lg.rows:
            if prev is not None:
                assert row["loss"] <= prev
                if row["step"] > 0.0:
                    assert row["loss"] < prev
            prev = row["loss"]

    def test_trial_missing_the_gate_is_a_failed_halving(self, scene,
                                                         monkeypatch):
        # the first GN trial reports a residual above the gate with a loss
        # below the current one; accepting it would make the next adjoint
        # gradient raise, so the search must halve past it
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        solve = problem.solve_equilibrium
        trials = []

        def stub(gammas, sample_, x0=None, **kw):
            if x0 is not None and x0 is not sample_.x_init:
                trials.append(1)
                if len(trials) == 1:
                    return scene["xstar"].copy(), 2.0 * fitting.EQ_GATE, False
            return solve(gammas, sample_, x0=x0, **kw)

        monkeypatch.setattr(problem, "solve_equilibrium", stub)
        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
        lg = fitting.FitLogger()
        res = fitting.fit_sample(problem, [sample], g0, gd_iters=0, gn_iters=2,
                                 logger=lg)
        assert len(trials) > 1
        assert lg.gate_violations == 0
        assert all(r < fitting.EQ_GATE for _, r, _ in lg.gate)
        assert lg.rows[0]["phase"] == "gn"
        assert 0.0 < lg.rows[0]["step"] < fitting.GN_STEP
        assert max(res.resids) < fitting.EQ_GATE

    def test_rejected_gd_step_hands_its_adjoint_state_to_gn(self, scene,
                                                             monkeypatch):
        # GD's one trial misses the gate, so GD ends where it started and GN
        # starts from its adjoint state instead of recomputing it
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
        calls = []
        adjoint = fitting.adjoint_gradient

        def counted(*args, **kw):
            calls.append(1)
            return adjoint(*args, **kw)

        monkeypatch.setattr(fitting, "adjoint_gradient", counted)
        ref = fitting.fit_sample(problem, [sample], g0, gd_iters=0, gn_iters=3)
        n_ref = len(calls)

        solve = problem.solve_equilibrium
        missed = []

        def stub(gammas, sample_, x0=None, **kw):
            if x0 is not None and not missed:
                missed.append(1)
                return x0.copy(), 2.0 * fitting.EQ_GATE, False
            return solve(gammas, sample_, x0=x0, **kw)

        monkeypatch.setattr(problem, "solve_equilibrium", stub)
        calls.clear()
        lg = fitting.FitLogger()
        res = fitting.fit_sample(problem, [sample], g0, gd_iters=2, gn_iters=3,
                                 logger=lg)
        assert [(r["phase"], r["step"]) for r in lg.rows[:2]] == [("gd", 0.0), ("gn", 1.0)]
        assert len(calls) == len(lg.gate) == n_ref
        for name in ("gamma", "xs"):
            assert np.array_equal(getattr(res, name), getattr(ref, name))
        assert (res.loss, res.resids, res.stalled) == (ref.loss, ref.resids, ref.stalled)
        # the rejected GD step logs the start's loss once more
        assert res.losses == ref.losses[:1] + ref.losses

    def test_beats_scalar_material_oracle(self, uniform_scene):
        problem, sample = uniform_scene["problem"], uniform_scene["sample"]
        nE = problem.mesh.n_elements

        def scalar_loss(z):
            if np.abs(z).max() > 4.0:       # keep the sweep well-conditioned
                return 1e9
            g = np.concatenate([np.full(nE, np.exp(z[0])),
                                np.full(nE, np.exp(z[1]))])
            return loss_at(problem, sample, g, tol=1e-8)

        z0 = np.log([8.0, 4.0])
        opt = scipy.optimize.minimize(scalar_loss, z0, method="Nelder-Mead",
                                      options=dict(xatol=1e-6, fatol=1e-14,
                                                   maxiter=200))
        oracle = min(opt.fun, scalar_loss(z0))

        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 6.0)])
        res, stages = fitting.fit_staged(problem, [sample], g0)
        assert res.loss <= oracle * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# spectral basis and staging


class TestHarmonicBasis:
    def test_orthonormal_first_constant(self, scene):
        mesh = scene["mesh"]
        H = fitting.harmonic_basis(mesh, 12)
        assert np.abs(H.T @ H - np.eye(12)).max() < 1e-8
        nE = mesh.n_elements
        assert np.allclose(H[:, 0], 1.0 / np.sqrt(nE), atol=1e-12)

    def test_nested_prefixes(self, scene):
        mesh = scene["mesh"]
        H10 = fitting.harmonic_basis(mesh, 10)
        H30 = fitting.harmonic_basis(mesh, 30)
        assert np.allclose(H30[:, :10], H10, atol=1e-10)

    def test_sparse_eigensolver_basis_is_deterministic(self):
        # above 1,500 elements the basis comes from ARPACK, whose own start
        # vector is random: two builds in one process must agree
        model = yarn_model.rib_patch(courses=25, wales=200, course_spacing=0.005,
                                     wale_spacing=0.005, amplitude=0.002, rib_period=4)
        mesh = volmesh.voxelize(model, 0.03)
        assert mesh.n_elements > 1500
        assert np.array_equal(fitting.harmonic_basis(mesh, 10),
                              fitting.harmonic_basis(mesh, 10))

    def test_rank_capped_at_element_count(self, scene):
        mesh = scene["mesh"]
        H = fitting.harmonic_basis(mesh, mesh.n_elements + 50)
        assert H.shape == (mesh.n_elements, mesh.n_elements)

    def test_projection_consistency(self, small_scene):
        problem, sample = small_scene["problem"], small_scene["sample"]
        nE = problem.mesh.n_elements
        r = 6
        H = fitting.harmonic_basis(problem.mesh, r)
        q0 = np.zeros(2 * r)
        q0[0] = 3.0 * np.sqrt(nE)        # dominant constant keeps gamma > 0
        q0[r] = 2.0 * np.sqrt(nE)
        q0[1:r] = 0.05
        q0[r + 1:] = 0.05
        gvec = np.concatenate([H @ q0[:r], H @ q0[r:]])
        assert gvec.min() > 0.5

        gf = gvec.reshape(2, -1)
        x, resid, ok = problem.solve_equilibrium(gf, sample, tol=1e-10,
                                                 max_newton=150)
        assert ok
        state = fitting.adjoint_gradient(problem, sample, gf, x,
                                         residual=resid)
        # chain-rule identity against the full-space gradient
        red = np.concatenate([H.T @ state.grad[:nE], H.T @ state.grad[nE:]])

        def loss_q(q):
            g = np.concatenate([H @ q[:r], H @ q[r:]])
            return loss_at(problem, sample, g)

        h = 1e-3
        fd = np.empty(2 * r)
        for j in range(2 * r):
            e = np.zeros(2 * r)
            e[j] = h
            fd[j] = (loss_q(q0 + e) - loss_q(q0 - e)) / (2 * h)
        assert np.linalg.norm(red - fd) / np.linalg.norm(fd) < 1e-5


class TestStaging:
    def test_monotone_stage_losses(self, scene):
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
        lg = fitting.FitLogger()
        res, stages = fitting.fit_staged(problem, [sample], g0, logger=lg)
        assert stages["full"] <= stages["r30"] <= stages["r10"] <= stages["r1"]
        assert res.loss == stages["full"]
        assert lg.gate_violations == 0

    def test_every_stage_starts_at_the_previous_optimum(self, scene):
        # a basis only restricts the direction, so even after a finer stage
        # the r1 stage takes over its coefficients, loss and states
        problem, sample = scene["problem"], scene["sample"]
        g0 = scene["gam_true"].reshape(-1)
        for ranks in ((None, 1), (10, 1)):
            res, stages = fitting.fit_staged(problem, [sample], g0, ranks=ranks,
                                             gd_iters=0, gn_iters=0)
            first, last = stages.values()
            assert last == first and res.losses == [first]
            assert np.array_equal(res.gamma, np.maximum(g0, mat.GAMMA_FLOOR))

    def test_r1_recovers_uniform_truth(self, uniform_scene):
        problem, sample = uniform_scene["problem"], uniform_scene["sample"]
        nE = problem.mesh.n_elements
        ref = loss_at(problem, sample, uniform_scene["gam_true"].reshape(-1),
                      tol=1e-9)
        g0 = np.concatenate([np.full(nE, 24.0), np.full(nE, 1.6)])
        res, stages = fitting.fit_staged(problem, [sample], g0, ranks=(1,))
        assert stages["r1"] <= 1.05 * ref


# ---------------------------------------------------------------------------
# the summed objective over samples


@pytest.fixture(scope="module")
def two_samples(small_scene):
    return [small_scene["sample"], lighter_stretch_sample(small_scene)]


class TestSummedObjective:
    G0 = (2.0, 4.0)

    def _field(self, problem):
        return oracles.uniform(problem.mesh.n_elements, *self.G0)

    def test_loss_and_gradient_are_the_per_sample_sums(self, small_scene,
                                                       two_samples):
        problem = small_scene["problem"]
        gf = self._field(problem)
        loss, xs, resids = problem.evaluate(gf, two_samples)
        states, grad = fitting.objective_gradient(problem, two_samples, gf,
                                                  xs, resids)
        singles = []
        for s in two_samples:
            loss_k, xs_k, resids_k = problem.evaluate(gf, [s])
            singles.append((loss_k, fitting.objective_gradient(
                problem, [s], gf, xs_k, resids_k)[1]))
            assert loss_k == problem.loss(xs_k[0], s)
        (la, ga), (lb, gb) = singles
        assert la > 0.0 and lb > 0.0
        assert loss == la + lb
        assert np.array_equal(grad, ga + gb)
        assert np.array_equal(grad, states[0].grad + states[1].grad)

    def _floored(self, problem, samples):
        """A full-space point with a third of each field on the floor: its
        adjoint states, its gradient zeroed on the fit's active set (the
        floored coefficients with a positive gradient), and that set."""
        gf = self._field(problem)
        gf[0, ::3] = gf[1, 1::3] = mat.GAMMA_FLOOR
        _, xs, resids = problem.evaluate(gf, samples)
        states, grad = fitting.objective_gradient(problem, samples, gf, xs, resids)
        active = np.flatnonzero((grad > 0.0) & (gf.reshape(-1) <= mat.GAMMA_FLOOR))
        assert len(active)
        grad = grad.copy()
        grad[active] = 0.0
        return states, grad, active

    @pytest.mark.parametrize("rank,frozen", [(None, ()), (4, (2,)), (None, "active")],
                             ids=["full", "rank4-frozen", "full-active-set"])
    def test_two_sample_direction_matches_dense_oracle(self, small_scene,
                                                       two_samples, rank, frozen):
        problem = small_scene["problem"]
        if frozen == "active":
            states, _, frozen = self._floored(problem, two_samples)
        else:
            gf = self._field(problem)
            _, xs, resids = problem.evaluate(gf, two_samples)
            states, _ = fitting.objective_gradient(problem, two_samples, gf, xs, resids)
        basis = None if rank is None else fitting.harmonic_basis(problem.mesh, rank)
        d, kappa, ok = fitting.adjoint_gauss_newton(states, basis=basis,
                                                    frozen=list(frozen))
        assert ok
        # the default damping sums the per-sample ones
        assert kappa == pytest.approx(sum(
            fitting.KAPPA_SCALE * st.G.diagonal().mean() for st in states), rel=1e-12)
        dense = oracles.dense_gauss_newton_direction(states, kappa, basis=basis,
                                                     frozen=frozen)
        assert np.linalg.norm(d - dense) <= 1e-10 * np.linalg.norm(dense)
        assert all(d[j] == 0.0 for j in frozen)

    @pytest.mark.parametrize("fails", [0, 2, 5])
    def test_damping_ladder_escalates_then_falls_back(self, small_scene, two_samples,
                                                      monkeypatch, fails):
        states, grad, active = self._floored(small_scene["problem"], two_samples)
        real, kappas = fitting.adjoint_gauss_newton, []

        def flaky(states, kappa=None, basis=None, frozen=()):
            assert np.array_equal(frozen, active)
            d, kap, ok = real(states, kappa=kappa, basis=basis, frozen=frozen)
            kappas.append(kap)
            return (None, kap, False) if len(kappas) <= fails else (d, kap, ok)

        monkeypatch.setattr(fitting, "adjoint_gauss_newton", flaky)
        logger = fitting.FitLogger()
        d, kappa = fitting._gn_direction(states, grad, None, None, active, logger)
        solves = min(fails + 1, 5)
        # kappa grows ten times per rung; the first call keeps the last one
        assert kappas == pytest.approx([kappas[0] * 10.0 ** j for j in range(solves)],
                                       rel=1e-12)
        assert kappa == pytest.approx(kappas[-1] * (10.0 if fails >= 5 else 1.0), rel=1e-12)
        assert logger.gauss_newton == dict(solves=solves, escalations=min(fails, 5),
                                           exhausted=int(fails >= 5))
        assert not d[active].any()
        if fails >= 5:
            assert np.array_equal(d, -grad)
        else:
            assert np.array_equal(d, real(states, kappa=kappas[-1], frozen=active)[0])
            assert float(d @ grad) < 0.0


# ---------------------------------------------------------------------------
# the full-space pass


class TestFitSequence:
    def test_single_sample_taken_wholesale(self, scene):
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        g0 = np.concatenate([np.full(nE, 2.0), np.full(nE, 4.0)])
        res = fitting.fit_sample(problem, [sample], g0, gd_iters=2, gn_iters=4)
        logger = fitting.FitLogger()
        gam, report = fitting.fit_sequence(problem, [sample], g0, logger=logger,
                                           gd_iters=2, gn_iters=4)
        assert gam.shape == (2, nE) and np.array_equal(gam.reshape(-1), res.gamma)
        assert not report["failed"]
        assert logger.gate and logger.gate_violations == 0
        assert [r["loss"] for r in report["samples"]] == [res.loss]

    def test_identical_samples_idempotent(self, scene):
        problem, sample = scene["problem"], scene["sample"]
        g0 = scene["gam_true"].reshape(-1)
        gam, report = fitting.fit_sequence(problem, [sample, sample], g0,
                                             gd_iters=2, gn_iters=4)
        assert np.allclose(gam.reshape(-1), g0, rtol=0, atol=1e-12)
        assert not report["failed"]

    def test_stalled_pass_reports_failed_and_returns_its_field(self, scene,
                                                               monkeypatch):
        # one pass over all samples at once; a pass that stalled without
        # lowering the loss fails, and its own field is what comes back
        problem, sample = scene["problem"], scene["sample"]
        nE = problem.mesh.n_elements
        calls = []

        def stalled(problem_, samples, gamma0, **kw):
            calls.append(list(samples))
            return fitting.FitResult(gamma=np.full(2 * nE, 4.0), loss=2.0,
                                     xs=[s.x_init for s in samples], losses=[2.0],
                                     stalled=True)

        monkeypatch.setattr(fitting, "fit_sample", stalled)
        gam, report = fitting.fit_sequence(problem, [sample, sample],
                                             np.full(2 * nE, 1.0))
        assert calls == [[sample, sample]]
        assert report["failed"]
        assert np.array_equal(gam.reshape(-1), np.full(2 * nE, 4.0))
        assert [r["loss"] for r in report["samples"]] == \
            [problem.loss(sample.x_init, sample)] * 2

    def test_empty_rejected(self, scene):
        with pytest.raises(ValueError, match="at least one"):
            fitting.fit_sequence(scene["problem"], [], np.ones(4))

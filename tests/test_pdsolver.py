"""Forward-solver tests: assembly, stepping, subspace solve, refinement."""

import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from volknit import material as mat
from volknit import pdsolver, volmesh, yarn_model


def wavy_mesh(n=28, cell=0.06, density=0.01, mass_floor=None):
    t = np.linspace(0.0, 1.0, n)
    pts = np.c_[t * 0.9, 0.04 * np.sin(9 * t), 0.03 * np.cos(7 * t)]
    yarn = yarn_model.YarnModel(pts, [list(range(n))], linear_density=density)
    mesh = volmesh.voxelize(yarn, cell)
    emb = volmesh.embed_yarn(mesh, yarn)
    volmesh.lump_mass(mesh, yarn, emb)
    if mass_floor is not None:
        mesh.node_mass = np.maximum(mesh.node_mass, mass_floor)
    return mesh, yarn, emb


def single_tet(mass=0.1):
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = volmesh.VolumeMesh(
        nodes=nodes, tets=np.array([[0, 1, 2, 3]]), cell_size=1.0,
        origin=np.zeros(3), voxels=np.zeros((1, 3), dtype=int),
        tet_voxel=np.zeros(1, dtype=int),
    )
    mesh.node_mass = np.full(4, mass)
    return mesh


def pinned_bench_patch(courses=6, wales=40):
    """The benchmark patch (6x40 rib at cell 0.03, or another size) with unit
    coefficients: its mesh, global matrix, end-column pins and the free
    nodes."""
    model = yarn_model.rib_patch(courses=courses, wales=wales, course_spacing=0.005,
                                 wale_spacing=0.005, amplitude=0.002,
                                 rib_period=4, linear_density=0.002)
    mesh = volmesh.voxelize(model, 0.03)
    volmesh.lump_mass(mesh, model, volmesh.embed_yarn(mesh, model))
    K = pdsolver.assemble_global(
        mesh, oracles.uniform(mesh.n_elements, 1.0, 1.0), 2e-2)
    x = mesh.nodes[:, 0]
    pins = np.flatnonzero((x <= x.min() + 1e-9) | (x >= x.max() - 1e-9))
    return mesh, K, pins, np.setdiff1d(np.arange(mesh.n_nodes), pins)


NO_PINS = (np.empty(0, dtype=int), np.empty((0, 3)))


def random_spd(rng, n, density=0.3):
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(
        int(rng.integers(1 << 31))), format="csr")
    A = A + A.T + sp.diags(np.full(n, n * 0.5))
    return A.tocsr()


# ---------------------------------------------------------------------------
# assembly


class TestAssembly:
    def test_symmetric(self):
        mesh, _, _ = wavy_mesh()
        gam = oracles.uniform(mesh.n_elements, 3.0, 1.5)
        K = pdsolver.assemble_global(mesh, gam, 1e-3)
        d = abs(K - K.T).max()
        assert d < 1e-12

    def test_zero_gamma_is_mass_diagonal(self):
        mesh, _, _ = wavy_mesh()
        gam = oracles.uniform(mesh.n_elements, 0.0, 0.0)
        dt = 2e-3
        K = pdsolver.assemble_global(mesh, gam, dt).toarray()
        assert np.allclose(K, np.diag(mesh.node_mass / dt**2), atol=1e-14)

    def test_linear_in_gamma(self):
        mesh, _, _ = wavy_mesh()
        g1 = oracles.uniform(mesh.n_elements, 2.0, 1.0)
        g2 = oracles.uniform(mesh.n_elements, 4.0, 2.0)
        dt = 1e-3
        M = sp.diags(mesh.node_mass / dt**2)
        A1 = (pdsolver.assemble_global(mesh, g1, dt) - M).toarray()
        A2 = (pdsolver.assemble_global(mesh, g2, dt) - M).toarray()
        assert np.allclose(A2, 2.0 * A1, rtol=1e-12, atol=1e-12)

    def test_two_tet_dense_oracle(self, rng):
        # hand-assembled dense stiffness over all 3n DOFs from the element
        # difference operators; scalar K must match its Kronecker structure
        mesh, _, _ = wavy_mesh()
        keep = np.array([0, 1])
        sub_nodes = np.unique(mesh.tets[keep])
        remap = {n: i for i, n in enumerate(sub_nodes)}
        tets = np.vectorize(remap.get)(mesh.tets[keep])
        small = volmesh.VolumeMesh(
            nodes=mesh.nodes[sub_nodes], tets=tets, cell_size=mesh.cell_size,
            origin=mesh.origin, voxels=mesh.voxels[:1],
            tet_voxel=np.zeros(len(keep), dtype=int),
        )
        nv = small.n_nodes
        small.node_mass = rng.uniform(0.1, 1.0, size=nv)
        gs = rng.uniform(0.5, 2.0, size=2)
        gv = rng.uniform(0.5, 2.0, size=2)
        gam = np.array([gs, gv])
        dt = 1e-2

        dense = np.zeros((3 * nv, 3 * nv))
        all_dofs = oracles.element_dofs(small)
        for e in range(2):
            DB = oracles.diff_op(small.shape_grad[e])    # (9, 12)
            He = 2.0 * small.volume[e] * (gs[e] + gv[e]) * DB.T @ DB
            dense[np.ix_(all_dofs[e], all_dofs[e])] += He
        dense += np.diag(np.repeat(small.node_mass, 3) / dt**2)

        K = pdsolver.assemble_global(mesh=small, gammas=gam, dt=dt).toarray()
        expanded = np.kron(K, np.eye(3))
        assert np.abs(expanded - dense).max() < 1e-10 * max(1.0, np.abs(dense).max())

    def test_operator_matches_per_element_oracle(self, rng):
        # F, forces, K and the exact Hessian from the sparse gradient
        # operator against the dense per-element (9, 12) maps
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        nE, nv = mesh.n_elements, mesh.n_nodes
        gs, gv = rng.uniform(0.5, 2.0, nE), rng.uniform(0.5, 2.0, nE)
        gam = np.array([gs, gv])
        x = mesh.nodes + 0.2 * mesh.cell_size * rng.normal(size=mesh.nodes.shape)
        dt = 1e-2
        De = oracles.diff_op(mesh.shape_grad)             # (nE, 9, 12)
        dofs = oracles.element_dofs(mesh)
        F = (De @ x.reshape(-1)[dofs][:, :, None]).reshape(-1, 3, 3)
        R, V = mat.batch_projections(F)
        LR, LV = mat.projection_jacobians_batch(F)
        w = 2.0 * mesh.volume
        force = np.zeros(3 * nv)
        K = np.diag(np.repeat(mesh.node_mass, 3) / dt**2)
        H = np.zeros((3 * nv, 3 * nv))
        I9 = np.eye(9)
        for e in range(nE):
            P = gs[e] * (F[e] - R[e]) + gv[e] * (F[e] - V[e])
            force[dofs[e]] += w[e] * De[e].T @ P.reshape(9)
            K[np.ix_(dofs[e], dofs[e])] += w[e] * (gs[e] + gv[e]) * De[e].T @ De[e]
            M9 = gs[e] * (I9 - LR[e]) + gv[e] * (I9 - LV[e])
            H[np.ix_(dofs[e], dofs[e])] += w[e] * De[e].T @ M9 @ De[e]

        def rel(got, want):
            return np.abs(got - want).max() / np.abs(want).max()

        assert rel(mesh.deformation_gradients(x), F) <= 1e-13
        assert rel(pdsolver.elastic_gradient(mesh, gam, x).reshape(-1), force) <= 1e-13
        assert rel(np.kron(pdsolver.assemble_global(mesh, gam, dt).toarray(), np.eye(3)),
                   K) <= 1e-13
        assert rel(pdsolver.exact_elastic_hessian(mesh, gam, x).toarray(), H) <= 1e-13
        # the pinned free block, as the fit and the polish ask for it
        free = np.setdiff1d(np.arange(nv), [0, 5, nv - 1])
        fdofs = (3 * free[:, None] + np.arange(3)).reshape(-1)
        Hff = pdsolver.exact_elastic_hessian(mesh, gam, x, fdofs)
        assert Hff.format == "csc"
        assert rel(Hff.toarray(), H[np.ix_(fdofs, fdofs)]) <= 1e-13

    def test_rejects_bad_input(self):
        mesh, _, _ = wavy_mesh()
        gam = oracles.uniform(mesh.n_elements, 1.0, 1.0)
        with pytest.raises(ValueError):
            pdsolver.assemble_global(mesh, gam, 0.0)
        bad = oracles.uniform(mesh.n_elements, -1.0, 1.0)
        with pytest.raises(ValueError):
            pdsolver.assemble_global(mesh, bad, 1e-3)
        with pytest.raises(ValueError):         # not a (2, nE) material
            pdsolver.assemble_global(mesh, gam.reshape(-1), 1e-3)


class TestElasticGradient:
    def test_matches_finite_differences(self, rng):
        mesh = single_tet()
        gam = oracles.uniform(1, 2.0, 1.2)
        x = mesh.nodes + 0.1 * rng.normal(size=(4, 3))
        g = pdsolver.elastic_gradient(mesh, gam, x)
        h = 1e-6
        for n in range(4):
            for k in range(3):
                xp = x.copy(); xp[n, k] += h
                xm = x.copy(); xm[n, k] -= h
                fd = (pdsolver.elastic_energy(mesh, gam, xp)
                      - pdsolver.elastic_energy(mesh, gam, xm)) / (2 * h)
                assert abs(g[n, k] - fd) < 1e-5

    def test_zero_at_rigid_motion(self, rng):
        mesh, _, _ = wavy_mesh()
        gam = oracles.uniform(mesh.n_elements, 3.0, 2.0)
        from tests.conftest import random_rotation
        Q = random_rotation(rng)
        x = mesh.nodes @ Q.T + rng.normal(size=3)
        g = pdsolver.elastic_gradient(mesh, gam, x)
        assert np.abs(g).max() < 1e-9


# ---------------------------------------------------------------------------
# stepping


class TestStepping:
    def test_rest_is_fixed_point(self):
        mesh, _, _ = wavy_mesh()
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        x = pdsolver.pd_step(mesh, gam, mesh.nodes, 1e-3, *NO_PINS, iterations=5)
        assert np.abs(x - mesh.nodes).max() < 1e-12

    def test_free_fall_discrete_closed_form(self):
        # uniform translation is an exact fixed point of the global solve,
        # so implicit Euler gives x_n = x0 + g dt^2 n(n+1)/2 to roundoff,
        # with or without the Newton polish after each step; on_step sees
        # each returned frame as it is made, with the polish outcome of a
        # polished step
        mesh, _, _ = wavy_mesh()
        mesh.node_mass = np.full(mesh.n_nodes, 1e-3)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt, steps = 1e-3, 8
        g = np.array([0.0, -9.8, 0.0])
        f = mesh.node_mass[:, None] * g
        for polish_tol in (None, 1e-9):
            seen = []
            frames = pdsolver.simulate_mesh(
                mesh, gam, steps, dt, forces=f, iterations=3, polish_tol=polish_tol,
                on_step=lambda i, x, polish: seen.append((i, x.copy(), polish)))
            assert [i for i, _, _ in seen] == list(range(steps))
            assert np.array_equal(np.array([x for _, x, _ in seen]), frames)
            if polish_tol is None:
                assert all(p is None for _, _, p in seen)
            else:
                assert all(p[0] for _, _, p in seen)
            for n in range(1, steps + 1):
                expect = mesh.nodes + g * dt**2 * n * (n + 1) / 2.0
                assert np.abs(frames[n - 1] - expect).max() < 1e-12, (polish_tol, n)

    def test_free_fall_tracks_continuum(self):
        # at small dt the scheme's O(dt^2 n) lag stays below 1e-8 per step
        mesh, _, _ = wavy_mesh()
        mesh.node_mass = np.full(mesh.n_nodes, 1e-3)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt, steps = 1e-5, 10
        g = np.array([0.0, -9.8, 0.0])
        f = mesh.node_mass[:, None] * g
        frames = pdsolver.simulate_mesh(mesh, gam, steps, dt, forces=f, iterations=3)
        c0 = mesh.nodes.mean(axis=0)
        for n in range(1, steps + 1):
            cn = frames[n - 1].mean(axis=0)
            expect = c0 + 0.5 * g * (n * dt) ** 2
            assert np.abs(cn - expect).max() < 1e-8

    def test_objective_monotone_without_collisions(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-3
        pins = np.flatnonzero(np.abs(mesh.nodes[:, 0] - mesh.nodes[:, 0].min()) < 1e-9)
        tgt = mesh.nodes[pins]
        xhat = 1.002 * mesh.nodes
        solver = pdsolver.GlobalSolver(pdsolver.assemble_global(mesh, gam, dt), pins)
        x = xhat.copy()
        x[pins] = tgt
        objs = [oracles.pd_objective(x, mesh, gam, xhat, dt)]
        for _ in range(10):
            rhs = pdsolver.elastic_rhs(mesh, gam, x)
            b = (mesh.node_mass[:, None] / dt**2) * xhat + rhs
            x = solver.solve(b, tgt)
            objs.append(oracles.pd_objective(x, mesh, gam, xhat, dt))
        objs = np.array(objs)
        assert np.all(np.diff(objs) <= 1e-10 * np.abs(objs[:-1]) + 1e-18)

    def test_non_finite_abort_reports_iteration(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)

        class BadSolver:
            def solve(self, b, pin_vals):
                return np.full_like(b, np.nan)

        with pytest.raises(RuntimeError, match="iteration 0"):
            pdsolver.pd_step(mesh, gam, mesh.nodes, 1e-3, *NO_PINS, solver=BadSolver())

    def test_pinned_nodes_track_targets(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        pins = np.array([0, 1, 2])
        tgt = mesh.nodes[pins] + np.array([0.0, 0.01, 0.0])
        x = pdsolver.pd_step(mesh, gam, mesh.nodes, 1e-3, pins, tgt, iterations=4)
        assert np.abs(x[pins] - tgt).max() < 1e-14


class TestExactHessian:
    def test_matches_central_differences_of_gradient(self):
        # the right half is stretched far enough that the volume projection
        # clamps a singular value at the floor, and node noise inverts
        # elements on both halves
        mesh, _, _ = wavy_mesh(n=10, cell=0.2)
        rng = np.random.default_rng(0)
        c = mesh.nodes[:, 0]
        w = np.clip(2.0 * (c - c.min()) / (c.max() - c.min()) - 0.5, 0.0, 1.0)[:, None]
        x = (mesh.nodes * (1.0 + w * np.array([14.0, 9.0, -0.997]))
             + 0.06 * mesh.cell_size * rng.normal(size=mesh.nodes.shape))
        F = mesh.deformation_gradients(x)
        assert np.any(np.linalg.det(F) < 0.0)
        assert np.any(mat.sl3_sigma_project_batch(mat.svd_rv_batch(F)[1])[2])
        gam = rng.uniform(0.5, 2.0, (2, mesh.n_elements))
        H = pdsolver.exact_elastic_hessian(mesh, gam, x).toarray()
        h = 1e-6
        fd = np.empty_like(H)
        for k in range(len(fd)):
            e = np.zeros(len(fd))
            e[k] = h
            e = e.reshape(x.shape)
            fd[:, k] = (pdsolver.elastic_gradient(mesh, gam, x + e)
                        - pdsolver.elastic_gradient(mesh, gam, x - e)).reshape(-1) / (2 * h)
        assert np.abs(H - fd).max() < 1e-6 * np.abs(fd).max()


# ---------------------------------------------------------------------------
# Newton polish


class TestBacktrack:
    def test_first_point_under_the_bound_returns_with_its_t(self):
        seen = []

        def value(p):
            seen.append(p)
            return p

        p, v, t = pdsolver.backtrack(lambda t: 10.0 * t, value, 2.0, 9)
        # 10, 5, 2.5 miss the bound and 1.25 is the first under it
        assert (p, v, t) == (1.25, 1.25, 0.125)
        assert seen == [10.0, 5.0, 2.5, 1.25]

    def test_bound_is_strict(self):
        p, v, t = pdsolver.backtrack(lambda t: t, lambda p: 1.0, 1.0, 3)
        assert (p, v, t) == (None, None, 0.0)

    @pytest.mark.parametrize("tries", [1, 9, 12])
    def test_no_point_under_the_bound_evaluates_exactly_tries(self, tries):
        ts = []

        def point(t):
            ts.append(t)
            return t

        assert pdsolver.backtrack(point, lambda p: 1.0, 0.0, tries) \
            == (None, None, 0.0)
        assert ts == [0.5**k for k in range(tries)]


class TestNewtonPolish:
    def test_single_tet_matches_derivative_free_minimizer(self):
        mesh = single_tet()
        gam = oracles.uniform(1, 2.0, 1.0)
        pins = np.array([0, 1, 2])
        pv = mesh.nodes[:3].copy()
        a = np.zeros((4, 3))
        a[3] = [0.0, 0.0, -0.3]
        x0 = mesh.nodes.copy()
        x0[3] = [0.1, 0.05, 1.4]
        xeq, ok, _, _ = pdsolver.newton_polish(
            mesh, gam, x0, dt=1.0, pins=pins, pin_vals=pv,
            inertia_target=a, tol=1e-9, max_iters=80)
        assert ok

        def objective(p):
            x = mesh.nodes.copy()
            x[3] = p
            return (pdsolver.elastic_energy(mesh, gam, x)
                    + float(np.sum(mesh.node_mass[:, None] * a * x)))

        res = scipy.optimize.minimize(
            objective, xeq[3], method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=1e-15, maxiter=5000))
        assert np.abs(xeq[3] - res.x).max() < 1e-6
        assert objective(xeq[3]) <= res.fun + 1e-12

    def test_zero_iterations_at_equilibrium(self):
        mesh = single_tet()
        gam = oracles.uniform(1, 2.0, 1.0)
        x, ok, iters, _ = pdsolver.newton_polish(
            mesh, gam, mesh.nodes, dt=1.0, inertia_target=np.zeros((4, 3)),
            tol=1e-5)
        assert ok and iters == 0
        assert np.array_equal(x, mesh.nodes)

    def test_zero_gamma_zero_target_trivial(self):
        mesh = single_tet()
        gam = oracles.uniform(1, 0.0, 0.0)
        x, ok, iters, _ = pdsolver.newton_polish(
            mesh, gam, mesh.nodes * 1.3, dt=1.0,
            inertia_target=np.zeros((4, 3)), tol=1e-5)
        assert ok and iters == 0

    def test_dynamic_flavor_reaches_step_equilibrium(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-3
        xhat = mesh.nodes * 1.01
        x, ok, _, resid = pdsolver.newton_polish(
            mesh, gam, xhat, dt=dt, xhat=xhat, tol=1e-7, max_iters=100)
        assert ok
        g = (pdsolver.elastic_gradient(mesh, gam, x)
             + (mesh.node_mass[:, None] / dt**2) * (x - xhat))
        assert resid == np.abs(g).max() < 1e-7

    def test_mismatched_arguments_rejected(self):
        mesh = single_tet()
        gam = oracles.uniform(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            pdsolver.newton_polish(mesh, gam, mesh.nodes, dt=1.0)

    @staticmethod
    def _count_frozen(monkeypatch):
        """Count the frozen-projection matrices newton_polish assembles."""
        calls = []
        assemble = pdsolver.assemble_global

        def counted(*args, **kw):
            calls.append(1)
            return assemble(*args, **kw)

        monkeypatch.setattr(pdsolver, "assemble_global", counted)
        return calls

    def _dynamic_polish(self, max_iters=100):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        xhat = mesh.nodes * 1.01
        return pdsolver.newton_polish(mesh, gam, xhat, dt=1e-3, xhat=xhat, tol=1e-7,
                                      max_iters=max_iters)

    def test_exact_steps_build_no_frozen_factorization(self, monkeypatch):
        calls = self._count_frozen(monkeypatch)
        _, ok, iters, _ = self._dynamic_polish()
        assert ok and iters > 0
        assert len(calls) == 0

    def test_frozen_factorization_built_once_on_failure(self, monkeypatch):
        # a non-finite exact Jacobian fails every exact step, so each step
        # takes the frozen-projection fallback, from one factorization
        calls = self._count_frozen(monkeypatch)
        nan_jacobian = lambda mesh, gammas, x, dofs: sp.diags(np.full(len(dofs), np.nan)).tocsc()
        monkeypatch.setattr(pdsolver, "exact_elastic_hessian", nan_jacobian)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, iters, _ = self._dynamic_polish(max_iters=5)
        assert iters >= 2
        assert len(calls) == 1


    def test_failed_searches_stop_at_the_first_iteration(self, monkeypatch):
        # with both searches failing x cannot move, so a second iteration
        # would repeat the first: one exact Jacobian, then the return
        mesh, _, _, _ = pinned_bench_patch(3, 12)
        gam = oracles.uniform(mesh.n_elements, 1.0, 1.0)
        jacobians = []
        hessian = pdsolver.exact_elastic_hessian
        monkeypatch.setattr(pdsolver, "exact_elastic_hessian",
                            lambda *a: jacobians.append(1) or hessian(*a))
        monkeypatch.setattr(pdsolver, "backtrack", lambda *a: (None, None, 0.0))
        xhat = mesh.nodes.copy()
        x0 = xhat + 1e-3 * np.random.default_rng(0).normal(size=xhat.shape)
        x, ok, iters, resid = pdsolver.newton_polish(mesh, gam, x0, dt=1e-3,
                                                     xhat=xhat, tol=1e-9)
        assert (len(jacobians), iters, ok) == (1, 1, False)
        assert np.array_equal(x, x0) and resid > 1e-9


class TestQuasiStatic:
    def test_proximal_rounds_monotone(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-2
        pins = np.array([0])
        pv = mesh.nodes[pins]
        rng = np.random.default_rng(3)
        a = 1e-3 * rng.normal(size=(mesh.n_nodes, 3))
        x = mesh.nodes.copy()
        vals = [oracles.quasi_static_objective(mesh, gam, a, x, dt)]
        for _ in range(6):
            x = pdsolver.pd_equilibrium(mesh, gam, a, x, pins, pv, dt, iterations=1)
            vals.append(oracles.quasi_static_objective(mesh, gam, a, x, dt))
        vals = np.array(vals)
        assert np.all(np.diff(vals) <= 1e-12 * np.abs(vals[:-1]) + 1e-18)


# ---------------------------------------------------------------------------
# component modes


class TestCms:
    def setup_system(self, dt=1e-2):
        mesh, _, _ = wavy_mesh(n=34, cell=0.07, mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 4.0, 2.0)
        K = pdsolver.assemble_global(mesh, gam, dt)
        return mesh, K

    def test_complete_basis_exact(self, rng):
        mesh, K = self.setup_system()
        b = rng.normal(size=mesh.n_nodes)
        x_ref = spla.spsolve(K.tocsc(), b)
        labels = pdsolver.partition_elements(mesh, 2)
        interior, _ = pdsolver.classify_nodes(mesh, labels, np.arange(mesh.n_nodes))
        modes = max(len(s) for s in interior)
        cms = pdsolver.build_cms(K, mesh, np.arange(mesh.n_nodes), modes_per_domain=modes)
        x = cms.solve(b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_boundary_only_exact_for_boundary_loads(self, rng):
        mesh, K = self.setup_system()
        labels = pdsolver.partition_elements(mesh, 2)
        interior, boundary = pdsolver.classify_nodes(mesh, labels, np.arange(mesh.n_nodes))
        b = np.zeros(mesh.n_nodes)
        b[boundary] = rng.normal(size=len(boundary))
        cms = pdsolver.build_cms(K, mesh, np.arange(mesh.n_nodes), modes_per_domain=0)
        x = cms.solve(b)
        x_ref = spla.spsolve(K.tocsc(), b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_sparse_eigensolver_basis_is_deterministic(self):
        # an interior above 400 nodes takes its modes from ARPACK, whose
        # own start vector is random: two builds in one process must agree
        mesh, K, _, free = pinned_bench_patch(25, 200)
        Kff = K[free][:, free].tocsc()
        a, b = (pdsolver.build_cms(Kff, mesh, free, n_domains=1, modes_per_domain=10)
                for _ in range(2))
        assert len(free) > 400
        assert np.array_equal(a.T.toarray(), b.T.toarray())
        assert np.array_equal(a.K_red.toarray(), b.K_red.toarray())

    def test_reduced_matrix_spd(self):
        mesh, K = self.setup_system()
        cms = pdsolver.build_cms(K, mesh, np.arange(mesh.n_nodes), modes_per_domain=10)
        w = np.linalg.eigvalsh(cms.K_red.toarray())
        assert w.min() > 0.0

    def test_truncated_plus_refinement_converges(self, rng):
        mesh, K = self.setup_system()
        b = rng.normal(size=mesh.n_nodes)
        x_ref = spla.spsolve(K.tocsc(), b)
        cms = pdsolver.build_cms(K, mesh, np.arange(mesh.n_nodes), modes_per_domain=15)
        x0 = cms.solve(b)
        coarse = np.linalg.norm(x0 - x_ref) / np.linalg.norm(x_ref)
        x, info = pdsolver.a_jacobi_refine(K, b, x0, sweeps=300, aggregation=2)
        fine = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        assert not info["diverged"]
        assert fine < 1e-8 < coarse

    def test_mode_request_capped_at_interior_size(self):
        mesh, K = self.setup_system()
        cms = pdsolver.build_cms(K, mesh, np.arange(mesh.n_nodes), modes_per_domain=10**6)
        # every interior node spans one mode column, every boundary node one
        assert cms.T.shape[1] == mesh.n_nodes

    @pytest.mark.parametrize("case", ["bench-pinned", "3-domains", "no-modes", "all-modes"])
    def test_basis_matches_loop_oracle(self, rng, case):
        # the one-call basis must equal the column-by-column one bit for bit,
        # down to the factorization of its reduced matrix
        if case == "bench-pinned":
            mesh, K, _, free = pinned_bench_patch()
            K = K[free][:, free].tocsc()
        else:
            mesh, K = self.setup_system()
            free = np.arange(mesh.n_nodes)
        kw = {"bench-pinned": {}, "3-domains": dict(n_domains=3),
              "no-modes": dict(modes_per_domain=0),
              "all-modes": dict(modes_per_domain=10**6)}[case]
        cms = pdsolver.build_cms(K, mesh, free, **kw)
        T, K_red, lu = oracles.cms_basis(K, mesh, free, **kw)
        for got, ref in ((cms.T, T), (cms.K_red, K_red)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr))
        B = rng.normal(size=(K.shape[0], 3))
        assert np.array_equal(cms.solve(B), T @ lu.solve(T.T @ B))

    def test_classification_covers_all_nodes(self):
        mesh, K = self.setup_system()
        labels = pdsolver.partition_elements(mesh, 3)
        interior, boundary = pdsolver.classify_nodes(mesh, labels, np.arange(mesh.n_nodes))
        counted = np.concatenate(interior + [boundary])
        assert len(counted) == mesh.n_nodes
        assert len(np.unique(counted)) == mesh.n_nodes
        # interior nodes touch elements of a single domain
        for d, sel in enumerate(interior):
            for node in sel[:10]:
                touching = labels[np.any(mesh.tets == node, axis=1)]
                assert np.all(touching == d)


# ---------------------------------------------------------------------------
# aggregated Jacobi


class TestAJacobi:
    def test_aggregation_matches_plain_sweeps(self, rng):
        A = random_spd(rng, 50)
        b = rng.normal(size=50)
        x0 = rng.normal(size=50)

        def plain(x, sweeps, omega):
            invd = 1.0 / A.diagonal()
            for _ in range(sweeps):
                x = x + omega * (invd * (b - A @ x))
            return x

        for agg in (2, 3):
            xa, info = pdsolver.a_jacobi_refine(
                A, b, x0, sweeps=7, aggregation=agg, omega=0.7)
            xp = plain(x0.copy(), 7 * agg, 0.7)
            assert np.abs(xa - xp).max() < 1e-12
            assert not info["diverged"]

    def test_exact_solution_is_fixed_point(self, rng):
        A = random_spd(rng, 40)
        xs = rng.normal(size=40)
        b = A @ xs
        x, info = pdsolver.a_jacobi_refine(A, b, xs, sweeps=5, aggregation=2)
        assert np.abs(x - xs).max() < 1e-12

    def test_diagonal_system_one_sweep(self, rng):
        d = rng.uniform(1.0, 3.0, size=30)
        A = sp.diags(d).tocsr()
        b = rng.normal(size=30)
        x, _ = pdsolver.a_jacobi_refine(A, b, np.zeros(30), sweeps=1,
                                        aggregation=2, omega=1.0)
        assert np.abs(x - b / d).max() < 1e-14

    def test_divergence_returns_best_iterate(self, rng):
        A = random_spd(rng, 50)
        b = rng.normal(size=50)
        x0 = rng.normal(size=50)
        x, info = pdsolver.a_jacobi_refine(A, b, x0, sweeps=300,
                                           aggregation=2, omega=2.5)
        assert info["diverged"]
        assert np.all(np.isfinite(x))
        r_out = np.linalg.norm(b - A @ x)
        assert r_out <= min(info["residuals"]) * (1 + 1e-12)

    def test_columns_refine_as_if_alone(self, rng):
        # column 0 starts at its exact solution, column 1 diverges at 2.5
        A = random_spd(rng, 50)
        xs = rng.normal(size=50)
        b = np.column_stack([A @ xs, rng.normal(size=50)])
        x0 = np.column_stack([xs, rng.normal(size=50)])
        for omega, flags in ((2.5, [False, True]), (0.7, [False, False])):
            X, info = pdsolver.a_jacobi_refine(A, b, x0, sweeps=60, aggregation=3, omega=omega)
            assert list(info["diverged"]) == flags
            for k in range(2):
                xk, ik = pdsolver.a_jacobi_refine(
                    A, b[:, k], x0[:, k], sweeps=60, aggregation=3, omega=omega)
                assert np.array_equal(X[:, k], xk)
                assert ik["diverged"] is flags[k]
                assert info["residuals"][k] == ik["residuals"]
        assert np.array_equal(X[:, 0], xs)

    @pytest.fixture(scope="class")
    def bench_system(self):
        """The benchmark patch's pinned global matrix with three right-hand
        sides and their CMS start, as GlobalSolver.solve refines them."""
        mesh, K, pins, free = pinned_bench_patch()
        solver = pdsolver.GlobalSolver(K, pins, mode="cms", mesh=mesh)
        B = np.random.default_rng(0).normal(size=(mesh.n_nodes, 3))
        Bf = B[free] - solver.Kfp @ mesh.nodes[pins]
        return solver.Kff, Bf, solver.cms.solve(Bf)

    @pytest.mark.parametrize("case", ["bench", "one-diverges", "all-diverge", "vector",
                                      "non-finite"])
    def test_matches_per_sweep_oracle(self, rng, bench_system, case):
        # the oracle settles divergence, the best iterate and the history
        # inside its sweep loop and stops a diverged column there
        A = random_spd(rng, 50)
        xs = rng.normal(size=50)
        if case == "bench":
            K, b, x0 = bench_system
            kw = dict(sweeps=30, aggregation=2)
        elif case == "one-diverges":
            # column 0 sits at its exact solution, column 1 diverges at 2.5
            K, b = A, np.column_stack([A @ xs, rng.normal(size=50)])
            x0, kw = np.column_stack([xs, rng.normal(size=50)]), dict(
                sweeps=60, aggregation=3, omega=2.5)
        elif case == "all-diverge":
            K, b, x0 = A, rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
            kw = dict(sweeps=300, aggregation=2, omega=2.5)
        elif case == "vector":
            K, b, x0, kw = A, rng.normal(size=50), rng.normal(size=50), dict(sweeps=40)
        else:
            # an infinite and a NaN right-hand side entry in two columns
            K, b, x0 = A, rng.normal(size=(50, 3)), np.zeros((50, 3))
            b[3, 1], b[7, 2] = np.inf, np.nan
            kw = dict(sweeps=20, aggregation=2)
        with np.errstate(all="ignore"):
            x_ref, info_ref = oracles.a_jacobi_refine(K, b, x0, **kw)
        x, info = pdsolver.a_jacobi_refine(K, b, x0, **kw)
        assert np.array_equal(x, x_ref, equal_nan=True)
        assert np.array_equal(info["diverged"], info_ref["diverged"])
        if case == "all-diverge":
            assert info["diverged"].all()
        hist, hist_ref = info["residuals"], info_ref["residuals"]
        if case == "vector":
            hist, hist_ref = [hist], [hist_ref]
        assert [len(h) for h in hist] == [len(h) for h in hist_ref]
        for h, h_ref in zip(hist, hist_ref):
            assert np.array_equal(h, h_ref, equal_nan=True)

    def test_rejects_bad_aggregation(self, rng):
        A = random_spd(rng, 10)
        with pytest.raises(ValueError):
            pdsolver.a_jacobi_refine(A, np.ones(10), np.zeros(10), aggregation=4)


# ---------------------------------------------------------------------------
# colliders


class TestColliders:
    def settle(self, colliders, steps=250):
        mesh, _, _ = wavy_mesh(n=22, cell=0.05)
        mesh.node_mass = np.full(mesh.n_nodes, 2e-4)
        gam = oracles.uniform(mesh.n_elements, 50.0, 25.0)
        f = mesh.node_mass[:, None] * np.array([0.0, -9.8, 0.0])
        frames = pdsolver.simulate_mesh(mesh, gam, steps, 2e-3, forces=f, colliders=colliders,
                                        iterations=10, damping=0.9)
        return mesh, frames[-1]

    def test_plane_resting_contact_depth(self):
        mesh0, _, _ = wavy_mesh(n=22, cell=0.05)
        floor_y = mesh0.nodes[:, 1].min() + 0.02
        mesh, x = self.settle((("plane", (0.0, floor_y, 0.0), (0.0, 1.0, 0.0)),))
        pen = floor_y - x[:, 1].min()
        assert pen < 1e-4 * mesh.cell_size

    def test_sphere_resting_contact_depth(self):
        mesh0, _, _ = wavy_mesh(n=22, cell=0.05)
        c = mesh0.nodes.mean(axis=0) + np.array([0.0, -0.4, 0.0])
        r = 0.35
        mesh, x = self.settle((("sphere", c, r),))
        pen = r - np.linalg.norm(x - c, axis=1).min()
        assert pen < 1e-4 * mesh.cell_size

    def test_collide_project_snaps_inside_nodes(self):
        x = np.array([[0.0, -0.5, 0.0], [0.0, 0.5, 0.0]])
        q = pdsolver.surface_targets(x, ("plane", (0, 0, 0), (0, 1, 0)))
        assert np.allclose(q[0], [0.0, 0.0, 0.0])
        assert np.allclose(q[1], [0.0, 0.5, 0.0])

    def test_overlapping_colliders_sum_their_penalties(self):
        # a node under the planes y = 0 and z = 0 with no elastic coupling
        # converges to the minimizer of (m / 2 dt^2) |x - xhat|^2 plus both
        # plane penalties (cw / 2) (n . (x - p))^2, a dense 3x3 solve
        mesh = single_tet()
        x0 = mesh.nodes + [0.0, 1.0, 1.0]
        x0[0] = [0.3, -0.1, -0.2]
        dt = 1e-2
        planes = (("plane", (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                  ("plane", (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        gam = oracles.uniform(1, 0.0, 0.0)
        x = pdsolver.pd_step(mesh, gam, x0, dt, *NO_PINS, iterations=200, colliders=planes)

        m_dt2 = mesh.node_mass[0] / dt**2
        cw = pdsolver.CONTACT_STIFFNESS * pdsolver.assemble_global(mesh, gam, dt).diagonal()[0]
        A = m_dt2 * np.eye(3)
        b = m_dt2 * x0[0]
        for _, p, n in planes:
            n = np.asarray(n)
            A += cw * np.outer(n, n)
            b += cw * n * (n @ np.asarray(p))
        x_ref = np.linalg.solve(A, b)
        assert np.abs(x[0] - x_ref).max() < 1e-12
        assert np.array_equal(x[1:], x0[1:])

    def test_unknown_collider_kind_rejected(self):
        with pytest.raises(ValueError):
            pdsolver.collider_targets(np.zeros((1, 3)), ("torus", 0, 1))


class TestGlobalSolver:
    def test_direct_block_solve_equals_column_solves(self, rng):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 4.0, 2.0)
        K = pdsolver.assemble_global(mesh, gam, 1e-2)
        pins = np.arange(0, mesh.n_nodes, 7)
        free = np.setdiff1d(np.arange(mesh.n_nodes), pins)
        B = rng.normal(size=(mesh.n_nodes, 3))
        pin_vals = rng.normal(size=(len(pins), 3))
        X = pdsolver.GlobalSolver(K, pins).solve(B, pin_vals)
        lu = spla.splu(K[free][:, free].tocsc())
        rhs = B[free] - K[free][:, pins].tocsc() @ pin_vals
        for k in range(3):
            assert np.array_equal(X[free, k], lu.solve(rhs[:, k]))
        assert np.array_equal(X[pins], pin_vals)

    def test_cms_solve_refines_the_subspace_start(self, rng):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 4.0, 2.0)
        K = pdsolver.assemble_global(mesh, gam, 1e-2)
        pins = np.arange(0, mesh.n_nodes, 7)
        free = np.setdiff1d(np.arange(mesh.n_nodes), pins)
        pin_vals = rng.normal(size=(len(pins), 3))
        B = rng.normal(size=(mesh.n_nodes, 3))
        for sweeps in (0, 5):
            solver = pdsolver.GlobalSolver(K, pins, mode="cms", mesh=mesh,
                                           modes_per_domain=10, refine_sweeps=sweeps,
                                           aggregation=3)
            X = solver.solve(B, pin_vals)
            Bf = B[free] - solver.Kfp @ pin_vals
            ref = solver.cms.solve(Bf)
            if sweeps:
                ref, _ = pdsolver.a_jacobi_refine(solver.Kff, Bf, ref, sweeps=sweeps,
                                                  aggregation=3)
            assert np.array_equal(X[free], ref)
            assert np.array_equal(X[pins], pin_vals)


    def test_lowest_modes_arpack_branch_and_dense_fallback(self, monkeypatch):
        # a small dense_up_to forces the shifted ARPACK branch, whose modes
        # are the lowest eigenpairs of dense eigh; when ARPACK raises, the
        # dense eigh stands in
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 4.0, 2.0)
        K = pdsolver.assemble_global(mesh, gam, 1e-2)
        Kd = K.toarray()
        w, V = np.linalg.eigh(Kd)
        k = 8
        eigsh, calls = spla.eigsh, []
        monkeypatch.setattr(pdsolver.spla, "eigsh",
                            lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
        Phi = pdsolver.lowest_modes(K, k, 0.0, 10)
        assert len(calls) == 1 and Phi.shape == (K.shape[0], k)
        ray = np.einsum("ij,ij->j", Phi, Kd @ Phi)
        assert np.allclose(ray, w[:k], rtol=1e-10, atol=0.0)
        assert np.abs(Kd @ Phi - Phi * ray).max() < 1e-8 * w[-1]
        assert np.abs(Phi.T @ Phi - np.eye(k)).max() < 1e-12

        def fails(A, k, **kw):
            calls.append(1)
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                           np.empty(0), np.empty((A.shape[0], 0)))

        monkeypatch.setattr(pdsolver.spla, "eigsh", fails)
        assert np.array_equal(pdsolver.lowest_modes(K, k, 0.0, 10), V[:, :k])
        assert len(calls) == 2


class TestSimulate:
    def test_contact_free_collider_run_factorizes_once(self, monkeypatch):
        # a floor far below the mesh never catches a node, so every step
        # solves with the one base factorization, to the bits of the
        # reference that factorizes each step
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt, steps = 1e-3, 5
        f = mesh.node_mass[:, None] * np.array([0.0, -9.8, 0.0])
        kw = dict(forces=f, iterations=6, damping=0.9,
                  colliders=(("plane", (0.0, -10.0, 0.0), (0.0, 1.0, 0.0)),))
        built, solver = [], pdsolver.GlobalSolver
        monkeypatch.setattr(pdsolver, "GlobalSolver",
                            lambda *a, **k: built.append(1) or solver(*a, **k))
        ref = oracles.simulate_mesh(mesh, gam, steps, dt, **kw)
        assert len(built) == steps
        del built[:]
        frames = pdsolver.simulate_mesh(mesh, gam, steps, dt, **kw)
        assert len(built) == 1
        assert np.array_equal(frames, ref)

    @pytest.mark.parametrize("case", ["direct", "cms-pin-path", "colliders", "polish"])
    def test_frames_match_state_loop_oracle(self, case):
        # the loop that kept its state in a SimState and made a polished
        # step's prediction and velocity twice gives the same bits
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt, steps = 1e-3, 4
        c = mesh.nodes[:, 0]
        pins = np.flatnonzero((c <= c.min() + 1e-9) | (c >= c.max() - 1e-9))
        f = mesh.node_mass[:, None] * np.array([0.0, -9.8, 0.0])
        kw = dict(forces=f, pins=pins, iterations=6, damping=0.9)
        if case == "cms-pin-path":
            moving = (c[pins] >= c.max() - 1e-9)[None, :, None]
            shift = np.linspace(0.01, 0.04, steps)[:, None, None] * np.array([1.0, 0.0, 0.0])
            kw["pin_targets"] = mesh.nodes[pins][None] + moving * shift
            kw["solver"] = pdsolver.GlobalSolver(
                pdsolver.assemble_global(mesh, gam, dt), pins, mode="cms", mesh=mesh,
                modes_per_domain=8, refine_sweeps=5)
        elif case == "colliders":
            # two overlapping floor planes and a sphere around a mid node,
            # each holding free nodes from the first step on
            lo = mesh.nodes.min(axis=0)
            mid = np.argmin(np.abs(c - c.mean()))
            kw["colliders"] = (("plane", lo + 0.01, (0.0, 1.0, 0.0)),
                               ("plane", lo + 0.01, (0.0, 0.0, 1.0)),
                               ("sphere", mesh.nodes[mid], 0.05))
            inside = [np.setdiff1d(pdsolver.collider_targets(mesh.nodes, cl)[0], pins)
                      for cl in kw["colliders"]]
            assert min(len(i) for i in inside) > 0
            assert len(np.intersect1d(inside[0], inside[1])) > 0
        elif case == "polish":
            kw["pin_targets"] = mesh.nodes[pins] + np.array([0.01, 0.0, 0.0])
            kw["polish_tol"] = 1e-10
        seen, ref_seen = [], []
        frames = pdsolver.simulate_mesh(
            mesh, gam, steps, dt, on_step=lambda i, x, polish: seen.append(polish), **kw)
        ref = oracles.simulate_mesh(
            mesh, gam, steps, dt, on_step=lambda i, st: ref_seen.append(st.polish), **kw)
        assert np.array_equal(frames, ref)
        assert seen == ref_seen
        # a polish that takes Newton steps moves the frame and so v
        assert all(p[1] > 0 for p in seen) if case == "polish" else all(p is None for p in seen)

    def test_polish_with_colliders_rejected(self):
        # collider steps are never polished, so a polish_tol there would be
        # silently dropped
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        floor = (("plane", mesh.nodes.min(axis=0), (0.0, 1.0, 0.0)),)
        with pytest.raises(ValueError, match="polish_tol.*colliders"):
            pdsolver.simulate_mesh(mesh, gam, 2, 1e-3, colliders=floor, polish_tol=1e-8)

    def test_cms_mode_matches_direct(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = oracles.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-3
        pins = np.flatnonzero(np.abs(mesh.nodes[:, 0] - mesh.nodes[:, 0].min()) < 1e-9)
        f = mesh.node_mass[:, None] * np.array([0.0, -9.8, 0.0])
        kw = dict(forces=f, pins=pins, pin_targets=mesh.nodes[pins], iterations=8)
        direct = pdsolver.simulate_mesh(mesh, gam, 4, dt, **kw)
        cms = pdsolver.GlobalSolver(
            pdsolver.assemble_global(mesh, gam, dt), pins, mode="cms",
            mesh=mesh, n_domains=2, modes_per_domain=12, refine_sweeps=200)
        reduced = pdsolver.simulate_mesh(mesh, gam, 4, dt, solver=cms, **kw)
        scale = np.abs(direct[-1]).max()
        assert np.abs(direct - reduced).max() < 1e-7 * max(scale, 1.0)

"""Forward-solver tests: assembly, stepping, subspace solve, refinement."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
        origin=np.zeros(3), node_grid=np.zeros((4, 3), dtype=int),
        voxels=np.zeros((1, 3), dtype=int), tet_voxel=np.zeros(1, dtype=int),
    )
    mesh.node_mass = np.full(4, mass)
    return mesh


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
        gam = mat.MaterialField.uniform(mesh.n_elements, 3.0, 1.5)
        K = pdsolver.assemble_global(mesh, gam, 1e-3)
        d = abs(K - K.T).max()
        assert d < 1e-12

    def test_zero_gamma_is_mass_diagonal(self):
        mesh, _, _ = wavy_mesh()
        gam = mat.MaterialField.uniform(mesh.n_elements, 0.0, 0.0)
        dt = 2e-3
        K = pdsolver.assemble_global(mesh, gam, dt).toarray()
        assert np.allclose(K, np.diag(mesh.node_mass / dt**2), atol=1e-14)

    def test_linear_in_gamma(self):
        mesh, _, _ = wavy_mesh()
        g1 = mat.MaterialField.uniform(mesh.n_elements, 2.0, 1.0)
        g2 = mat.MaterialField.uniform(mesh.n_elements, 4.0, 2.0)
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
            origin=mesh.origin, node_grid=mesh.node_grid[sub_nodes],
            voxels=mesh.voxels[:1], tet_voxel=np.zeros(len(keep), dtype=int),
        )
        nv = small.n_nodes
        small.node_mass = rng.uniform(0.1, 1.0, size=nv)
        gs = rng.uniform(0.5, 2.0, size=2)
        gv = rng.uniform(0.5, 2.0, size=2)
        gam = mat.MaterialField(gamma_s=gs, gamma_v=gv)
        dt = 1e-2

        dense = np.zeros((3 * nv, 3 * nv))
        all_dofs = small.element_dofs()
        for e in range(2):
            DB = small.diff_op[e]                        # (9, 12)
            He = 2.0 * small.volume[e] * (gs[e] + gv[e]) * DB.T @ DB
            dense[np.ix_(all_dofs[e], all_dofs[e])] += He
        dense += np.diag(np.repeat(small.node_mass, 3) / dt**2)

        K = pdsolver.assemble_global(mesh=small, gammas=gam, dt=dt).toarray()
        expanded = np.kron(K, np.eye(3))
        assert np.abs(expanded - dense).max() < 1e-10 * max(1.0, np.abs(dense).max())

    def test_rejects_bad_input(self):
        mesh, _, _ = wavy_mesh()
        gam = mat.MaterialField.uniform(mesh.n_elements, 1.0, 1.0)
        with pytest.raises(ValueError):
            pdsolver.assemble_global(mesh, gam, 0.0)
        bad = mat.MaterialField(gamma_s=np.full(mesh.n_elements, -1.0),
                                gamma_v=np.ones(mesh.n_elements))
        with pytest.raises(ValueError):
            pdsolver.assemble_global(mesh, bad, 1e-3)


class TestElasticGradient:
    def test_matches_finite_differences(self, rng):
        mesh = single_tet()
        gam = mat.MaterialField.uniform(1, 2.0, 1.2)
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
        gam = mat.MaterialField.uniform(mesh.n_elements, 3.0, 2.0)
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
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        st = pdsolver.SimState(x=mesh.nodes, v=np.zeros_like(mesh.nodes), dt=1e-3)
        pdsolver.pd_step(st, mesh, gam, iterations=5)
        assert np.abs(st.x - mesh.nodes).max() < 1e-12

    def test_free_fall_discrete_closed_form(self):
        # uniform translation is an exact fixed point of the global solve,
        # so implicit Euler gives x_n = x0 + g dt^2 n(n+1)/2 to roundoff,
        # with or without the Newton polish after each step
        mesh, _, _ = wavy_mesh()
        mesh.node_mass = np.full(mesh.n_nodes, 1e-3)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        dt, steps = 1e-3, 8
        g = np.array([0.0, -9.8, 0.0])
        f = mesh.node_mass[:, None] * g
        for polish_tol in (None, 1e-9):
            frames = pdsolver.simulate_mesh(mesh, gam, steps, dt, forces=f, iterations=3,
                                            polish_tol=polish_tol)
            for n in range(1, steps + 1):
                expect = mesh.nodes + g * dt**2 * n * (n + 1) / 2.0
                assert np.abs(frames[n - 1] - expect).max() < 1e-12, (polish_tol, n)

    def test_free_fall_tracks_continuum(self):
        # at small dt the scheme's O(dt^2 n) lag stays below 1e-8 per step
        mesh, _, _ = wavy_mesh()
        mesh.node_mass = np.full(mesh.n_nodes, 1e-3)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
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
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-3
        pins = np.flatnonzero(np.abs(mesh.nodes[:, 0] - mesh.nodes[:, 0].min()) < 1e-9)
        tgt = mesh.nodes[pins]
        st = pdsolver.SimState(x=1.002 * mesh.nodes, v=np.zeros_like(mesh.nodes),
                               dt=dt, pins=pins, pin_targets=tgt)
        xhat = pdsolver._predicted(st, None, mesh)
        free = np.setdiff1d(np.arange(mesh.n_nodes), pins)
        solver = pdsolver.GlobalSolver(
            pdsolver.assemble_global(mesh, gam, dt), free, pins)
        x = xhat.copy()
        x[pins] = tgt
        objs = [pdsolver.pd_objective(x, mesh, gam, xhat, dt)]
        for _ in range(10):
            rhs, *_ = pdsolver.elastic_rhs(mesh, gam, x)
            b = (mesh.node_mass[:, None] / dt**2) * xhat + rhs
            x = solver.solve(b, tgt)
            objs.append(pdsolver.pd_objective(x, mesh, gam, xhat, dt))
        objs = np.array(objs)
        assert np.all(np.diff(objs) <= 1e-10 * np.abs(objs[:-1]) + 1e-18)

    def test_non_finite_abort_reports_iteration(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)

        class BadSolver:
            def solve(self, b, pin_vals):
                return np.full_like(b, np.nan)

        st = pdsolver.SimState(x=mesh.nodes, v=np.zeros_like(mesh.nodes), dt=1e-3)
        with pytest.raises(RuntimeError, match="iteration 0"):
            pdsolver.pd_step(st, mesh, gam, solver=BadSolver())

    def test_pinned_nodes_track_targets(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        pins = np.array([0, 1, 2])
        tgt = mesh.nodes[pins] + np.array([0.0, 0.01, 0.0])
        st = pdsolver.SimState(x=mesh.nodes, v=np.zeros_like(mesh.nodes), dt=1e-3,
                               pins=pins, pin_targets=tgt)
        pdsolver.pd_step(st, mesh, gam, iterations=4)
        assert np.abs(st.x[pins] - tgt).max() < 1e-14


# ---------------------------------------------------------------------------
# Newton polish


class TestNewtonPolish:
    def test_single_tet_matches_derivative_free_minimizer(self):
        mesh = single_tet()
        gam = mat.MaterialField.uniform(1, 2.0, 1.0)
        pins = np.array([0, 1, 2])
        pv = mesh.nodes[:3].copy()
        a = np.zeros((4, 3))
        a[3] = [0.0, 0.0, -0.3]
        x0 = mesh.nodes.copy()
        x0[3] = [0.1, 0.05, 1.4]
        xeq, ok, _ = pdsolver.newton_polish(
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
        gam = mat.MaterialField.uniform(1, 2.0, 1.0)
        x, ok, iters = pdsolver.newton_polish(
            mesh, gam, mesh.nodes, dt=1.0, inertia_target=np.zeros((4, 3)),
            tol=1e-5)
        assert ok and iters == 0
        assert np.array_equal(x, mesh.nodes)

    def test_zero_gamma_zero_target_trivial(self):
        mesh = single_tet()
        gam = mat.MaterialField.uniform(1, 0.0, 0.0)
        x, ok, iters = pdsolver.newton_polish(
            mesh, gam, mesh.nodes * 1.3, dt=1.0,
            inertia_target=np.zeros((4, 3)), tol=1e-5)
        assert ok and iters == 0

    def test_dynamic_flavor_reaches_step_equilibrium(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-3
        st = pdsolver.SimState(x=mesh.nodes * 1.01, v=np.zeros_like(mesh.nodes), dt=dt)
        xhat = pdsolver._predicted(st, None, mesh)
        x, ok, _ = pdsolver.newton_polish(
            mesh, gam, xhat, dt=dt, xhat=xhat, tol=1e-7, max_iters=100)
        assert ok
        g = (pdsolver.elastic_gradient(mesh, gam, x)
             + (mesh.node_mass[:, None] / dt**2) * (x - xhat))
        assert np.abs(g).max() < 1e-7

    def test_mismatched_arguments_rejected(self):
        mesh = single_tet()
        gam = mat.MaterialField.uniform(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            pdsolver.newton_polish(mesh, gam, mesh.nodes, dt=1.0)


class TestQuasiStatic:
    def test_proximal_rounds_monotone(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-2
        pins = np.array([0])
        pv = mesh.nodes[pins]
        rng = np.random.default_rng(3)
        a = 1e-3 * rng.normal(size=(mesh.n_nodes, 3))
        x = mesh.nodes.copy()
        vals = [pdsolver.quasi_static_objective(mesh, gam, a, x, dt)]
        for _ in range(6):
            x = pdsolver.pd_equilibrium(mesh, gam, a, x, pins, pv, dt, iterations=1)
            vals.append(pdsolver.quasi_static_objective(mesh, gam, a, x, dt))
        vals = np.array(vals)
        assert np.all(np.diff(vals) <= 1e-12 * np.abs(vals[:-1]) + 1e-18)


# ---------------------------------------------------------------------------
# component modes


class TestCms:
    def setup_system(self, dt=1e-2):
        mesh, _, _ = wavy_mesh(n=34, cell=0.07, mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 4.0, 2.0)
        K = pdsolver.assemble_global(mesh, gam, dt)
        return mesh, K

    def test_complete_basis_exact(self, rng):
        mesh, K = self.setup_system()
        b = rng.normal(size=mesh.n_nodes)
        x_ref = spla.spsolve(K.tocsc(), b)
        labels = pdsolver.partition_elements(mesh, 2)
        interior, _ = pdsolver.classify_nodes(mesh, labels)
        modes = max(len(s) for s in interior)
        cms = pdsolver.build_cms(K, mesh, n_domains=2, modes_per_domain=modes)
        x = cms.solve(b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_boundary_only_exact_for_boundary_loads(self, rng):
        mesh, K = self.setup_system()
        labels = pdsolver.partition_elements(mesh, 2)
        interior, boundary = pdsolver.classify_nodes(mesh, labels)
        b = np.zeros(mesh.n_nodes)
        b[boundary] = rng.normal(size=len(boundary))
        cms = pdsolver.build_cms(K, mesh, n_domains=2, modes_per_domain=0)
        x = cms.solve(b)
        x_ref = spla.spsolve(K.tocsc(), b)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_reduced_matrix_spd(self):
        mesh, K = self.setup_system()
        cms = pdsolver.build_cms(K, mesh, n_domains=2, modes_per_domain=10)
        w = np.linalg.eigvalsh(cms.K_red.toarray())
        assert w.min() > 0.0

    def test_truncated_plus_refinement_converges(self, rng):
        mesh, K = self.setup_system()
        b = rng.normal(size=mesh.n_nodes)
        x_ref = spla.spsolve(K.tocsc(), b)
        cms = pdsolver.build_cms(K, mesh, n_domains=2, modes_per_domain=15)
        x0 = cms.solve(b)
        coarse = np.linalg.norm(x0 - x_ref) / np.linalg.norm(x_ref)
        x, info = pdsolver.a_jacobi_refine(K, b, x0, sweeps=300, aggregation=2)
        fine = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        assert not info["diverged"]
        assert fine < 1e-8 < coarse

    def test_mode_request_capped_at_interior_size(self):
        mesh, K = self.setup_system()
        cms = pdsolver.build_cms(K, mesh, n_domains=2, modes_per_domain=10**6)
        assert all(blk is None or blk[1].shape[1] <= len(blk[0]) for blk in cms.blocks)

    def test_partition_respects_explicit_labels(self):
        mesh, K = self.setup_system()
        labels = np.zeros(mesh.n_elements, dtype=int)
        labels[mesh.n_elements // 2:] = 1
        got = pdsolver.partition_elements(mesh, 2, labels)
        assert np.array_equal(got, labels)
        with pytest.raises(ValueError):
            pdsolver.partition_elements(mesh, 2, labels[:-1])

    def test_classification_covers_all_nodes(self):
        mesh, K = self.setup_system()
        labels = pdsolver.partition_elements(mesh, 3)
        interior, boundary = pdsolver.classify_nodes(mesh, labels)
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

    def test_chebyshev_converges_no_slower(self, rng):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 4.0, 2.0)
        K = pdsolver.assemble_global(mesh, gam, 1e-2)
        b = rng.normal(size=mesh.n_nodes)
        x_ref = spla.spsolve(K.tocsc(), b)
        x_p, _ = pdsolver.a_jacobi_refine(K, b, np.zeros_like(b), sweeps=40,
                                          aggregation=2)
        x_c, info = pdsolver.a_jacobi_refine(K, b, np.zeros_like(b), sweeps=40,
                                             aggregation=2, chebyshev=True)
        assert not info["diverged"]
        err_p = np.linalg.norm(x_p - x_ref)
        err_c = np.linalg.norm(x_c - x_ref)
        assert err_c <= err_p * 1.01

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
        gam = mat.MaterialField.uniform(mesh.n_elements, 50.0, 25.0)
        st = pdsolver.SimState(x=mesh.nodes, v=np.zeros_like(mesh.nodes),
                               dt=2e-3, colliders=colliders)
        f = mesh.node_mass[:, None] * np.array([0.0, -9.8, 0.0])
        for _ in range(steps):
            pdsolver.pd_step(st, mesh, gam, iterations=10, forces=f, damping=0.9)
        return mesh, st

    def test_plane_resting_contact_depth(self):
        mesh0, _, _ = wavy_mesh(n=22, cell=0.05)
        floor_y = mesh0.nodes[:, 1].min() + 0.02
        mesh, st = self.settle((("plane", (0.0, floor_y, 0.0), (0.0, 1.0, 0.0)),))
        pen = floor_y - st.x[:, 1].min()
        assert pen < 1e-4 * mesh.cell_size

    def test_sphere_resting_contact_depth(self):
        mesh0, _, _ = wavy_mesh(n=22, cell=0.05)
        c = mesh0.nodes.mean(axis=0) + np.array([0.0, -0.4, 0.0])
        r = 0.35
        mesh, st = self.settle((("sphere", c, r),))
        pen = r - np.linalg.norm(st.x - c, axis=1).min()
        assert pen < 1e-4 * mesh.cell_size

    def test_collide_project_snaps_inside_nodes(self):
        x = np.array([[0.0, -0.5, 0.0], [0.0, 0.5, 0.0]])
        st = pdsolver.SimState(x=x, v=np.zeros_like(x), dt=1e-3,
                               colliders=(("plane", (0, 0, 0), (0, 1, 0)),))
        pdsolver.collide_project(st)
        assert np.allclose(st.x[0], [0.0, 0.0, 0.0])
        assert np.allclose(st.x[1], [0.0, 0.5, 0.0])

    def test_unknown_collider_kind_rejected(self):
        with pytest.raises(ValueError):
            pdsolver.collider_targets(np.zeros((1, 3)), [("torus", 0, 1)])


class TestSimulate:
    def test_cms_mode_matches_direct(self):
        mesh, _, _ = wavy_mesh(mass_floor=1e-5)
        gam = mat.MaterialField.uniform(mesh.n_elements, 5.0, 3.0)
        dt = 1e-3
        pins = np.flatnonzero(np.abs(mesh.nodes[:, 0] - mesh.nodes[:, 0].min()) < 1e-9)
        f = mesh.node_mass[:, None] * np.array([0.0, -9.8, 0.0])
        kw = dict(forces=f, pins=pins, pin_targets=mesh.nodes[pins], iterations=8)
        direct = pdsolver.simulate_mesh(mesh, gam, 4, dt, **kw)
        reduced = pdsolver.simulate_mesh(mesh, gam, 4, dt, solver_mode="cms",
                                         n_domains=2, modes_per_domain=12,
                                         refine_sweeps=200, **kw)
        scale = np.abs(direct[-1]).max()
        assert np.abs(direct - reduced).max() < 1e-7 * max(scale, 1.0)

"""Layer bench: per-call times of the kernels one projective-dynamics round
runs, of the CMS solver build, of the fit's projection Jacobians,
exact-Hessian assembly, equilibrium solves and Gauss-Newton direction, of
a whole fit, of the load path (voxelize, yarn embedding, element
targets) and of the rod simulator that generates the poses, at fixed sizes
and seeds.

    python -m pytest bench --benchmark-json=BENCH_layers.json

Kept outside tests/ so the test suite does not time anything.  Sizes follow
the benchmark patch (a 6x40 rib at cell 0.03: 192 tets, 81 nodes) and the
acceptance patch's element count (1,560 tets); the load-path rows and
the exact-Hessian rows build both patches (a 25x200 rib at cell 0.04 for
the acceptance one).  The material module keeps the decompositions and
projection Jacobians of the last two F it saw, so every row that repeats
one F forgets them first and times a fresh decomposition.
"""

import numpy as np
import pytest

from volknit import cli, fitting, transfer
from volknit import material as mat
from volknit import pdsolver, volmesh, yarn_model

SPREAD = {"mild": 0.05, "severe": 0.6}


def _gradients(kind, size):
    rng = np.random.default_rng(size)
    return np.eye(3) + SPREAD[kind] * rng.normal(size=(size, 3, 3))


def _fresh(fn):
    """fn with the kept decomposition forgotten before each call."""
    def run(*args):
        mat.clear_decomposition_cache()
        return fn(*args)
    return run


@pytest.mark.parametrize("size", [192, 1560])
@pytest.mark.parametrize("kind", sorted(SPREAD))
def test_batch_projections(benchmark, kind, size):
    benchmark(_fresh(mat.batch_projections), _gradients(kind, size))


@pytest.mark.parametrize("size", [192, 1560])
@pytest.mark.parametrize("kind", sorted(SPREAD))
def test_projection_jacobians_batch(benchmark, kind, size):
    benchmark(_fresh(mat.projection_jacobians_batch), _gradients(kind, size))


@pytest.mark.parametrize("size", [192, 1560])
@pytest.mark.parametrize("kind", sorted(SPREAD))
def test_svd_rv_batch(benchmark, kind, size):
    benchmark(mat.svd_rv_batch, _gradients(kind, size))


@pytest.mark.parametrize("size", [192, 1560])
@pytest.mark.parametrize("kind", sorted(SPREAD))
def test_sl3_sigma_project_batch(benchmark, kind, size):
    """The volume projection alone, on the singular values of the same F."""
    sig = mat.svd_rv_batch(_gradients(kind, size))[1]
    benchmark(mat.sl3_sigma_project_batch, sig)


def _pinned(courses, wales, cell=0.03):
    """A rib patch: its global matrix, the end nodes pinned, and three
    right-hand side columns."""
    model = yarn_model.rib_patch(courses=courses, wales=wales, course_spacing=0.005,
                                 wale_spacing=0.005, amplitude=0.002,
                                 rib_period=4, linear_density=0.002)
    mesh = volmesh.voxelize(model, cell)
    volmesh.lump_mass(mesh, model, volmesh.embed_yarn(mesh, model))
    K = pdsolver.assemble_global(mesh, np.ones((2, mesh.n_elements)), 2e-2)
    x = mesh.nodes[:, 0]
    pins = np.flatnonzero((x <= x.min() + 1e-9) | (x >= x.max() - 1e-9))
    free = np.setdiff1d(np.arange(mesh.n_nodes), pins)
    rng = np.random.default_rng(0)
    return mesh, K, pins, free, rng.normal(size=(mesh.n_nodes, 3)), mesh.nodes[pins]


@pytest.fixture(scope="module")
def patch():
    """The fitted-size patch (6x40)."""
    return _pinned(6, 40)


@pytest.mark.parametrize("mode,n_tets", [("direct", 192), ("cms", 192),
                                         ("direct", 2520), ("cms", 2520)],
                         ids=["direct", "cms", "direct-2520", "cms-2520"])
def test_global_solve(benchmark, patch, mode, n_tets):
    """One pinned three-column solve on the fitted-size patch, or on a 25x200
    patch (2,520 tets, 756 nodes) where the sparse products outweigh the
    refinement's per-sweep Python work."""
    mesh, K, pins, free, B, pin_vals = patch if n_tets == 192 else _pinned(25, 200)
    assert mesh.n_elements == n_tets
    # the CLI's simulate defaults for the CMS solver
    solver = pdsolver.GlobalSolver(K, pins, mode=mode, mesh=mesh, n_domains=2,
                                   modes_per_domain=20, refine_sweeps=30, aggregation=2)
    X = benchmark(solver.solve, B, pin_vals)
    assert np.all(np.isfinite(X))


@pytest.mark.parametrize("n_tets", [192, 2520])
def test_cms_build(benchmark, patch, n_tets):
    """Building the CMS solver of the pinned global matrix with the CLI's
    simulate defaults: the free-free block, its component-mode basis and
    reduced factorization, on the fitted-size or the 25x200 patch."""
    mesh, K, pins, free, _, _ = patch if n_tets == 192 else _pinned(25, 200)
    assert mesh.n_elements == n_tets
    solver = benchmark(pdsolver.GlobalSolver, K, pins, mode="cms", mesh=mesh,
                       n_domains=2, modes_per_domain=20, refine_sweeps=30, aggregation=2)
    assert solver.cms.T.shape[0] == len(free)


@pytest.mark.parametrize("layer,n_tets", [("elastic_rhs", 192), ("exact_elastic_hessian", 192),
                                          ("exact_elastic_hessian", 1560)],
                         ids=["elastic_rhs", "exact_elastic_hessian", "exact_elastic_hessian-1560"])
def test_element_operator(benchmark, patch, layer, n_tets):
    """One local-step right-hand side, or one exact-Hessian assembly of the
    free block with its projection Jacobians, as the fit makes it with the
    end nodes pinned, on the fitted-size patch or a 25x200 patch at cell
    0.04 (1,560 tets), stretched by 10 % with noise."""
    mesh, _, _, free, _, _ = patch if n_tets == 192 else _pinned(25, 200, 0.04)
    assert mesh.n_elements == n_tets
    rng = np.random.default_rng(1)
    x = mesh.nodes * np.array([1.1, 1.0, 1.0]) + 1e-3 * rng.normal(size=mesh.nodes.shape)
    gammas = np.ones((2, mesh.n_elements))
    if layer == "elastic_rhs":
        out = benchmark(_fresh(pdsolver.elastic_rhs), mesh, gammas, x)
    else:
        fdofs = (3 * free[:, None] + np.arange(3)).reshape(-1)
        out = benchmark(_fresh(pdsolver.exact_elastic_hessian), mesh, gammas, x, fdofs).data
    assert np.all(np.isfinite(out))


def _stretched_sample():
    """The benchmark patch stretched by 10 % with its end columns pinned: its
    fit problem and that one sample."""
    model = yarn_model.rib_patch(courses=6, wales=40, course_spacing=0.005,
                                 wale_spacing=0.005, amplitude=0.002,
                                 rib_period=4, linear_density=0.002)
    mesh = volmesh.voxelize(model, 0.03)
    emb = volmesh.embed_yarn(mesh, model)
    volmesh.lump_mass(mesh, model, emb)
    problem = fitting.FitProblem(transfer.Y2VOperator(mesh, emb, model))
    x = model.rest_vertices[:, 0]
    ends = np.flatnonzero((x <= x.min() + 1e-9) | (x >= x.max() - 1e-9))
    pose = model.rest_vertices * np.array([1.1, 1.0, 1.0])
    return problem, fitting.build_sample(problem.op, [pose], 0, yarn_pins=ends)


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_solve_equilibrium(benchmark, start):
    """One fit equilibrium on the stretched benchmark patch: cold from the
    transferred pose, or warm from the equilibrium of coefficients 1 % away,
    as a line-search trial starts."""
    problem, sample = _stretched_sample()
    nE = problem.mesh.n_elements
    rng = np.random.default_rng(2)
    gammas = 1.0 + 0.01 * rng.normal(size=(2, nE))
    x0 = None
    if start == "warm":
        warm = problem.solve_equilibrium(np.ones((2, nE)), sample)
        assert warm.converged
        x0 = warm.x
    eq = benchmark(_fresh(problem.solve_equilibrium), gammas, sample, x0)
    assert eq.converged and eq.residual < 1e-6


@pytest.fixture(scope="module")
def fitted():
    """The stretched benchmark patch fitted from unit coefficients with the
    benchmark's schedule (ranks 1 and full, 3 GD and 6 GN iterations): its
    adjoint states there and its full-space active set, the floored
    coefficients with a positive gradient."""
    problem, sample = _stretched_sample()
    res, _ = fitting.fit_staged(problem, [sample], np.ones(2 * problem.mesh.n_elements),
                                ranks=(1, None), gd_iters=3, gn_iters=6)
    gammas = res.gamma.reshape(2, -1)
    states, grad = fitting.objective_gradient(problem, [sample], gammas,
                                              problem.evaluate(gammas, [sample])[1])
    active = np.flatnonzero((grad > 0.0) & (res.gamma <= mat.GAMMA_FLOOR))
    assert len(active)
    return problem, states, active


@pytest.mark.parametrize("rank", [1, 10, None], ids=["rank1", "rank10", "full"])
def test_gn_direction(benchmark, fitted, rank):
    """One Gauss-Newton direction (factorizations and solves) at the fitted
    state of the 192-tet patch: in the rank-1 spectral subspace that the
    benchmark fit runs, in the rank-10 one, or in the full space with its
    active set frozen."""
    problem, states, active = fitted
    basis = None if rank is None else fitting.harmonic_basis(problem.mesh, rank)
    frozen = active if basis is None else ()
    _, _, ok = benchmark(fitting.adjoint_gauss_newton, states, None, basis, frozen)
    assert ok


def test_fit_pass(benchmark):
    """A whole fit of the stretched benchmark patch from unit coefficients
    with the benchmark's schedule: fit_staged over ranks 1 and full (3 GD and
    6 GN iterations), then fit_sequence's full-space pass, warm from the
    staged states."""
    problem, sample = _stretched_sample()
    gamma0 = np.ones(2 * problem.mesh.n_elements)

    def fit():
        mat.clear_decomposition_cache()
        res, _ = fitting.fit_staged(problem, [sample], gamma0, ranks=(1, None),
                                    gd_iters=3, gn_iters=6)
        return fitting.fit_sequence(problem, [sample], res, gd_iters=3, gn_iters=6)

    _, report = benchmark(fit)
    assert not report["failed"] and problem.gate_violations == 0


# rib patch size, cell size and tet count
PATCHES = {
    "bench": (dict(courses=6, wales=40), 0.03, 192),
    "acceptance": (dict(courses=25, wales=200), 0.04, 1560),
}


@pytest.mark.parametrize("name", sorted(PATCHES))
@pytest.mark.parametrize("layer", ["voxelize", "embed_yarn", "element_targets"])
def test_load_path(benchmark, layer, name):
    """Voxelizing a rib patch, embedding its yarn in the voxel mesh, or the
    element targets of the patch stretched by 10 % with noise."""
    kw, cell, n_tets = PATCHES[name]
    model = yarn_model.rib_patch(course_spacing=0.005, wale_spacing=0.005, amplitude=0.002,
                                 rib_period=4, linear_density=0.002, **kw)
    mesh = volmesh.voxelize(model, cell)
    if layer == "voxelize":
        benchmark(volmesh.voxelize, model, cell)
    elif layer == "embed_yarn":
        benchmark(volmesh.embed_yarn, mesh, model)
    else:
        rng = np.random.default_rng(3)
        pose = (model.rest_vertices * np.array([1.1, 1.0, 1.0])
                + 1e-4 * rng.normal(size=model.rest_vertices.shape))
        benchmark(transfer.element_targets, mesh, volmesh.embed_yarn(mesh, model), model, pose)
    assert mesh.n_elements == n_tets


@pytest.mark.parametrize("name,steps", [("bench", 40), ("acceptance", 4)])
def test_simulate_yarn(benchmark, name, steps):
    """The rod simulator as the benchmark's generate runs it: the end columns
    of a rib patch pinned and pulled 10 % over 40 frames with contacts off,
    on the bench patch, or the first 4 of those frames on the acceptance
    patch (5,000 yarn vertices, where generate runs 80 frames)."""
    model = yarn_model.rib_patch(course_spacing=0.005, wale_spacing=0.005, amplitude=0.002,
                                 rib_period=4, linear_density=0.002, **PATCHES[name][0])
    left, right, ext = cli._end_groups(model.rest_vertices, model)
    pins = np.concatenate([left, right])
    path = cli.scenario_pin_path(model.rest_vertices[pins], np.arange(len(pins)) >= len(left),
                                 "stretch", 40, 0.1, ext, model.rest_vertices[right].mean(axis=0),
                                 0.0)[:steps]
    params = yarn_model.RodParams(contacts=False, damping=0.85)
    seq = benchmark(yarn_model.simulate_yarn, model, steps, 2e-3, pins=pins, pin_targets=path,
                    params=params)
    assert np.all(np.isfinite(seq.frames))

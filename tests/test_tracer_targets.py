"""The traced benchmark wraps volknit functions by name: every target that
perfbench/tracer.py lists must resolve, and its note functions must read
the right fields of real returns, so a rename or a reordered return fails
here instead of in a traced benchmark run.  The tracer module is only read;
installing it would rebind module globals for the rest of the session."""

import importlib
import importlib.util
import os

import types

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from volknit import fitting, pdsolver, volmesh, yarn_model

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(modname, path):
    mod = importlib.import_module(f"volknit.{modname}")
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name, None)
        return isinstance(cls, type) and callable(vars(cls).get(meth))
    return callable(getattr(mod, path, None))


def test_every_trace_target_resolves():
    tracer = load_tracer()
    missing = [f"{m}.{p}" for m, p, _ in tracer.TARGETS if not resolves(m, p)]
    assert not missing


def test_every_parent_span_is_a_target():
    tracer = load_tracer()
    names = {tracer.span_name(m, p) for m, p, _ in tracer.TARGETS}
    assert set(tracer.PARENTS) <= names


def small_mesh():
    model = yarn_model.rib_patch(courses=3, wales=12, course_spacing=0.005,
                                 wale_spacing=0.005, amplitude=0.002, rib_period=4)
    mesh = volmesh.voxelize(model, 0.03)
    volmesh.lump_mass(mesh, model, volmesh.embed_yarn(mesh, model))
    return mesh, oracles.uniform(mesh.n_elements, 1.0, 1.0)


def test_polish_note_counts_the_iterations(monkeypatch):
    # every iteration of newton_polish evaluates one exact Jacobian
    tracer = load_tracer()
    mesh, gam = small_mesh()
    jacobians = []
    hessian = pdsolver.exact_elastic_hessian
    monkeypatch.setattr(pdsolver, "exact_elastic_hessian",
                        lambda *a: jacobians.append(1) or hessian(*a))
    xhat = mesh.nodes * 1.01
    args, kwargs = (mesh, gam, xhat), dict(dt=1e-3, xhat=xhat, tol=1e-9)
    out = pdsolver.newton_polish(*args, **kwargs)
    assert len(jacobians) > 0
    assert tracer._polish_iters(args, kwargs, out) == {"iters": len(jacobians)}


def test_gauss_newton_note_reads_the_ok_flag():
    # a singular H fails the full-space solve and a spectral stage's LU alike;
    # splu raises on it, so an LU that solves to NaN stands in for its LU
    tracer = load_tracer()
    n, nE = 4, 3
    rng = np.random.default_rng(0)
    J = sp.csr_matrix(rng.normal(size=(3 * n, 2 * nE)))
    nan_lu = types.SimpleNamespace(solve=lambda b: np.full(b.shape, np.nan))
    for basis in (None, np.full((nE, 1), 1.0 / np.sqrt(nE))):
        for H, rejected in ((sp.eye(3 * n, format="csc"), 0),
                            (sp.csc_matrix((3 * n, 3 * n)), 1)):    # singular
            state = fitting.AdjointState(H=H, lu=nan_lu if rejected else spla.splu(H), J=J,
                                         G=sp.eye(3 * n, format="csr"),
                                         grad=rng.normal(size=2 * nE))
            out = fitting.adjoint_gauss_newton([state], basis=basis)
            assert out[2] == (not rejected)
            assert tracer._gn_rejected(([state],), {"basis": basis}, out) == {"rejected": rejected}


def test_simulate_reaches_step_and_polish_through_module_attributes(monkeypatch):
    # the tracer counts the calls of the wrapped module attributes, so
    # simulate_mesh must look pd_step and newton_polish up there: once per
    # step, and the polish once per polished step
    mesh, gam = small_mesh()
    calls = []
    for name in ("pd_step", "newton_polish"):
        def counted(*args, _f=getattr(pdsolver, name), _n=name, **kw):
            calls.append(_n)
            return _f(*args, **kw)
        monkeypatch.setattr(pdsolver, name, counted)
    pdsolver.simulate_mesh(mesh, gam, 3, 1e-2, pins=[0], iterations=2)
    assert calls == ["pd_step"] * 3
    calls.clear()
    pdsolver.simulate_mesh(mesh, gam, 3, 1e-2, pins=[0], iterations=2, polish_tol=1e-6)
    assert calls == ["pd_step", "newton_polish"] * 3

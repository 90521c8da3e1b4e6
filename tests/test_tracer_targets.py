"""The traced benchmark wraps volknit functions by name: every target that
perfbench/tracer.py lists must resolve, so a rename fails here instead of
in a traced benchmark run.  The tracer module is only read; installing it
would rebind module globals for the rest of the session."""

import importlib
import importlib.util
import os

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

"""The benchmark's tracer finds every function it wraps.

bench/spans.py looks each traced function up in ``vars(owner)``, so a
function that moves to a base class or loses its import into a traced
namespace breaks every traced benchmark run; this catches it in the unit
suite.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_where_the_tracer_looks():
    spans = _spans_module()
    pairs = [pair for targets, _ in spans.TRACED.values()
             for pair in targets]
    assert pairs
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in pairs if attr not in vars(owner)]
    assert missing == []
    # installing and uninstalling puts every original back
    originals = [vars(owner)[attr] for owner, attr in pairs]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw
               for (owner, attr), raw in zip(pairs, originals))

"""The traced benchmark's spans still find every layer function they patch.

``perfbench/spans.py`` wraps solver functions by (owner, attribute) name; a
solver change that renames or bypasses one of them leaves that span without
a call, which the traced benchmark reports as an error.  This test runs the
same check on a small stiff configuration through the thread-block path.
"""
import importlib.util
from pathlib import Path

from aderfv.harness import build_config, make_case
from aderfv.scheme import run

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_calls_every_span_target():
    spans = load_spans()
    config = build_config(make_case("leveque-yee", beta=-1000.0), order=3,
                          cells=60, t_out=0.02, n_threads=2)
    tracer = spans.Tracer(config.predictor.residual_tol)
    with tracer.install(config) as traced:
        run(traced)
    assert tracer.spans
    assert tracer.uncalled() == []

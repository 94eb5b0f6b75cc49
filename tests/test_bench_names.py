"""The names the benchmark traces exist in the package.

bench/spans.py wraps functions and methods by (module, attribute) lookups,
and a lookup that no longer resolves is only reported, not fatal: a rename
in the package would silently drop its layer from the benchmark's figures.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_resolves():
    spans = load_spans()
    tracer = spans.Tracer(wrapper_ns=(0.0, 0.0))
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_tracer_wraps_nothing_twice():
    """A wrapped method that one wrapped class inherits from another would be
    wrapped twice and count each call twice: every original the tracer
    replaces is unwrapped, and it replaces each (owner, attribute) once."""
    spans = load_spans()
    tracer = spans.Tracer(wrapper_ns=(0.0, 0.0))
    tracer.install()
    try:
        restore = tracer._restore
        assert [attr for _, attr, original, _ in restore if hasattr(original, "__wrapped__")] == []
        pairs = [(owner, attr) for owner, attr, _, _ in restore]
        assert len(pairs) == len(set(pairs))
    finally:
        tracer.uninstall()

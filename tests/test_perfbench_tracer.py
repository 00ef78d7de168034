"""The benchmark's span tracer (perfbench/spans.py) still installs on decal and puts back what it wrapped.

The tracer looks up each wrapped name from outside, so deleting a module
attribute or a class it walks through breaks the benchmark, not decal's own
tests; this test makes such a deletion fail here.
"""

import importlib
import importlib.util
from pathlib import Path

from decal import learner

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_slots(spans):
    """(owner, name, value before install) of each name the tracer wraps, looked up as the tracer does."""
    slots = []
    for module, attribute, _, _ in spans.WRAPPED:
        owner = importlib.import_module(module)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        slots.append((owner, name, owner.__dict__.get(name)))
    return slots


def test_tracer_installs_and_restores_every_wrapped_attribute(tmp_path):
    spans = load_spans()
    slots = wrapped_slots(spans)
    evaluate = learner.evaluate
    tracer = spans.Tracer(tmp_path / "spool")
    try:
        tracer.install()
        for owner, name, original in slots:
            if original is not None:
                assert owner.__dict__[name] is not original, f"{owner.__name__}.{name} was not wrapped"
    finally:
        tracer.uninstall()
    assert learner.evaluate is evaluate
    for owner, name, original in slots:
        assert owner.__dict__.get(name) is original, f"{owner.__name__}.{name} was not restored"

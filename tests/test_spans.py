"""The layer names the benchmark's tracer wraps must keep resolving.

``perfbench/spans.py`` is read, not changed: every ``(module, attribute)`` in
its ``SPANS`` table must still name a callable, or ``run.py --trace 1`` breaks.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans_table():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_target_resolves():
    spans = load_spans_table()
    assert spans
    for module_name, attribute, span, _ in spans:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{attribute} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{attribute} is not callable"

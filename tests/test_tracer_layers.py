"""The benchmark tracer's layer table names functions the package still binds.

``perfbench/tracer.py`` skips a listed function it cannot find, so a
renamed or moved function would silently lose its span; this test fails
instead.  The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves_where_the_tracer_looks_it_up():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracer.LAYERS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []

"""Every name the benchmark tracer wraps resolves in the package.

perfbench/tracer.py wraps the functions and methods listed in its
LAYERS by module and attribute path.  A name that no longer resolves
breaks `perfbench/run.py --trace 1`, so the names are checked here
without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_to_a_callable():
    tracer = load_tracer()
    for module in tracer.MODULES:
        importlib.import_module(f"persheaf.{module}")
    unresolved = []
    for module, attr, _, _ in tracer.LAYERS:
        owner = importlib.import_module(f"persheaf.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module}.{attr}")
    assert unresolved == []

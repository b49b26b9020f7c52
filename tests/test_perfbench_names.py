import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # The traced run only prints the names it cannot find, so a renamed
    # function would silently zero its per-layer metrics.  The harness file
    # is read and run as source, so no bytecode is written next to it.
    spec = importlib.util.spec_from_loader("perfbench_tracing", loader=None)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    missing = [
        span for span, (module, attr) in tracing.TRACED.items()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TRACED and not missing

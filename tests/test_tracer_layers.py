"""Every function the benchmark tracer wraps must exist under the name it
uses, or a traced benchmark run fails with an AttributeError."""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    sys.modules.pop("tracing")
    assert pathlib.Path(tracing.__file__).parent == PERFBENCH
    missing = []
    for span, (module, attrs, _) in tracing.LAYERS.items():
        home = importlib.import_module(f"pebblex.{module}")
        for attr in attrs:
            owner = home
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{span}: pebblex.{module}.{attr}")
    assert not missing

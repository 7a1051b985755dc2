"""The benchmark's traced run wraps library functions by name; a name that
no longer exists would break every traced run with an AttributeError."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import decorgnn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports spans
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = {info.name: importlib.import_module(f"decorgnn.{info.name}")
               for info in pkgutil.iter_modules(decorgnn.__path__)}
    targets = layers.targets(modules)
    assert targets
    missing = [span for owner, attr, span, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names missing from decorgnn: {missing}"

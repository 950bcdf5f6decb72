"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces package functions and methods by name, so
a refactor that drops or renames one of them would only show when a traced
benchmark run fails.  This loads the tracer from its file, installs it and
uninstalls it again.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_attributes(targets) -> dict:
    """Every attribute the tracer may replace: the package modules' and the traced classes'."""
    owners = [m for name, m in sys.modules.items() if name == "contactmech" or name.startswith("contactmech.")]
    owners += [owner for owner, _ in targets if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners for key, value in list(vars(owner).items())}


def test_tracer_installs_and_restores_every_attribute():
    module = _load_tracer()
    targets = [(owner, attr) for _, owner, attr in module.TARGETS]
    before = _package_attributes(targets)
    tracer = module.Tracer()
    tracer.install()
    try:
        for owner, attr in targets:
            assert vars(owner)[attr] is not before[(id(owner), attr)], attr
    finally:
        tracer.uninstall()
    after = _package_attributes(targets)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

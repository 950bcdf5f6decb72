"""Every exported name of the package resolves."""

import importlib
import pkgutil

import contactmech


def test_every_export_resolves():
    names = sorted(info.name for info in pkgutil.iter_modules(contactmech.__path__))
    assert {"ad", "cli", "expr", "sampling"} <= set(names)
    modules = [contactmech] + [importlib.import_module(f"contactmech.{name}") for name in names]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    # the jet rules live in the compiled code; ad holds only the containers
    assert contactmech.ad.__all__ == ["DomainError", "Jet2", "JetBlock"]

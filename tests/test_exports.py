import importlib
import pkgutil

import nornet


def test_every_module_exports_only_names_it_defines():
    modules = [nornet] + [importlib.import_module(f"nornet.{info.name}")
                          for info in pkgutil.iter_modules(nornet.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)

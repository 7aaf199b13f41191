import importlib
import pkgutil
import types

import angiosim


def test_every_module_export_resolves():
    # a name left in __all__ after its definition went would only fail on a
    # user's star import; catch it here
    modules = sorted(m.name for m in pkgutil.iter_modules(angiosim.__path__))
    assert {"grid", "elliptic", "dynamics", "functionals", "harness"} <= set(modules)
    for name in modules:
        mod = importlib.import_module(f"angiosim.{name}")
        missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
        assert missing == [], f"angiosim.{name}.__all__ names {missing}"


def test_package_exports_are_the_modules_all_lists():
    modules = ("grid", "elliptic", "functionals", "dynamics", "thresholds", "config", "harness")
    declared = set()
    for name in modules:
        declared.update(importlib.import_module(f"angiosim.{name}").__all__)
    public = {name for name, value in vars(angiosim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == declared

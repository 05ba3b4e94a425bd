"""The package exports each module's public names, listed once in the module's __all__."""

import importlib
import pkgutil

import greenlink

# cli is the command-line runner and __main__ its entry point; neither exports names here
MODULES = [importlib.import_module(f"greenlink.{info.name}")
           for info in pkgutil.iter_modules(greenlink.__path__)
           if info.name not in ("cli", "__main__")]


def test_all_is_the_modules_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert sorted(greenlink.__all__) == sorted(listed + ["__version__"])
    assert len(set(greenlink.__all__)) == len(greenlink.__all__)


def test_each_name_is_its_modules_object():
    # greenlink.simulate and greenlink.efficiency are the functions, not the modules
    for module in MODULES:
        for name in module.__all__:
            assert getattr(greenlink, name) is getattr(module, name), name

import inspect
import pkgutil

import diamondwalk
from diamondwalk import bands, config, diamond, lattice, multiport, walk

# the modules whose public names the package re-exports; cli is the front end
MODULES = (bands, config, diamond, lattice, multiport, walk)


def test_package_exports_exactly_its_modules_lists():
    assert {m.name for m in pkgutil.iter_modules(diamondwalk.__path__)} == {
        "cli", *(m.__name__.rsplit(".", 1)[1] for m in MODULES)}
    expected = [name for module in MODULES for name in module.__all__]
    assert diamondwalk.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(diamondwalk, name) is getattr(module, name), name


def test_each_module_defines_the_names_it_lists():
    for module in MODULES:
        for name in module.__all__:
            value = vars(module)[name]
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module.__name__, name)

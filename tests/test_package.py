import ast
import inspect
import pkgutil
from pathlib import Path

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


def test_every_module_uses_the_names_it_imports():
    # __init__'s star imports re-export, and __future__ imports set compiler flags
    for path in sorted(Path(diamondwalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names if alias.name != "*"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_every_private_module_name_is_loaded_in_the_package():
    # a module-level _name that nothing in src/ reads is dead code left behind
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(diamondwalk.__file__).parent.glob("*.py"))]
    loaded = {node.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= {node.attr for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert private, "no private names found"
    assert private <= loaded, sorted(private - loaded)


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["1", "1.6"]
    assert 0.0 < float(lines[2]) <= 1.0  # the probability near m = 0

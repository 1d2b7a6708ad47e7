import ast
import sys
from pathlib import Path

import udgsolver


def test_package_imports_only_stdlib():
    # the package is pure standard-library Python; numpy and other installed
    # packages must not become dependencies
    sources = sorted(Path(udgsolver.__file__).resolve().parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "udgsolver" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_no_unused_imports():
    # every name a module imports is read somewhere in it; __init__ re-exports
    # its imports as the package's public names
    sources = sorted(Path(udgsolver.__file__).resolve().parent.glob("*.py"))
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "annotations":
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]
    assert unused == []

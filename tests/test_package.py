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

"""The package is numpy-only: its modules import numpy and the standard library alone."""

import ast
import sys
from pathlib import Path

import risimage


def test_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    modules = sorted(Path(risimage.__file__).parent.rglob("*.py"))
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: relative
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert len(modules) >= 10
    assert foreign == []

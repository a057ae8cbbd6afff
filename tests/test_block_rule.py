"""One block rule: only ``em_core`` binds a block-size name at module level.

Every row-block pass sizes its blocks through ``em_core.block_rows`` from
``em_core.BLOCK_ENTRIES``, so no other module defines or imports a constant of
its own whose name holds ``CHUNK`` or ``BLOCK``.
"""

import ast
from pathlib import Path

import risimage


def block_names(source: str) -> list[str]:
    """The module-level names of ``source`` that hold ``CHUNK`` or ``BLOCK``:
    assigned, imported, or defined as a function or class."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [name for name in names if "CHUNK" in name or "BLOCK" in name]


def test_the_detector_finds_every_kind_of_binding():
    source = (
        "import x\nfrom .em_core import BLOCK_ENTRIES, block_rows\nfrom y import z as _CHUNK\n"
        "_ROW_CHUNK = 1 << 16\nA, (_PASS_BLOCKS, b) = 1, (2, 3)\nN: int = 1\nN_BLOCKS: int = 2\n"
        "def _BLOCK():\n    CHUNK = 1\nclass CHUNKS:\n    BLOCK = 1\n"
    )
    assert block_names(source) == [
        "BLOCK_ENTRIES", "_CHUNK", "_ROW_CHUNK", "_PASS_BLOCKS", "N_BLOCKS", "_BLOCK", "CHUNKS"
    ]


def test_only_em_core_binds_a_block_constant():
    modules = sorted(Path(risimage.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: block_names(path.read_text()) for path in modules}
    assert found.pop("em_core.py") == ["BLOCK_ENTRIES"]
    assert {name: names for name, names in found.items() if names} == {}

"""lrcov needs nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lrcov"


def test_every_import_is_relative_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.partition(".")[0] not in allowed]
    assert outside == []

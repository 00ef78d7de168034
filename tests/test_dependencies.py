"""decal depends on numpy alone: every import in the package names the standard library, numpy or decal."""

import ast
import sys
from pathlib import Path

import decal

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "decal"}


def test_package_imports_only_the_standard_library_and_numpy():
    # scipy is often installed next to numpy, so an accidental import of it would pass every other test
    outside = []
    for path in sorted(Path(decal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not outside

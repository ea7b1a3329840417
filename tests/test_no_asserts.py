import ast
from pathlib import Path

import cubefree


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check of the library may rely on one
    found = []
    for path in sorted(Path(cubefree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

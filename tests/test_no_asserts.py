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


def _top_level_names(tree):
    """(statement, names) for each top-level statement: the names, attributes
    and string constants used anywhere in it."""
    for stmt in tree.body:
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        yield stmt, used


def test_library_leaves_no_private_helper_unused():
    # a module-level _helper that nothing but its own definition mentions is
    # dead code left behind by a deletion
    package = Path(cubefree.__file__).parent
    files = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.rglob("*.py"))
    defined = []  # (file, statement, name)
    used_elsewhere: dict[str, set] = {}  # name -> {(file, statement line)}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt, used in _top_level_names(tree):
            if path.parent == package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((path, stmt.lineno, stmt.name))
            for name in used:
                used_elsewhere.setdefault(name, set()).add((path, stmt.lineno))
    assert len(defined) > 50
    unused = [
        f"{path.name}:{line} {name}"
        for path, line, name in defined
        if not used_elsewhere.get(name, set()) - {(path, line)}
    ]
    assert unused == []


def test_only_extend_lets_find_cube_skip_a_prefix():
    # _after vouches that a prefix is cube-free, which only the exact walks
    # in extend.py know; the CLI, transition words and the oracle scan from
    # scratch
    passed = {}
    for path in sorted(Path(cubefree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        n = sum(1 for call in calls for kw in call.keywords if kw.arg == "_after")
        if n:
            passed[path.name] = n
    assert set(passed) == {"extend.py"}, passed


def _calls_of(tree, name):
    """The calls in tree to a function or method called name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                yield node


def test_only_children_grows_a_walk_in_extend():
    # extend._children is the one place where a walk grows a context, so the
    # walk counters and budgets that live there see every walk
    tree = ast.parse((Path(cubefree.__file__).parent / "extend.py").read_text(encoding="utf-8"))
    children = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_children")
    inside = set(_calls_of(children, "append_check"))
    outside = [call.lineno for call in _calls_of(tree, "append_check") if call not in inside]
    assert inside and outside == [], outside


def test_the_oracle_stays_off_the_fast_paths():
    # the oracle is the independent check on the library: it imports neither
    # walkers nor constructions and calls none of the fast cube checks
    tree = ast.parse((Path(cubefree.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not imported & {"extend", "transition"}, imported
    for name in ("find_cube", "append_check", "is_cube_free", "extension_is_cube_free"):
        assert not list(_calls_of(tree, name)), name

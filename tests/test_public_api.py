"""The package's public names: `cormp.__all__` against what `cormp/__init__.py` imports."""
import ast
import pathlib

import cormp


def imported_names() -> set:
    tree = ast.parse(pathlib.Path(cormp.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_name_resolves():
    missing = [name for name in cormp.__all__ if not hasattr(cormp, name)]
    assert not missing
    assert len(set(cormp.__all__)) == len(cormp.__all__)


def test_the_public_names_are_exactly_the_imported_ones():
    assert set(cormp.__all__) == imported_names()


# defined but called from outside `src/` only
UNREFERENCED: set = set()


def test_every_definition_in_src_is_referenced_elsewhere_in_src():
    # a name counts as referenced where it is loaded as a bare name or an
    # attribute outside its own definition, in any module of the package
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(cormp.__file__).parent.glob("*.py"))}
    uses: dict = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path, tree in trees.items():
        scopes = [(node, "") for node in tree.body]
        while scopes:
            node, owner = scopes.pop()
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qualified = owner + node.name
            if isinstance(node, ast.ClassDef):
                scopes += [(child, qualified + ".") for child in node.body]
            if (node.name.startswith("__") and node.name.endswith("__")
                    or node.name in cormp.__all__ or qualified in UNREFERENCED):
                continue
            if not any(where != path or not node.lineno <= line <= node.end_lineno
                       for where, line in uses.get(node.name, [])):
                unused.append(f"{path.name}:{qualified}")
    assert unused == []

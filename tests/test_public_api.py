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

import ast
from pathlib import Path

import orthofermi
from code_lines import code_lines


def test_every_export_is_used_inside_the_package():
    # an export that no module of the package reads is API kept alive by nothing.
    # Each export is resolved against the module that defines it, so a local
    # or a field of the same name elsewhere does not count: it is used when
    # another module imports it or reads it as alias.name, or its own module
    # loads it.
    package = Path(orthofermi.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    defined_in = {alias.name: node.module for node in ast.walk(trees.pop("__init__"))
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for module, tree in trees.items():
        aliases = {}  # local name -> package module, from "from . import module as alias"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
    unused = [name for name in orthofermi.__all__
              if name != "__version__" and (defined_in[name], name) not in used]
    assert unused == []


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

import numpy  # a comment after code counts


class A:
    """One line."""
    x = """a string that is no docstring
    counts on both lines"""

    def f(self):
        # a comment alone
        y = 1
        """A string after a statement is no docstring."""
        return y
'''
    assert code_lines(source) == 8

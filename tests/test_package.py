import ast
from pathlib import Path

import pytest

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


def imported(tree):
    """The dotted names that ``tree`` imports, a relative import read as one
    inside ``orthofermi``: ``from . import algebra`` gives ``orthofermi`` and
    ``orthofermi.algebra``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("orthofermi" if node.level else "", node.module)))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_the_algebra_module_is_a_leaf():
    # the algebra is its matrix image, and the package itself needs neither:
    # no module imports it and the root exports nothing defined there
    package = Path(orthofermi.__file__).parent
    importers = [path.stem for path in sorted(package.glob("*.py"))
                 if "orthofermi.algebra" in imported(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []
    tree = ast.parse((package / "algebra.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined and not defined & set(orthofermi.__all__)


@pytest.mark.parametrize("source, found", [
    ("from .algebra import basis\n", True), ("from . import algebra\n", True),
    ("import orthofermi.algebra\n", True),
    ("from orthofermi.algebra import rho0\n", True), ("from orthofermi import algebra\n", True),
    ("from .linalg import check_order\n", False), ("from . import linalg\n", False),
])
def test_the_leaf_guard_finds_each_import_form(source, found):
    assert ("orthofermi.algebra" in imported(ast.parse(source))) is found


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


#: The places that may write out a complex dtype: the one dtype rule itself,
#: the addressable-size check (it sizes by complex128, the larger itemsize)
#: and the [re, im] file format, whose matrices are complex by contract.
COMPLEX_DTYPE_PLACES = {"linalg.field", "linalg.check_addressable", "serialize.encode_matrix",
                        "serialize.decode_matrix"}

COMPLEX_NAMES = {"complex", "complex64", "complex128", "complex256", "csingle", "cdouble",
                 "clongdouble", "complexfloating"}


def names_complex(node):
    return any(isinstance(n, ast.Name) and n.id in COMPLEX_NAMES
               or isinstance(n, ast.Attribute) and n.attr in COMPLEX_NAMES
               or isinstance(n, ast.Constant) and n.value in COMPLEX_NAMES
               for n in ast.walk(node))


def complex_dtype_places(node, scope):
    """``scope.function:line`` of each place under ``node`` that writes out a
    complex dtype: a ``dtype=`` argument, an ``astype``, ``view`` or
    ``np.dtype`` argument that names one, or a numpy complex type."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if (isinstance(node, ast.Attribute) and node.attr in COMPLEX_NAMES
            or isinstance(node, ast.keyword) and node.arg == "dtype" and names_complex(node.value)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("astype", "view", "dtype")
            and any(names_complex(arg) for arg in node.args)):
        yield f"{scope}:{node.lineno}"
    for child in ast.iter_child_nodes(node):
        yield from complex_dtype_places(child, scope)


def test_only_the_dtype_rule_and_the_file_format_write_out_a_complex_dtype():
    # every other module takes its dtype from linalg.field or from its operands,
    # so a real input stays real
    package = Path(orthofermi.__file__).parent
    places = {place for path in sorted(package.glob("*.py"))
              for place in complex_dtype_places(ast.parse(path.read_text(encoding="utf-8")),
                                                path.stem)}
    offending = sorted(place for place in places
                       if place.split(":")[0] not in COMPLEX_DTYPE_PLACES)
    assert offending == [], f"a complex dtype is written out at {', '.join(offending)}"
    # the allow-list names no place that has stopped writing one
    assert {place.split(":")[0] for place in places} == COMPLEX_DTYPE_PLACES


@pytest.mark.parametrize("source, found", [
    ("def f(n):\n    return np.zeros(n, dtype=complex)\n", {"m.f:2"}),
    ("def f(a):\n    return a.astype(complex if a.any() else float)\n", {"m.f:2"}),
    ("class A:\n    def f(self, a):\n        return a.view(np.complex128)\n", {"m.A.f:3"}),
    ("x = np.complex64(1)\n", {"m:1"}),
    ("size = np.dtype('complex').itemsize\n", {"m:1"}),
    ("def f(x):\n    return complex(x), np.zeros(2, dtype=float)\n", set()),
])
def test_the_complex_dtype_guard_finds_each_form(source, found):
    assert set(complex_dtype_places(ast.parse(source), "m")) == found

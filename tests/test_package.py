import ast
from pathlib import Path

import orthofermi


def test_every_export_is_used_inside_the_package():
    # an export that no module of the package reads is API kept alive by nothing
    package = Path(orthofermi.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    assert sorted(set(orthofermi.__all__) - used - {"__version__"}) == []

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cribmem").glob("*.py"))


def test_no_module_imports_another_modules_private_name():
    # A name with a leading underscore belongs to its module: what another
    # module needs is made public where it is defined.
    assert SOURCES
    private = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("cribmem.")):
                private += [f"{path.name}: from {node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []

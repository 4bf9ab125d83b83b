import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cribmem.quadrature import GaussLegendre

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


def test_only_quadrature_builds_gauss_legendre_rules():
    # Every rule comes from quadrature.GaussLegendre, which computes each
    # reference rule once per n.
    users = [path.name for path in SOURCES if "leggauss" in path.read_text()]
    assert users == ["quadrature.py"]


def test_importing_the_package_builds_no_rule():
    # The reference rules are built on first use, so imports (and with them
    # a benchmark's set-up time) do not grow with the cache.
    names = ["cribmem" if path.stem == "__init__" else f"cribmem.{path.stem}"
             for path in SOURCES]
    probe = (f"import {', '.join(names)}\n"
             "from cribmem.quadrature import _reference_rule\n"
             "print(_reference_rule.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SOURCES[0].parents[1])},
                          timeout=120, check=True)
    assert done.stdout.strip() == "0"


def test_rules_of_one_size_share_a_read_only_reference():
    a, b = GaussLegendre(24, 1.0), GaussLegendre(24, 3.0)
    assert a.xi is b.xi and a.weights is b.weights and a.bary is b.bary
    for shared in (a.xi, a.weights, a.bary):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    assert np.array_equal(b.nodes, 1.5 * (1.0 + a.xi))

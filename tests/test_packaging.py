"""Packaging: the source distribution carries the bundled config documents,
and the package imports scipy in one deferred place only."""

import ast
import os
import shutil
import subprocess
import sys
import tarfile

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_DIR, "src", "fwmsim")
CONFIG_DIR = os.path.join(PACKAGE_DIR, "configs")


def test_sdist_carries_the_four_config_documents(tmp_path):
    # the presets read these documents at run time, so a distribution without
    # them cannot run; built from a copy, in its own process, so that neither
    # the checkout nor this process is touched by setuptools
    shutil.copytree(os.path.join(REPO_DIR, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(os.path.join(REPO_DIR, "pyproject.toml"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", "import setuptools.build_meta as b; "
         "print(b.build_sdist('dist'))"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    name = proc.stdout.strip().splitlines()[-1]
    with tarfile.open(tmp_path / "dist" / name) as sdist:
        shipped = {os.path.basename(n): sdist.extractfile(n).read()
                   for n in sdist.getnames() if "/src/fwmsim/configs/" in n
                   and n.endswith(".json")}
    configs = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))
    assert len(configs) == 4
    assert sorted(shipped) == configs
    for f in configs:
        with open(os.path.join(CONFIG_DIR, f), "rb") as fh:
            assert shipped[f] == fh.read()


def _scipy_imports(tree):
    """(enclosing function, imported module) of each ``import scipy...`` and
    ``from scipy... import`` in ``tree``; the function is None at module or
    class level."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Import):
            found.extend((function, a.name) for a in node.names
                         if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "scipy":
            found.append((function, node.module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_scipy_is_imported_only_by_the_ideal_unitary():
    # numpy is the only run-time dependency every command loads: scipy's
    # import costs about half a second, so its one use, expm for the ideal
    # operations, imports it when called
    found = {}
    for folder, _, names in os.walk(PACKAGE_DIR):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    imports = _scipy_imports(ast.parse(fh.read(), path))
                if imports:
                    found[os.path.relpath(path, PACKAGE_DIR)] = imports
    assert found == {"effective.py": [("_ideal_unitary", "scipy.linalg")]}


def test_scipy_import_scan_sees_every_form():
    source = """
import numpy, scipy
import scipy.linalg as sl
from scipy import optimize
from .scipy import x
class A:
    from scipy.sparse import csr_matrix
    def f(self):
        import scipy.special
"""
    assert _scipy_imports(ast.parse(source)) == [
        (None, "scipy"), (None, "scipy.linalg"), (None, "scipy"),
        (None, "scipy.sparse"), ("f", "scipy.special")]

"""Packaging: the source distribution carries the bundled config documents."""

import os
import shutil
import subprocess
import sys
import tarfile

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_DIR, "src", "fwmsim", "configs")


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

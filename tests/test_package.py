"""The package namespace: every exported name exists, and none loads early."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import realcert

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    for name in realcert.__all__:
        getattr(realcert, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from realcert import *", namespace)
    assert set(realcert.__all__) <= namespace.keys()
    assert namespace["jump_search"] is realcert.jumps.jump_search


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        realcert.no_such_name


def test_fresh_import_loads_no_submodule():
    code = ("import sys, realcert\n"
            "print(sorted(m for m in sys.modules if m.startswith('realcert.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

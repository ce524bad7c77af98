import os
import subprocess
import sys
from pathlib import Path

import coopt

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in coopt.__all__ if not hasattr(coopt, name)] == []


def loaded_by_the_command_line(names):
    """Those of ``names`` that a fresh ``import coopt.cli`` puts in ``sys.modules``."""
    code = f"import sys, coopt.cli; print([name for name in {names!r} if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def test_the_command_line_imports_no_test_dependency():
    # the runtime dependency is numpy alone; scipy, hypothesis and pytest are test extras
    assert loaded_by_the_command_line(("scipy", "hypothesis", "pytest")) == "[]"


def test_the_command_line_imports_no_process_pool():
    # only the studies' workers use a pool, and importing one costs every command time
    assert loaded_by_the_command_line(("concurrent.futures", "multiprocessing")) == "[]"

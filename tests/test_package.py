import os
import subprocess
import sys
from pathlib import Path

import coopt

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in coopt.__all__ if not hasattr(coopt, name)] == []


def test_the_command_line_imports_no_test_dependency():
    # the runtime dependency is numpy alone; scipy, hypothesis and pytest are test extras
    code = (
        "import sys, coopt.cli; "
        "print([name for name in ('scipy', 'hypothesis', 'pytest') if name in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"

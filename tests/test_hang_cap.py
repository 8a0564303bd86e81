"""The per-test hang cap of ``tests/conftest.py`` fires without
pytest-timeout: a test that outlives the cap dumps every thread's stack
to the real stderr and ends the run with a failing exit status."""

import os
import pathlib
import subprocess
import sys
import time

import pytest

CONFTEST = pathlib.Path(__file__).with_name("conftest.py")


def test_hang_cap_dumps_and_exits(tmp_path, pytestconfig):
    if pytestconfig.pluginmanager.hasplugin("timeout"):
        pytest.skip("pytest-timeout enforces the cap; the fallback is off")
    source = CONFTEST.read_text()
    assert "\nHANG_CAP_S = 300\n" in source
    (tmp_path / "conftest.py").write_text(
        source.replace("\nHANG_CAP_S = 300\n", "\nHANG_CAP_S = 1\n")
    )
    (tmp_path / "test_sleeps.py").write_text(
        "import time\n\ndef test_sleeps():\n    time.sleep(60)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_sleeps.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert time.monotonic() - t0 < 50
    assert "Timeout" in proc.stderr and "test_sleeps" in proc.stderr

"""Shared test configuration.

``REPRO_BACKEND=numba`` re-runs the suite with the compiled evaluator
backend requested — the CI numba matrix leg sets it after installing
numba.  The backend gates itself off via
``repro.geometry.kernels.numba_available()`` when numba is not
importable, so the same leg degrades to the pure-NumPy path (and the
numba-marked tests skip) on plain runners.

Per-test hang cap: ``pyproject.toml`` sets ``timeout = 300`` for
pytest-timeout.  Where that plugin is not installed, every test runs
under ``faulthandler.dump_traceback_later(300, exit=True)`` instead, so
a wedged worker pool or recovery path dumps every thread's stack and
ends the run rather than hanging it.
"""

import faulthandler
import os

import pytest

from repro import config as repro_config

#: Seconds a single test may run before the stdlib fallback fires;
#: mirrors ``timeout`` in ``pyproject.toml``.
HANG_CAP_S = 300

#: A copy of the real stderr, taken while output capture is suspended,
#: so the dump still reaches the terminal when the process exits with
#: capture active.  ``None`` when pytest-timeout enforces the cap.
_hang_fd = None


def pytest_configure(config):
    global _hang_fd
    backend = os.environ.get("REPRO_BACKEND")
    if backend:
        repro_config.EXECUTION.backend = backend
    if not config.pluginmanager.hasplugin("timeout"):
        _hang_fd = os.dup(2)


def pytest_unconfigure(config):
    global _hang_fd
    if _hang_fd is not None:
        os.close(_hang_fd)
        _hang_fd = None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if _hang_fd is None:
        yield
        return
    faulthandler.dump_traceback_later(HANG_CAP_S, exit=True, file=_hang_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()

"""Driver-side fault-injection harness for crash-recovery tests.

The production side is :mod:`repro.faultpoints`: code under test calls
``reach(name)`` at named barriers, which is a no-op unless the process
runs with ``$REPRO_FAULTPOINTS`` pointing at a directory.  This module
is the other half -- the utilities a *test* uses to drive a victim
process into a barrier and do something unkind to it there.

To kill at a barrier, :func:`hold` it, launch the victim with
:func:`fault_env`, :func:`wait_reached`, then :func:`sigkill`
(:func:`kill_at` does the last two).  The victim dies frozen at an
exact interior point of a write sequence (mid-spool-append,
mid-store-commit, mid-cell), with no sleeps and no races.

Tests that SIGKILL processes are marked ``faultinject`` and run in
their own CI lane (see pyproject.toml and ci.yml).
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.faultpoints import FAULTPOINTS_ENV, _sanitise

#: Default seconds to wait for a victim to hit a barrier / to die.
DEFAULT_TIMEOUT = 30.0

_POLL = 0.01


def marker(root, name: str, kind: str) -> Path:
    """Path of barrier ``name``'s ``reached``/``hold`` marker file."""
    return Path(root) / f"{_sanitise(name)}.{kind}"


def fault_env(root, extra: dict | None = None) -> dict:
    """A full child-process environment with fault points enabled.

    Returns a *copy* of this process's environment plus
    ``$REPRO_FAULTPOINTS`` -- hand it to ``subprocess.Popen(env=...)``.
    ``extra`` entries are merged in.
    """
    env = dict(os.environ)
    env[FAULTPOINTS_ENV] = str(root)
    env.update(extra or {})
    return env


def hold(root, name: str) -> Path:
    """Freeze any process reaching barrier ``name`` until released."""
    Path(root).mkdir(parents=True, exist_ok=True)
    path = marker(root, name, "hold")
    path.touch()
    return path


def release(root, name: str) -> None:
    """Unfreeze barrier ``name`` (no-op if it was never held)."""
    marker(root, name, "hold").unlink(missing_ok=True)


def clear_reached(root, name: str) -> None:
    """Forget that barrier ``name`` was crossed (for multi-hit tests)."""
    marker(root, name, "reached").unlink(missing_ok=True)


def wait_reached(root, name: str, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Block until some victim crosses barrier ``name``.

    Raises :class:`TimeoutError` -- never hangs a test run -- if no
    process reaches the barrier within ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    path = marker(root, name, "reached")
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"no process reached fault barrier {name!r} within {timeout}s"
            )
        time.sleep(_POLL)


def sigkill(pid: int) -> None:
    """Deliver SIGKILL: the victim gets no chance to clean up."""
    os.kill(pid, signal.SIGKILL)


def wait_dead(pid: int, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Wait until ``pid`` (a direct child) has been reaped."""
    deadline = time.monotonic() + timeout
    while time.monotonic() <= deadline:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return  # already reaped elsewhere
        if done == pid:
            return
        time.sleep(_POLL)
    raise TimeoutError(f"pid {pid} still alive {timeout}s after SIGKILL")


def kill_at(process, root, name: str, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Wait for ``process`` to freeze at barrier ``name``, then SIGKILL it.

    ``process`` needs ``pid`` and ``wait()`` (``subprocess.Popen`` and
    ``multiprocessing.Process`` both qualify; the latter's ``join`` is
    picked up via ``wait = join``).  The barrier must have been
    :func:`hold`-ed *before* the process started, else it may run past.
    """
    wait_reached(root, name, timeout)
    sigkill(process.pid)
    waiter = getattr(process, "wait", None) or process.join
    waiter()


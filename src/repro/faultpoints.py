"""Deterministic fault-injection points for crash-recovery tests.

Durability claims ("a host killed mid-cell loses nothing", "a torn
spool append is dropped on recovery") are only testable if a test can
stop a process at an *exact* interior point of a write sequence.  This
module provides that: production code calls :func:`reach` at named
barriers, and the call is a no-op unless the process was launched with
``$REPRO_FAULTPOINTS`` set to a directory.

When enabled, ``reach(name)`` (1) touches ``<dir>/<name>.reached`` so
an observing test knows the barrier was crossed, then (2) blocks while
``<dir>/<name>.hold`` exists.  A test therefore creates the ``.hold``
file, starts the victim process, waits for ``.reached``, and delivers
``SIGKILL`` with the victim frozen exactly at the barrier -- no races,
no sleeps.  See ``tests/faultinject.py`` for the driver side.

Barrier names are free-form; the convention is ``<area>:<event>``
(``cell:mechanism``, ``spool:mid-append``).  The polling interval is
coarse (the victim is about to be killed; latency is irrelevant) and
the hold loop is bounded only by the test's own timeout discipline.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

#: Environment variable naming the fault-point directory (off = unset).
FAULTPOINTS_ENV = "REPRO_FAULTPOINTS"

#: Service-path barrier: a submission's batch has been perturbed,
#: spooled, journaled and acknowledged, but its HTTP response has not
#: been written yet.  Killing a daemon frozen here models the worst
#: network outcome -- state durably applied, client never told -- and
#: is how the chaos suite proves idempotent replay across restarts.
SERVICE_PRE_RESPOND = "service:pre-respond"

#: Service-path barrier: a batch's rows are fsynced into the spool, but
#: its journal line is not yet appended.  A daemon killed here has
#: committed nothing, so recovery must drop the spooled tail.
LEDGER_PRE_COMMIT = "ledger:pre-commit"

#: Seconds between ``.hold`` polls while frozen at a barrier.
_POLL_INTERVAL = 0.01


def enabled() -> bool:
    """Whether fault points are active in this process."""
    return bool(os.environ.get(FAULTPOINTS_ENV))


def _sanitise(name: str) -> str:
    return name.replace("/", "_").replace(":", "_")


def reach(name: str) -> None:
    """Mark barrier ``name`` reached; block while its hold file exists.

    A no-op (one env lookup) when ``$REPRO_FAULTPOINTS`` is unset, so
    production paths can call this unconditionally.
    """
    root = os.environ.get(FAULTPOINTS_ENV)
    if not root:
        return
    directory = Path(root)
    directory.mkdir(parents=True, exist_ok=True)
    stem = _sanitise(name)
    hold = directory / f"{stem}.hold"
    (directory / f"{stem}.reached").touch()
    while hold.exists():
        time.sleep(_POLL_INTERVAL)

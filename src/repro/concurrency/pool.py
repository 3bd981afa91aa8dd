"""A small pool of background worker threads with event-driven wakeups.

Workers repeatedly call a *step* function that performs one unit of work
(claim-and-flush one buffer, plan-and-run one compaction) and reports
whether any work was available. Exceptions escaping a step are captured —
never propagated into the thread — so the owning tree can surface them on
the next foreground operation (see :class:`~repro.errors.BackgroundError`).

Wakeup contract. A worker steps again only if its last step did work, or
if :meth:`BackgroundWorkerPool.kick` was called since the worker last
looked; otherwise it parks. Whoever makes work available kicks: the
coordinator does on every buffer rotation, after every flush install and
compaction, and while a writer is stalled or a drain is waiting. Idle
steps never kick, so idle workers cannot wake one another.

The check is a generation counter: :meth:`kick` bumps it under the pool's
condition, a worker reads it before each step, and parks after an idle
step only if it is unchanged. A kick that lands *while* a worker is inside
an idle step therefore makes that worker step again instead of being
lost. Parked workers still re-step every :data:`IDLE_BACKSTOP_S` seconds;
that backstop exists only for work that becomes due with nobody to kick,
such as a Lethe tombstone TTL expiring as the simulated clock advances.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

#: Seconds a parked worker waits before stepping anyway. Catches work that
#: becomes due without a kick (tombstone TTLs); real wakeups come from
#: :meth:`BackgroundWorkerPool.kick`.
IDLE_BACKSTOP_S = 1.0

#: A unit of background work: returns True if it found work to do.
WorkStep = Callable[[], bool]


class BackgroundWorkerPool:
    """Named worker threads stepping work functions until stopped.

    The pool is deliberately policy-free: *what* a worker does (and in
    which priority order) lives in the step callables the coordinator
    provides. The pool owns thread lifecycle — spawn, park/wake, pause for
    tests, drain-friendly idleness tracking, and join on stop.
    """

    def __init__(self, name: str = "lsm-bg") -> None:
        self.name = name
        self._threads: List[threading.Thread] = []
        self._cv = threading.Condition()
        self._stopped = False
        self._paused = False
        self._active_workers = 0
        self._generation = 0
        self._errors: List[BaseException] = []

    # -- lifecycle ----------------------------------------------------------

    def spawn(self, role: str, count: int, step: WorkStep) -> None:
        """Start ``count`` daemon threads running ``step`` in a loop."""
        for index in range(count):
            thread = threading.Thread(
                target=self._run,
                args=(step,),
                name=f"{self.name}-{role}-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Stop all workers and join them. Idempotent."""
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []

    # -- coordination -------------------------------------------------------

    def kick(self) -> None:
        """Announce that new work may be available: every worker re-steps."""
        with self._cv:
            self._generation += 1
            self._cv.notify_all()

    def inject_failure(self, exc: BaseException) -> None:
        """Record ``exc`` as a worker failure and stop the pool.

        The fault-injection hook behind degraded-mode tests: equivalent
        to every worker dying mid-step. ``first_error`` reports the
        exception, so the owning tree's next foreground operation raises
        :class:`~repro.errors.BackgroundError` exactly as it would for an
        organic worker death.
        """
        with self._cv:
            self._errors.append(exc)
            self._cv.notify_all()
        self.stop()

    def pause(self) -> None:
        """Park all workers after their current step (test/maintenance)."""
        with self._cv:
            self._paused = True

    def resume(self) -> None:
        """Undo :meth:`pause`; every worker steps at least once more."""
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    def quiescent(self) -> bool:
        """Whether no worker is currently inside a step."""
        with self._cv:
            return self._active_workers == 0

    @property
    def first_error(self) -> Optional[BaseException]:
        """The first exception captured from any worker, if any."""
        with self._cv:
            return self._errors[0] if self._errors else None

    # -- worker loop --------------------------------------------------------

    def _run(self, step: WorkStep) -> None:
        while True:
            with self._cv:
                while self._paused and not self._stopped:
                    self._cv.wait()
                if self._stopped:
                    return
                self._active_workers += 1
                seen = self._generation
            did_work = False
            try:
                did_work = step()
            except BaseException as exc:  # surfaced via first_error
                with self._cv:
                    self._errors.append(exc)
            with self._cv:
                self._active_workers -= 1
                if self._stopped:
                    return
                if not did_work and self._generation == seen:
                    self._cv.wait(IDLE_BACKSTOP_S)

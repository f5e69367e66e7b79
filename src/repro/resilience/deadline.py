"""Cooperative wall-clock deadlines.

A :class:`Deadline` is a monotonic-clock budget.  The ambient slot
(:data:`DEADLINE`) makes the *tightest* active deadline visible to the
engine's hot loops with a single attribute read, exactly like the
observability switch: when no deadline is installed the per-iteration
cost is one ``is None`` branch.

Scopes nest and the tighter deadline always wins: installing a 10 s
per-fault timeout inside a campaign that has 1 s of budget left leaves
the campaign deadline active, so long-running faults cannot outlive the
campaign.  When a deadline fires, :class:`~repro.errors.DeadlineExceeded`
carries the :class:`Deadline` object itself, which is how the campaign
layer distinguishes "this fault's budget ran out" (record a structured
timeout outcome and continue) from "the whole campaign's budget ran
out" (stop evaluating and mark the result partial).

Checks are placed where the engine actually spends its time: every
Newton iteration, every transient step, and in the vectorised linear
march once after its factorisation, then every 256 steps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import DeadlineExceeded


class Deadline:
    """A wall-clock budget anchored to the monotonic clock."""

    __slots__ = ("t_end", "seconds", "label")

    def __init__(self, seconds: float, label: str = "deadline") -> None:
        if seconds <= 0:
            raise ValueError("deadline seconds must be positive")
        self.seconds = float(seconds)
        self.label = label
        self.t_end = time.monotonic() + self.seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.t_end - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.t_end

    def check(self, where: str = "") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired."""
        if time.monotonic() >= self.t_end:
            site = f" in {where}" if where else ""
            raise DeadlineExceeded(
                f"{self.label} of {self.seconds:g} s exceeded{site}",
                deadline=self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline({self.seconds:g} s, {self.label!r}, "
                f"remaining {self.remaining():.3f} s)")


class _DeadlineSlot:
    """The ambient (tightest-active) deadline; hot loops read
    ``DEADLINE.active`` directly."""

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active: Optional[Deadline] = None


#: process-wide ambient deadline; ``None`` means unbounded.
DEADLINE = _DeadlineSlot()


def active_deadline() -> Optional[Deadline]:
    """The tightest deadline currently in scope, if any."""
    return DEADLINE.active


def check_deadline(where: str = "") -> None:
    """Cooperative cancellation point: raises
    :class:`~repro.errors.DeadlineExceeded` when the ambient deadline
    has expired; free when none is installed."""
    d = DEADLINE.active
    if d is not None:
        d.check(where)


@contextmanager
def installed(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install an *existing* :class:`Deadline` as the ambient one for the
    block (tightest wins, like :func:`deadline_scope`).  This is how a
    campaign keeps one shared budget across many fault evaluations —
    re-entering :func:`deadline_scope` would restart the clock each time.
    ``deadline=None`` is a no-op scope."""
    if deadline is None:
        yield DEADLINE.active
        return
    prev = DEADLINE.active
    effective = (deadline if prev is None or deadline.t_end <= prev.t_end
                 else prev)
    DEADLINE.active = effective
    try:
        yield effective
    finally:
        DEADLINE.active = prev


@contextmanager
def deadline_scope(seconds: Optional[float],
                   label: str = "deadline") -> Iterator[Optional[Deadline]]:
    """Install a deadline for the duration of the block.

    ``seconds=None`` is a no-op scope (yields ``None`` — callers can
    pass their knob straight through).  When an enclosing scope holds a
    *tighter* deadline, that deadline stays active and is what the
    block yields: the tightest budget always governs.
    """
    if seconds is None:
        yield DEADLINE.active
        return
    mine = Deadline(seconds, label=label)
    prev = DEADLINE.active
    effective = mine if prev is None or mine.t_end <= prev.t_end else prev
    DEADLINE.active = effective
    try:
        yield effective
    finally:
        DEADLINE.active = prev


__all__ = [
    "Deadline",
    "DEADLINE",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
    "installed",
]

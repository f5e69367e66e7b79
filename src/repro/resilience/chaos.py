"""Deterministic fault injection at the service boundaries.

The resilience layer's guarantees — atomic checkpoint writes, torn-line
tolerant journals, quarantine-not-crash corruption handling, restart ==
uninterrupted recovery — are only guarantees if something actually
breaks those boundaries on purpose.  This module is that something: a
small, dependency-free harness the chaos test suite drives to inject
the failures a production service eventually meets.

* :func:`chaos_os` — a context manager that patches ``os.replace`` and
  ``os.fsync`` to fail at chosen call indices (exact, reproducible) or
  at a seeded random rate (deterministic per seed).  This is how tests
  hit the mid-``os.replace`` and failed-``fsync`` windows of the
  checkpoint, cache and queue write paths without timing luck.
* :func:`tear_tail` — truncates a file mid-final-line, the exact shape
  a SIGKILL leaves behind when it lands inside an append.
* :func:`corrupt_tail` — overwrites the final bytes with garbage, the
  shape a partial page flush leaves behind.
* :class:`ChaosProcess` — a subprocess driver that runs a python
  snippet and SIGKILLs it, with its whole process group, the instant
  an observable predicate turns true (a journal line landing, a
  checkpoint appearing), so "killed mid-job" is a precise, repeatable
  event rather than a sleep race.
* :func:`wait_for` — bounded predicate polling for the above.

Everything is deterministic or seedable; a failing chaos test replays
bit-identically from its seed and injection schedule.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Optional, Sequence


class ChaosError(OSError):
    """The injected failure — a subclass of ``OSError`` so production
    error handling takes its real corruption/IO paths."""


class _OSInjector:
    """Call-counting wrappers around ``os.replace``/``os.fsync``.

    ``calls`` counts every intercepted call per function; ``injected``
    counts the ones that were made to fail.  Failure happens *before*
    the real call runs — a failed ``os.replace`` leaves the destination
    untouched and the temp file behind, exactly like a full disk or a
    revoked mount would.
    """

    def __init__(self, replace_fail_at: Iterable[int],
                 fsync_fail_at: Iterable[int],
                 rate: float, rng: random.Random,
                 match: Optional[str]) -> None:
        self._fail_at = {"replace": frozenset(replace_fail_at),
                         "fsync": frozenset(fsync_fail_at)}
        self._rate = rate
        self._rng = rng
        self._match = match
        self.calls: Dict[str, int] = {"replace": 0, "fsync": 0}
        self.injected: Dict[str, int] = {"replace": 0, "fsync": 0}

    def _should_fail(self, fn: str, path: Any) -> bool:
        if (self._match is not None and path is not None
                and self._match not in os.fspath(path)):
            return False
        index = self.calls[fn]
        self.calls[fn] += 1
        if index in self._fail_at[fn]:
            return True
        return self._rate > 0.0 and self._rng.random() < self._rate

    def wrap_replace(self, real: Callable) -> Callable:
        def replace(src: Any, dst: Any, **kwargs: Any) -> Any:
            if self._should_fail("replace", dst):
                self.injected["replace"] += 1
                raise ChaosError(
                    f"chaos: injected os.replace failure "
                    f"(call {self.calls['replace'] - 1}, dst={dst!r})")
            return real(src, dst, **kwargs)
        return replace

    def wrap_fsync(self, real: Callable) -> Callable:
        def fsync(fd: int) -> None:
            if self._should_fail("fsync", None):
                self.injected["fsync"] += 1
                raise ChaosError(
                    f"chaos: injected os.fsync failure "
                    f"(call {self.calls['fsync'] - 1})")
            return real(fd)
        return fsync


@contextmanager
def chaos_os(replace_fail_at: Sequence[int] = (),
             fsync_fail_at: Sequence[int] = (),
             rate: float = 0.0, seed: int = 0,
             match: Optional[str] = None):
    """Patch ``os.replace``/``os.fsync`` to fail on schedule.

    Parameters
    ----------
    replace_fail_at, fsync_fail_at:
        Zero-based call indices (counted separately per function,
        inside this context only) that raise :class:`ChaosError`.
    rate:
        Additional seeded random failure probability per call
        (deterministic for a given ``seed`` and call sequence).
    match:
        Only ``os.replace`` calls whose *destination* path contains
        this substring are counted and eligible to fail — scopes the
        chaos to one subsystem's files (``fsync`` only sees file
        descriptors, so it cannot be scoped and always counts).

    Yields the injector, whose ``calls``/``injected`` dicts let a test
    assert the schedule actually fired.
    """
    injector = _OSInjector(replace_fail_at, fsync_fail_at, rate,
                           random.Random(seed), match)
    real_replace, real_fsync = os.replace, os.fsync
    os.replace = injector.wrap_replace(real_replace)
    os.fsync = injector.wrap_fsync(real_fsync)
    try:
        yield injector
    finally:
        os.replace, os.fsync = real_replace, real_fsync


# ---------------------------------------------------------------------------
# on-disk damage


def tear_tail(path: str, drop_bytes: int = 12) -> int:
    """Truncate ``drop_bytes`` off the end of ``path`` — the torn-line
    state a kill mid-append leaves.  Returns the new size."""
    size = os.path.getsize(path)
    keep = max(0, size - drop_bytes)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep


def corrupt_tail(path: str, garbage: bytes = b"\xff\x00garbage",
                 keep_newline: bool = True) -> None:
    """Overwrite the end of the final line with non-JSON bytes — the
    partially-flushed-page state, as opposed to the clean truncation of
    :func:`tear_tail`."""
    size = os.path.getsize(path)
    tail = garbage + (b"\n" if keep_newline else b"")
    with open(path, "r+b") as fh:
        fh.seek(max(0, size - len(tail)))
        fh.write(tail)


# ---------------------------------------------------------------------------
# process-level chaos


def wait_for(predicate: Callable[[], bool], timeout: float = 30.0,
             poll: float = 0.01, what: str = "condition") -> None:
    """Block until ``predicate()`` is true; raise ``TimeoutError`` with
    ``what`` in the message otherwise."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise TimeoutError(f"chaos: timed out after {timeout}s waiting "
                       f"for {what}")


class ChaosProcess:
    """Run a python snippet in a real subprocess and kill it on cue.

    The snippet is executed with ``sys.executable -c`` under the
    caller's environment plus ``PYTHONPATH=src`` inheritance, so it
    sees the same ``repro`` package as the test process.  SIGKILL (not
    SIGTERM) is the whole point: no atexit hooks, no finally blocks —
    the same death a kernel OOM kill delivers.  The snippet leads its
    own process group and the kill goes to the group, so the pool
    workers it forked die with it instead of lingering as orphans.
    """

    def __init__(self, code: str, env: Optional[Dict[str, str]] = None,
                 cwd: Optional[str] = None) -> None:
        self.code = code
        self.env = dict(os.environ)
        if env:
            self.env.update(env)
        self.cwd = cwd
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> "ChaosProcess":
        self.proc = subprocess.Popen(
            [sys.executable, "-c", self.code], env=self.env, cwd=self.cwd,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        return self

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group is already gone
            pass
        self.proc.wait()

    def kill_when(self, predicate: Callable[[], bool],
                  timeout: float = 30.0, poll: float = 0.005,
                  what: str = "kill condition") -> None:
        """SIGKILL the subprocess's process group the moment
        ``predicate()`` turns true (checked every ``poll`` seconds).  If
        the process exits first, that is fine — the test asserts on
        recovery either way."""
        assert self.proc is not None, "start() first"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return
            if predicate():
                self._kill_group()
                return
            time.sleep(poll)
        raise TimeoutError(f"chaos: timed out after {timeout}s waiting "
                           f"for {what}")

    def wait(self, timeout: float = 60.0) -> int:
        """Wait for natural exit; returns the return code."""
        assert self.proc is not None, "start() first"
        return self.proc.wait(timeout=timeout)

    def output(self) -> str:
        """Whatever the (finished) subprocess printed, both streams."""
        assert self.proc is not None, "start() first"
        out = b"" if self.proc.stdout is None else self.proc.stdout.read()
        err = b"" if self.proc.stderr is None else self.proc.stderr.read()
        return (out + err).decode("utf-8", "replace")

    def was_killed(self) -> bool:
        assert self.proc is not None, "start() first"
        return self.proc.returncode == -signal.SIGKILL

    def __enter__(self) -> "ChaosProcess":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        if self.proc is None:
            return
        if self.proc.returncode is None:
            # the leader is not reaped yet, so the group id is still
            # its own: no other process can be hit
            self._kill_group()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


__all__ = ["ChaosError", "ChaosProcess", "chaos_os", "corrupt_tail",
           "tear_tail", "wait_for"]

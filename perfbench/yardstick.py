"""A fixed reference computation that measures how fast the machine is now.

The benchmark's box is a shared VM whose speed drifts by tens of percent over
seconds and minutes, in wall and CPU time alike.  The yardstick is a small
memoised Maker-Breaker game-tree search on the 3x3 board, written here and
never changed, whose work resembles the program's (frozensets, a memo dict,
recursion).  While the workload runs, a wall-clock timer interrupts it every
``EVERY_S`` seconds and the signal handler times one yardstick run, so the
machine's speed is sampled during each operation as well as between them.
An operation's time, less the samples taken inside it, is divided by the
mean of those samples and of the nearest sample on either side; scaled by
``NOMINAL_S``, that is the operation's time at the reference speed.  A change
in the program moves it; a slow spell of the machine, which slows the
yardstick as well, largely does not.  Garbage collection is off while the
yardstick runs, so its time does not depend on the program's heap.
"""

from __future__ import annotations

import gc
import signal
import time

# The yardstick's median time on the reference box (a shared 2-core VM,
# Python 3.11) in a quiet spell; in busy spells the median reached 11 ms.
# Normalised times are seconds at this yardstick speed.
NOMINAL_S = 0.006

# Wall time between two timer-driven samples; one sample takes about 6 ms,
# so the yardstick takes about 3% of a run.
EVERY_S = 0.2

_LINES = tuple(
    frozenset(line)
    for line in (
        (0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
        (0, 4, 8), (2, 4, 6),
    )
)
_BOARD = frozenset(range(9))
# Breaker's openings: a corner, an edge and the centre.  Maker, moving next,
# wins only after the edge.
_OPENINGS = (0, 1, 4)
_EXPECTED = 1


def _maker_wins(mine, theirs, free, memo) -> bool:
    """Whether Maker, to move, can complete a line against any Breaker."""
    key = (mine, theirs)
    found = memo.get(key)
    if found is not None:
        return found
    won = False
    for v in sorted(free):
        claimed = mine | {v}
        if any(line <= claimed for line in _LINES):
            won = True
            break
        rest = free - {v}
        if rest and all(
            _maker_wins(claimed, theirs | {w}, rest - {w}, memo) for w in sorted(rest)
        ):
            won = True
            break
    memo[key] = won
    return won


def reference_work(memos: list) -> int:
    """The fixed computation: Maker's wins over Breaker's openings.  The
    search's memos are appended to ``memos``."""
    wins = 0
    for cell in _OPENINGS:
        memos.append({})
        wins += _maker_wins(frozenset(), frozenset({cell}), _BOARD - {cell}, memos[-1])
    return wins


def sample(repeat: int = 1, kept: list | None = None) -> float:
    """Mean seconds one :func:`reference_work` takes now, over ``repeat``
    runs with gc off.

    The memos of the last run stay in ``kept`` until the next run frees
    them just before it allocates its own.  The yardstick so holds about
    the same memory from its first sample on, and a sample taken while the
    program is at its peak memory does not raise that peak.
    """
    kept = [] if kept is None else kept
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        results = []
        for _ in range(repeat):
            kept.clear()
            results.append(reference_work(kept))
        seconds = (time.perf_counter() - started) / repeat
    finally:
        if enabled:
            gc.enable()
    if results != [_EXPECTED] * repeat:
        raise RuntimeError(f"yardstick computed {results}, expected {_EXPECTED}")
    return seconds


class Yardstick:
    """Yardstick samples over a run, each as ``(start, end, seconds)``."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._measuring = False
        self._timing = False
        self._kept: list = []
        self._saved_handler = None

    def measure(self, repeat: int = 1) -> None:
        """Take a sample of ``repeat`` reference runs (none if the timer
        fires while a sample is being taken)."""
        if self._measuring:
            return
        self._measuring = True
        try:
            start = time.perf_counter()
            seconds = sample(repeat, self._kept)
            self.samples.append((start, time.perf_counter(), seconds))
        finally:
            self._measuring = False

    def start(self) -> None:
        """Sample every ``EVERY_S`` seconds of wall time, from SIGALRM."""
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_timer)
        self._timing = True
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        """Stop the timer started by :meth:`start`, if it was."""
        if not self._timing:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler or signal.SIG_DFL)
        self._timing = False

    def _on_timer(self, _signum, _frame) -> None:
        self.measure()

    def busy(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that samples took."""
        return sum(s1 - s0 for s0, s1, _ in self.samples if start <= s0 and s1 <= end)

    def around(self, start: float, end: float) -> float:
        """Mean of the samples taken inside ``[start, end]``, the last one
        that ended by ``start`` and the first that started at or after
        ``end``."""
        before = [s for s in self.samples if s[1] <= start][-1:]
        inside = [s for s in self.samples if start < s[1] and s[0] < end]
        after = [s for s in self.samples if s[0] >= end][:1]
        near = [s[2] for s in before + inside + after]
        if not near:
            raise ValueError("no yardstick sample near the interval")
        return sum(near) / len(near)

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured over ``[start, end]``, at the nominal speed."""
        return seconds * NOMINAL_S / self.around(start, end)

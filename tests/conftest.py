"""Shared test tooling: switching the kernels' second thread on and off.

``_kernels`` runs a grid's large passes on two threads from
``PARALLEL_MIN_LEAVES`` leaves on, in a process that may use two CPUs and
does not run inline. The ``kernel_threads`` fixture makes the process count
as one on two CPUs, moves the threshold so that grids of every size split or
none does, and records, per call of ``_kernels.on_halves``, whether it ran a
task on the pool's thread.
"""

import numpy as np
import pytest

from twoweight import _kernels


def _bits(x):
    """``x`` as comparable bytes: arrays and numbers by dtype, shape and bytes
    (which tells -0.0 from +0.0), containers item by item, anything else by
    ``repr``."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic, float, int)):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()
    return repr(x)


class KernelThreads:
    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.calls = []  # per on_halves call: whether it ran a task on the pool's thread
        monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
        monkeypatch.setattr(_kernels, "_inline", False)
        on_halves = _kernels.on_halves

        def counting(pool, task):
            self.calls.append(pool is not None)
            return on_halves(pool, task)

        monkeypatch.setattr(_kernels, "on_halves", counting)

    def force(self, on: bool) -> None:
        """Grids of every size on two threads (``on``) or none; clears ``calls``."""
        self._monkeypatch.setattr(_kernels, "PARALLEL_MIN_LEAVES", 1 if on else 1 << 62)
        self.calls.clear()

    def inline_and_split(self, fn) -> tuple:
        """``fn()`` with every grid inline, then with every grid on two
        threads: the two results. Checks that no task of the first run left
        the calling thread, and that the second split and ran every split on
        the pool's thread."""
        self.force(False)
        inline = fn()
        assert not any(self.calls)
        self.force(True)
        split = fn()
        assert self.calls and all(self.calls)
        return inline, split

    def assert_split_matches_inline(self, fn):
        """``inline_and_split(fn)``, and the two results the same bit for bit
        (arrays and numbers, in any nesting of lists, tuples and dicts).
        Returns the inline result."""
        inline, split = self.inline_and_split(fn)
        assert _bits(split) == _bits(inline)
        return inline


@pytest.fixture
def kernel_threads(monkeypatch):
    return KernelThreads(monkeypatch)

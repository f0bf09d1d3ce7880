"""Host-speed calibration: host seconds scaled to a reference core.

The machines this benchmark runs on are shared.  Other tenants' load makes
the same pure-Python work take from 1x to 2x as long, switching within
fractions of a second and drifting over minutes, so raw wall time of a
repetition says as much about the neighbours as about the simulator.

:class:`Calibrator` cancels that out.  While installed, it cuts the run
into chunks of about :data:`CHUNK_S` host seconds at simulator-step
boundaries and, after each chunk, times a fixed pure-Python probe that
never touches the simulator.  A chunk's calibrated duration is its raw
duration times ``(PROBE_REF_S / probe duration) ** SENSITIVITY``: the
seconds the chunk would have taken on a core where the probe takes
:data:`PROBE_REF_S`.
Probe time itself is excluded from both the raw and the calibrated time.
The probe leaves simulator state untouched, so virtual time and every
count are unaffected.
"""

from __future__ import annotations

import heapq
from time import perf_counter

from repro.sim.engine import Simulator

#: Host seconds of simulation between two probes.
CHUNK_S = 0.06
#: Probe iterations: a few milliseconds of interpreter work.
PROBE_ITERS = 1000
#: Probe duration on the reference core (uncontended 2.0 GHz Xeon vCPU,
#: CPython 3.11); the unit calibrated seconds are expressed in.
PROBE_REF_S = 0.0036
#: How much more than the probe the simulator slows under contention:
#: simulator time grows as probe time to this power.  Least squares of log
#: raw wall time on log probe time, over 17 repetitions of each workload on
#: a shared 2-vCPU host, gave 1.21, 1.31 and 1.20; on the same repetitions
#: 1.3 gave every workload its smallest quartile spread.
SENSITIVITY = 1.3


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _accumulator():
    total = 0
    while True:
        total += yield total


#: The probe's data: enough objects and pages (about 8 MB) that, like the
#: simulator's page stores and code caches, it does not fit in cache.
_POOL_OBJECTS = 65_536
_POOL_PAGES = 1024
_pool: tuple[list, list] | None = None


def _data():
    global _pool
    if _pool is None:
        _pool = (
            [_Cell(i, i * 3) for i in range(_POOL_OBJECTS)],
            [bytearray(4096) for _ in range(_POOL_PAGES)],
        )
    return _pool


def probe() -> float:
    """Time a fixed mix of the operations the simulator spends time on:
    slotted objects, dicts, a heap, exceptions, generator resumption and
    scattered reads and writes over a working set larger than the cache."""
    cells, pages = _data()
    t0 = perf_counter()
    heap: list = []
    table: dict = {}
    gen = _accumulator()
    next(gen)
    acc = 0
    x = 12345
    for i in range(PROBE_ITERS):
        cell = _Cell(i & 255, i)
        table[cell.key] = cell
        heapq.heappush(heap, (i * 7919 & 4095, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        try:
            if i % 97 == 0:
                raise KeyError(i)
            key = (i * 31) & 255
            acc += table[key].value if key in table else 0
        except KeyError:
            acc -= 1
        acc = gen.send(acc & 0xFFFF) & 0xFFFFFF
        for _ in range(4):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += cells[x & (_POOL_OBJECTS - 1)].value
            page = pages[(x >> 16) & (_POOL_PAGES - 1)]
            off = x & 4095
            page[off] = (page[off] + 1) & 0xFF
    return perf_counter() - t0


def scale(raw_s: float, probe_s: float) -> float:
    """``raw_s`` measured beside a probe of ``probe_s``, in reference seconds."""
    return raw_s * (PROBE_REF_S / probe_s) ** SENSITIVITY


class Calibrator:
    """Calibrated timing of one stretch of host work."""

    def __init__(self) -> None:
        self._saved = None
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._start = 0.0
        self._last_probe = 0.0

    def time_call(self, fn):
        """Run ``fn()`` between two probes; returns (result, raw s, calibrated s)."""
        before = probe()
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        return result, raw, scale(raw, (before + probe()) / 2)

    def start(self) -> None:
        """Begin a calibrated stretch; probes run at simulator steps."""
        self.raw_s = self.calibrated_s = 0.0
        self._last_probe = probe()
        original = Simulator.step
        self._saved = original
        calibrator = self

        def step(sim):
            original(sim)
            if perf_counter() - calibrator._start >= CHUNK_S:
                calibrator._close_chunk()

        Simulator.step = step
        self._start = perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the stretch; returns (raw s, calibrated s) without probe time."""
        self._close_chunk()
        Simulator.step = self._saved
        self._saved = None
        return self.raw_s, self.calibrated_s

    def _close_chunk(self) -> None:
        chunk = perf_counter() - self._start
        after = probe()
        # The chunk ran between two probes; its speed is taken as theirs.
        speed = (self._last_probe + after) / 2
        self._last_probe = after
        self.raw_s += chunk
        self.calibrated_s += scale(chunk, speed)
        self._start = perf_counter()

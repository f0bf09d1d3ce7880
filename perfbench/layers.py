"""Per-layer host-time tracing, applied from outside the simulator.

:class:`LayerTracer` replaces a fixed set of public functions of the
``repro`` package with timing wrappers while it is installed, and restores
the originals when it is removed.  Nothing under ``src/`` is edited.

Every wrapped call (or, for generator functions, every resumption of the
generator) is a span.  Spans nest on the host call stack because the
simulator is single-threaded, so a layer's *self time* is the sum of its
spans' durations minus the durations of the wrapped spans directly inside
them.  Time spent outside every span is what the tracer did not cover.

The guest-memory functions run millions of times per repetition, so their
spans are folded into a count and a summed duration instead of being kept.
The coarse spans (cluster calls, simulator steps, DBT quanta, dispatch
resumptions and frame transmits) are kept, up to a cap, and can be written
out as Chrome Trace Event JSON for Perfetto.
"""

from __future__ import annotations

import collections
import functools
import json
from time import perf_counter_ns

from repro.core.cluster import Cluster
from repro.core.dsmmem import DSMMemory
from repro.core.services.base import Dispatcher
from repro.dbt.backend import Backend
from repro.dbt.engine import ExecutionEngine
from repro.dbt.frontend import Frontend
from repro.kernel.syscalls import SyscallExecutor
from repro.mem.api import PageStall
from repro.net.endpoint import Endpoint
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator

_MEM_FUNCS = (
    "load", "store", "fetch_code", "load_reserved", "store_conditional",
    "atomic_cas", "atomic_add", "atomic_swap",
)

def _msg_tenant(args) -> int:
    """Tenant of a call whose first argument after ``self`` is a frame."""
    return args[1].tenant


#: Coarse spans kept for the Chrome trace; later spans are only counted.
MAX_KEPT_SPANS = 200_000


class LayerTracer:
    """Span bookkeeping plus the install/remove of the wrappers."""

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.self_ns: dict[str, int] = collections.defaultdict(int)  # layer -> ns
        self.calls: collections.Counter[str] = collections.Counter()
        self.mem_accesses = 0
        self.mem_stalls = 0
        self.root_ns = 0  # summed duration of spans with no wrapped parent
        self.spans: list[tuple] = []  # (name, start_ns, dur_ns, tenant)
        self.dropped_spans = 0
        # Open spans, innermost last: [child_ns, tenant].
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._engine_tenant: dict = {}  # ExecutionEngine -> tenant
        self._cluster = None

    # -- span accounting ------------------------------------------------------

    def _close(self, layer: str, name, frame: list, t0: int, t1: int) -> None:
        dur = t1 - t0
        self.self_ns[layer] += dur - frame[0]
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[0] += dur
            if parent[1] is None:
                parent[1] = frame[1]
        else:
            self.root_ns += dur
        if name is not None and self.keep_spans:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((name, t0, dur, frame[1]))
            else:
                self.dropped_spans += 1

    def _sync(self, layer: str, key: str, fn, name=None, tenant_of=None):
        """Wrap a plain function: one span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            frame = [0, tenant_of(args) if tenant_of is not None else None]
            tracer._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer._close(layer, name, frame, t0, t1)

        return wrapper

    def _resumptions(self, layer: str, key: str, fn, name=None, tenant_of=None):
        """Wrap a generator function: one span per resumption.

        The wrapper forwards values and exceptions exactly as ``yield from``
        would, so the simulated behaviour is unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            tenant = tenant_of(args) if tenant_of is not None else None
            gen = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                frame = [0, tenant]
                tracer._stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    out = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = perf_counter_ns()
                    tracer._stack.pop()
                    tracer._close(layer, name, frame, t0, t1)
                try:
                    value, exc = (yield out), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into the generator
                    value, exc = None, err

        return wrapper

    def _mem(self, fn):
        """Wrap a guest-memory access: folded into a count and a sum."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            except PageStall:
                tracer.mem_stalls += 1
                raise
            finally:
                dur = perf_counter_ns() - t0
                tracer.mem_accesses += 1
                tracer.self_ns["mem"] += dur
                stack = tracer._stack
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.root_ns += dur

        return wrapper

    def _quantum_tenant(self, args) -> int | None:
        engine = args[0]
        tenant = self._engine_tenant.get(engine)
        if tenant is None and self._cluster is not None:
            # A tenant was admitted since the last lookup: re-read the map.
            for node in self._cluster._fleet.nodes.values():
                for t, bundle in node.tenants.items():
                    self._engine_tenant[bundle.engine] = t
            tenant = self._engine_tenant.get(engine)
        return tenant

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Patch the wrapped functions in place (idempotent per tracer)."""
        if self._saved:
            return
        plan = [
            (Cluster, "submit", self._sync("cluster", "cluster.submit", Cluster.submit,
                                           name="cluster.submit")),
            (Cluster, "join", self._sync("cluster", "cluster.join", Cluster.join,
                                         name="cluster.join")),
            (Cluster, "run", self._sync("cluster", "cluster.run", Cluster.run,
                                        name="cluster.run")),
            (Simulator, "step", self._sync("sim", "sim.step", Simulator.step, name="step")),
            (ExecutionEngine, "run_quantum",
             self._sync("dbt", "dbt.quantum", ExecutionEngine.run_quantum,
                        name="quantum", tenant_of=self._quantum_tenant)),
            (Frontend, "build_block",
             self._sync("translate", "translate.build_block", Frontend.build_block)),
            (Backend, "compile", self._sync("translate", "translate.compile", Backend.compile)),
            (Backend, "compile_superblock",
             self._sync("translate", "translate.compile_superblock",
                        Backend.compile_superblock)),
            (Fabric, "transmit",
             self._sync("net", "net.transmit", Fabric.transmit, name="transmit",
                        tenant_of=_msg_tenant)),
            (Endpoint, "deliver",
             self._sync("net", "net.deliver", Endpoint.deliver,
                        tenant_of=_msg_tenant)),
            (Dispatcher, "dispatch",
             self._resumptions("services", "services.dispatch", Dispatcher.dispatch,
                               name="dispatch", tenant_of=_msg_tenant)),
            (SyscallExecutor, "execute",
             self._resumptions("kernel", "kernel.execute", SyscallExecutor.execute)),
        ]
        plan += [(DSMMemory, f, self._mem(getattr(DSMMemory, f))) for f in _MEM_FUNCS]
        for owner, attr, wrapper in plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every original function."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._cluster = None

    def watch(self, cluster) -> None:
        """Name the cluster whose engines give quantum spans their tenant."""
        self._cluster = cluster
        self._engine_tenant.clear()

    # -- results --------------------------------------------------------------

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def write_chrome_trace(self, path, meta: dict) -> None:
        """Write the kept coarse spans as Chrome Trace Event JSON."""
        if not self.spans:
            return
        base = min(s[1] for s in self.spans)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (t0 - base) / 1e3, "dur": dur / 1e3,
             "args": {"tenant": tenant}}
            for name, t0, dur, tenant in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**meta, "dropped_spans": self.dropped_spans},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))

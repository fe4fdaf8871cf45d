"""Host self time per package layer, from spans recorded around calls.

The tracer wraps every function, method and property getter defined in
the simulator's layer packages (``repro.sim``, ``repro.vm``, ...) so a
span opens on each call into them.  Nothing under ``src/`` changes: the
wrappers are installed on the imported modules and classes, before any
``System`` is built (hot paths pre-resolve bound methods at
construction time).

Self time is charged by switching: the clock interval between two span
boundaries belongs to the span on top of the stack.  The layers are
generators interleaved by the engine, so a generator's span is pushed
on each resume and popped on each yield; its self time is the host time
inside its own resumed steps minus what its child spans' steps cover.
Wall time from first resume to return does not count.  Between the
boundaries of a measured phase every nanosecond lands in exactly one
bucket, so the layer self times (plus ``other``, time with no layer
span open) sum to the phase.

Spans keep name, layer, start, end, parent span id and the simulated
thread that was running (the request id) in a bounded ring, exported
as Chrome trace-event JSON (opens in Perfetto).
"""

from __future__ import annotations

import enum
import importlib
import json
import pkgutil
import sys
from collections import Counter, deque
from time import perf_counter_ns
from types import FunctionType, GeneratorType
from typing import Callable, Dict, List, Optional

#: The simulator's package layers, in the order reports list them.
LAYERS = ("sim", "vm", "core", "fs", "paging", "mem", "obs", "workloads")
#: Bucket for time with no layer span open.
OTHER = "other"
#: The simulator's top-level package.
PACKAGE = "repro"


class Span:
    """One call (or one generator's lifetime) into a layer."""

    __slots__ = ("id", "name", "layer", "parent", "tid", "start", "end",
                 "self_ns")

    def __init__(self, span_id: int, name: str, layer: str,
                 parent: int, tid: str, start: int):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.tid = tid
        self.start = start
        self.end = start
        self.self_ns = 0


class LayerTracer:
    """Stack-switching self-time accounting over wrapped callables.

    ``begin_phase``/``end_phase`` bracket the measured phase; time is
    charged, calls counted and spans kept only inside it.  ``reset``
    clears the accumulated totals between repetitions.  Each boundary reads
    the clock once, before its bookkeeping on entry and after it on
    exit, so the tracer's own cost lands in the span it maintains.
    """

    def __init__(self, capacity: int = 50_000,
                 clock: Callable[[], int] = perf_counter_ns):
        self.clock = clock
        self.capacity = capacity
        #: Object whose ``current`` names the running simulated thread
        #: (the engine); new spans take it as their request id.
        self.scheduler = None
        #: Layer of every wrapped span name.
        self.layers: Dict[str, str] = {}
        self._stack: List[Span] = []
        self._last = 0
        self._next_id = 1
        self.recording = False
        self.reset()

    def reset(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS + (OTHER,), 0)
        #: Calls per span name, and per (parent name, name) edge.
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()
        self.spans: deque = deque(maxlen=self.capacity)
        self.phase_ns = 0
        self._phase_start = 0

    # -- measured phase ----------------------------------------------------
    def begin_phase(self, scheduler=None) -> None:
        self.scheduler = scheduler
        now = self.clock()
        self._phase_start = now
        self._last = now
        self.recording = True

    def end_phase(self) -> None:
        now = self.clock()
        elapsed = now - self._last
        if self._stack:
            top = self._stack[-1]
            top.self_ns += elapsed
            self.self_ns[top.layer] += elapsed
        else:
            self.self_ns[OTHER] += elapsed
        self._last = now
        self.phase_ns += now - self._phase_start
        self.recording = False

    # -- span boundaries ---------------------------------------------------
    def enter(self, name: str, layer: str,
              span: Optional[Span] = None) -> Span:
        """Make ``span`` (a new one when ``None``) the top of the
        stack, charging the interval since the last boundary to the
        span it covers."""
        now = self.clock()
        stack = self._stack
        recording = self.recording
        if recording:
            elapsed = now - self._last
            if stack:
                top = stack[-1]
                top.self_ns += elapsed
                self.self_ns[top.layer] += elapsed
            else:
                self.self_ns[OTHER] += elapsed
        self._last = now
        if span is None:
            parent = stack[-1] if stack else None
            current = getattr(self.scheduler, "current", None)
            span = Span(self._next_id, name, layer,
                        parent.id if parent is not None else 0,
                        current.name if current is not None else "main",
                        now)
            self._next_id += 1
            if recording:
                self.calls[name] += 1
                self.edges[(parent.name if parent is not None else "",
                            name)] += 1
        stack.append(span)
        return span

    def leave(self, closing: bool) -> None:
        """Pop the top span, charging it up to now; a closing span
        (return or exception) is kept in the ring."""
        span = self._stack.pop()
        if closing and self.recording:
            self.spans.append(span)
        now = self.clock()
        if self.recording:
            elapsed = now - self._last
            span.self_ns += elapsed
            self.self_ns[span.layer] += elapsed
        self._last = now
        span.end = now

    # -- wrappers ----------------------------------------------------------
    def wrap_function(self, fn: FunctionType, name: str, layer: str):
        """A callable that runs ``fn`` inside a span; a generator it
        returns is stepped inside the same span."""
        tracer = self
        self.layers[name] = layer

        def traced(*args, **kwargs):
            span = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(True)
                raise
            if result.__class__ is GeneratorType:
                tracer.leave(False)
                return TracedGenerator(tracer, result, span)
            tracer.leave(True)
            return result

        return _copy_identity(traced, fn)

    def wrap_generator_function(self, fn: FunctionType, name: str,
                                layer: str):
        """A generator function's span opens at its first resume."""
        tracer = self
        self.layers[name] = layer

        def traced(*args, **kwargs):
            return TracedGenerator(tracer, fn(*args, **kwargs),
                                   None, name, layer)

        return _copy_identity(traced, fn)

    # -- results -----------------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        return {layer: ns / 1e9 for layer, ns in self.self_ns.items()}

    def chrome_trace(self) -> Dict[str, object]:
        """The span ring as Chrome trace-event JSON (``ph: X``)."""
        tids: Dict[str, int] = {}
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "pid": 1, "tid": tid, "ts": span.start / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "args": {"id": span.id, "parent": span.parent,
                         "self_us": span.self_ns / 1e3},
            })
        for thread, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": thread}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as out:
            json.dump(self.chrome_trace(), out)


class TracedGenerator:
    """Steps a generator inside its span: entered per resume, left per
    yield, closed on return or on an exception leaving it."""

    __slots__ = ("tracer", "gen", "span", "name", "layer")

    def __init__(self, tracer: LayerTracer, gen, span: Optional[Span],
                 name: str = "", layer: str = ""):
        self.tracer = tracer
        self.gen = gen
        self.span = span
        self.name = name
        self.layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self.gen.send, None)

    def send(self, value):
        return self._resume(self.gen.send, value)

    def throw(self, *exc):
        return self._resume(self.gen.throw, *exc)

    def close(self):
        return self.gen.close()

    def _resume(self, step, *arg):
        tracer = self.tracer
        self.span = tracer.enter(self.name, self.layer, self.span)
        try:
            value = step(*arg)
        except BaseException:
            tracer.leave(True)
            raise
        tracer.leave(False)
        return value


def _copy_identity(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__module__ = fn.__module__
    wrapper.__wrapped__ = fn
    return wrapper


def _is_generator_function(fn) -> bool:
    return bool(fn.__code__.co_flags & 0x20)  # CO_GENERATOR


def layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == PACKAGE and parts[1] in LAYERS:
        return parts[1]
    return None


def _import_all() -> List[str]:
    root = importlib.import_module(PACKAGE)
    names = [PACKAGE]
    for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)
        names.append(info.name)
    return names


def install(tracer: LayerTracer) -> int:
    """Wrap the public functions, methods and property getters defined
    in the simulator's layer modules; returns how many were wrapped.

    Private generator functions are wrapped too: the engine resumes
    them as thread roots (``_mapped_worker``), a call across layers.
    Other private helpers are called from their own layer, where the
    caller's span already charges them.  Module-level functions are
    also replaced wherever another module imported them by name
    (``from repro.mem.tiers import spec_for``).
    """
    wrapped: Dict[int, object] = {}

    def wrap(fn: FunctionType, layer: str):
        if id(fn) not in wrapped:
            name = fn.__qualname__
            wrapped[id(fn)] = (
                tracer.wrap_generator_function(fn, name, layer)
                if _is_generator_function(fn)
                else tracer.wrap_function(fn, name, layer))
        return wrapped[id(fn)]

    module_names = _import_all()
    originals: Dict[int, object] = {}
    for module_name in module_names:
        layer = layer_of(module_name)
        if layer is None:
            continue
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module_name:
                continue
            if isinstance(value, FunctionType):
                if _traced(attr, value):
                    originals[id(value)] = value
                    setattr(module, attr, wrap(value, layer))
            elif isinstance(value, type) and not issubclass(value,
                                                            enum.Enum):
                _wrap_class(value, layer, wrap)
    # Rebind names other modules imported before the wrap.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE or
                                  module_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)] is value:
                setattr(module, attr, wrapped[id(value)])
    return len(wrapped)


def _traced(attr: str, fn: FunctionType) -> bool:
    return not attr.startswith("_") or _is_generator_function(fn)


def _wrap_class(cls: type, layer: str, wrap) -> None:
    for attr, value in list(vars(cls).items()):
        if isinstance(value, FunctionType):
            if _traced(attr, value):
                setattr(cls, attr, wrap(value, layer))
        elif attr.startswith("_"):
            continue
        elif isinstance(value, property) and isinstance(value.fget,
                                                        FunctionType):
            setattr(cls, attr, property(wrap(value.fget, layer),
                                        value.fset, value.fdel,
                                        value.__doc__))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(wrap(value.__func__, layer)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(wrap(value.__func__, layer)))


__all__ = ["LAYERS", "OTHER", "LayerTracer", "Span", "TracedGenerator",
           "install", "layer_of"]

"""In-memory span recorder for the traced run.

A span is ``(id, name, start, end, parent, rid, carries)``: the layer
boundary it times, ``perf_counter`` readings (``CLOCK_MONOTONIC`` on
Linux, so readings from different processes on one host compare), the
span that caused it, the request it belongs to, and — for a batch
span that serves several requests — the ids of the request spans it
carried.  Spans stay in memory and are written out as JSON lines when
the recorder is dumped at exit.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (and by batch spans it was carried
by).  Summing self times per layer name gives the per-layer waterfall;
the root span's own self time is the part no layer accounts for.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps a public function or method of the program in place, for the
length of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import time
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

now = time.perf_counter

_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "carries",
                 "value")

    def __init__(self, id: int, name: str, parent: Optional[int],
                 rid: Optional[int]) -> None:
        self.id = id
        self.name = name
        self.start = now()
        self.end = self.start
        self.parent = parent
        self.rid = rid
        self.carries: Tuple[int, ...] = ()
        #: An optional number the call returned (e.g. worker seconds).
        self.value: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "rid": self.rid,
            "carries": list(self.carries), "value": self.value,
        }


class _Open:
    """Context manager that opens one span (cheaper than a generator)."""

    __slots__ = ("span", "token")

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        self.token = _current.set(self.span)
        self.span.start = now()
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.span.end = now()
        _current.reset(self.token)


class Recorder:
    """Collects spans; context-var nesting, safe across threads (ids
    come from one ``itertools.count``, appends are atomic)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()

    def span(self, name: str, rid: Optional[int] = None) -> _Open:
        """A span under the current one (inheriting its request id)."""
        outer = _current.get()
        if rid is None and outer is not None:
            rid = outer.rid
        span = Span(next(self._ids), name,
                    None if outer is None else outer.id, rid)
        self.spans.append(span)
        return _Open(span)

    def wrap(self, name: str, fn: Callable[..., Any],
             value: Optional[Callable[[Any], float]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name) as span:
                result = fn(*args, **kwargs)
            if value is not None:
                span.value = value(result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable[..., Any],
                   rid: Optional[Callable[..., Optional[int]]] = None
                   ) -> Callable[..., Any]:
        """Coroutine-function twin of :meth:`wrap`."""
        recorder = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            request_id = None if rid is None else rid(*args, **kwargs)
            with recorder.span(name, rid=request_id):
                return await fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


@contextlib.contextmanager
def instrument(targets: Sequence[Tuple[Any, str, Callable[[Any], Any]]]
               ) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for the block.

    ``owner`` is a class or module; class-level descriptors
    (``classmethod``/``staticmethod``) are unwrapped and re-wrapped so
    the replacement binds like the original.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(interval: Tuple[float, float],
             pieces: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``pieces``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in pieces
                     if b > lo and a < hi)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span, by id."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        owners = list(span["carries"])
        if span["parent"] is not None:
            owners.append(span["parent"])
        for owner in owners:
            children.setdefault(owner, []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(
            (span["start"], span["end"]), children.get(span["id"], [])
        )
        for span in spans
    }


def layer_self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Summed self time per span name (seconds)."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + selfs[span["id"]]
    return out

"""In-memory tracer for the traced benchmark run.

Two instruments, both installed from outside the program by wrapping
public callables (instance attributes shadow the class method, class
attributes are restored on exit):

* **spans** at stage boundaries -- name, start, end, parent and the run
  id shared by one pass. A span's *self time* is its duration minus the
  part its child spans cover, minus the text-layer kernel time that ran
  directly inside it (tokenization is charged to ``text``, never to the
  stage or model that happened to touch a document first);
* **kernels** at model-instance boundaries (``fit``, ``represent``,
  ``score``, ``update``) and at ``DocumentFactory.to_doc`` -- a call
  count, an item count and accumulated busy time per key, not one span
  per call. Nested kernels are subtracted, so ``update`` busy time on a
  graph profile is the merge alone, without the ``represent`` it calls.

Nothing is written while a pass runs; :meth:`Tracer.to_dict` is dumped
once when the benchmark ends.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

_clock = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    attrs: dict[str, Any]
    end: float = 0.0
    #: Time covered by child spans and by exclusive (text) kernels.
    covered: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


@dataclass
class Kernel:
    calls: int = 0
    items: int = 0
    busy: float = 0.0


@dataclass
class Tracer:
    """Spans and kernel counters of one traced pass (``run`` is its id)."""

    run: str
    spans: list[Span] = field(default_factory=list)
    kernels: dict[tuple[str, ...], Kernel] = field(default_factory=dict)
    _open: list[Span] = field(default_factory=list)
    _frames: list[list[float]] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any, bool]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent is not None else None,
            run=self.run,
            start=_clock(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = _clock()
            self._open.pop()
            if parent is not None:
                parent.covered += span.duration

    def attr(self, span: Span, key: str) -> Any:
        """``key`` from the span or its nearest ancestor that has it."""
        current: Span | None = span
        while current is not None:
            if key in current.attrs:
                return current.attrs[key]
            current = self.spans[current.parent] if current.parent is not None else None
        return None

    # -- kernels -----------------------------------------------------------

    def kernel(
        self,
        fn: Callable[..., Any],
        key: tuple[str, ...],
        items: Callable[..., int] | None = None,
        exclusive: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to count calls/items and accumulate self busy time.

        ``exclusive`` kernels (tokenization) are also removed from the
        self time of the span they run in.
        """
        counter = self.kernels.setdefault(key, Kernel())
        frames = self._frames
        open_spans = self._open

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # A frame is [start, time of kernels nested inside this one].
            frame = [_clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - frame[0]
                frames.pop()
                counter.calls += 1
                if items is not None:
                    counter.items += items(*args, **kwargs)
                counter.busy += elapsed - frame[1]
                if frames:
                    frames[-1][1] += elapsed
                if exclusive and open_spans:
                    open_spans[-1].covered += elapsed

        return wrapper

    def count(self, key: tuple[str, ...]) -> None:
        """One call of ``key`` with no time attached (a cache lookup)."""
        self.kernels.setdefault(key, Kernel()).calls += 1

    def spanned(self, fn: Callable[..., Any], name: str, **attrs: Any) -> Callable[..., Any]:
        """``fn`` wrapped in a span per call (for stage-sized calls only)."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, make(original if isinstance(owner, type) else getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "run": self.run,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "run": s.run,
                    "start": s.start,
                    "end": s.end,
                    "self": s.self_time,
                    "attrs": {k: str(v) for k, v in s.attrs.items()},
                }
                for s in self.spans
            ],
            "kernels": [
                {"key": list(key), "calls": k.calls, "items": k.items, "busy": k.busy}
                for key, k in sorted(self.kernels.items())
            ],
        }

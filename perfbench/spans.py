"""In-memory span recorder that wraps public `resilient_te` functions from
outside the package.

A function is wrapped where its caller looks it up: `robust.solve_lp` and
`oracle.solve_lp` are separate attributes bound to the same `lp.solve_lp`,
so wrapping each caller's binding attributes LP time to the LP layer
without editing the package.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans; each span carries the id of the op it ran in."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str, layer: str, op: int | None = None, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(len(self.spans), name, layer, time.perf_counter(),
                    parent.id if parent else None, op, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_time += span.duration

    def call(self, name: str, layer: str, fn: Callable, *args, op: int | None = None,
             attrs: dict[str, Any] | None = None,
             attrs_of: Callable[..., dict] | None = None, **kwargs):
        span = self.begin(name, layer, op, **(attrs or {}))
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        if attrs_of is not None:
            span.attrs.update(attrs_of(result, *args, **kwargs))
        return result

    def wrap(self, module, attr: str, layer: str,
             attrs_of: Callable[..., dict] | None = None) -> None:
        """Replace `module.attr` with a recording wrapper until `unwrap_all`."""
        original = getattr(module, attr)
        name = f"{layer}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, original, *args, attrs_of=attrs_of, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        rows = [{"id": s.id, "name": s.name, "layer": s.layer, "start": s.start,
                 "end": s.end, "parent": s.parent, "op": s.op, "attrs": s.attrs}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)

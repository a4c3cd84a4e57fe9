"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span has a name, start and end (wall seconds since the tracer was made),
its parent span, the request it belongs to, the number of backbone forward
passes issued inside it, and the host-speed ``scale`` of the unit of work it
belongs to.  Spans are kept in memory and written out as JSON
lines when the run ends.

:func:`instrumented` wraps the public functions ``route_and_generate`` and
``train_toy_adapter`` call, for the duration of one traced request, so that
each layer gets a span without any timer inside the library.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import loraroute.engine as engine_module
import loraroute.harness.train as train_module


class Tracer:
    def __init__(self, counter: Callable[[], int]) -> None:
        self.spans: list[dict] = []
        self.request: int | None = None
        self._counter = counter
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        record = {
            "name": name,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        passes = self._counter()
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            record["forward_passes"] = self._counter() - passes
            self._open.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def duration_ms(span: dict) -> float:
    """Span duration in reference-host milliseconds (see ``calibration.py``)."""
    return (span["end"] - span["start"]) * 1e3 * span["scale"]


def self_ms(tracer: Tracer, span: dict) -> float:
    """The span's duration minus its children's; children never overlap."""
    return duration_ms(span) - sum(duration_ms(c) for c in tracer.children(span))


@contextmanager
def instrumented(tracer: Tracer, backbone, pool) -> Iterator[None]:
    """Give each layer call made by one request its own span."""
    module_patches = [
        (engine_module, "probe", "signals.probe"),
        (engine_module, "select_topk", "routing.select"),
        (engine_module, "mixture_hooks", "routing.mixture_build"),
        (train_module, "negative_grams", "train.negative_grams"),
        (train_module, "loss_and_grads", "train.loss_and_grads"),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in module_patches]
    for mod, attr, name in module_patches:
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
    instance_patches = [(backbone, "generate", "backbone.generate")]
    if pool is not None:
        instance_patches.append((pool, "snapshot", "adapters.snapshot"))
    for obj, attr, name in instance_patches:
        setattr(obj, attr, tracer.wrap(getattr(obj, attr), name))
    try:
        yield
    finally:
        for obj, attr, _ in instance_patches:
            delattr(obj, attr)
        for mod, attr, original in saved:
            setattr(mod, attr, original)

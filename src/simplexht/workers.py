"""A serial, order-preserving map that no package module calls any more.

The package runs on one serial path.  This module stays only because the
benchmark's tracer (`perfbench/tracer.py`) imports it and wraps
`parallel_map`; it goes away with the next change to the benchmark.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """[fn(item) for item in items], in input order."""
    return [fn(item) for item in items]

"""Balanced ternary truth tables and their dense integer encoding.

A two-input, one-output ternary function over the values {-1, 0, +1} is a
3x3 table stored as a flat tuple of nine outputs.  Input A selects the row
and input B the column, so the output for (a, b) sits at cell
``3*(a + 1) + (b + 1)``.  Functions are indexed by reading the table as a
little-endian base-3 number with digit ``output + 1`` per cell, which maps
the 19,683 functions bijectively onto ``range(19683)``: the constant -1
function is index 0 and the constant +1 function is index 19,682.

Each value type of the package that checks its fields is an immutable named
tuple on the base :class:`CheckedTuple`: its ``__new__`` checks them, and
``_replace`` checks a changed copy the same way.  This module imports no
other spinlogic module, so every layer builds on it.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Callable, Iterable, Sequence

VALUES: tuple[int, int, int] = (-1, 0, 1)
NUM_CELLS = 9
NUM_FUNCTIONS = 3**NUM_CELLS  # 19,683

_POWERS = tuple(3**i for i in range(NUM_CELLS))


class CheckedTuple:
    """Base of the package's value types: ``class V(CheckedTuple,
    namedtuple(...))``, with a ``__new__`` that checks the fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        """Build through the constructor.  The named tuple's own ``_make``
        skips ``__new__``, and ``_replace`` builds through ``_make``, so
        without this a changed copy would escape the checks."""
        return cls(*fields)


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_index(index: int, count: int = NUM_FUNCTIONS) -> int:
    """``index`` as an int (a float raises ``TypeError``) in [0, count)."""
    index = operator.index(index)
    if not 0 <= index < count:
        raise ValueError(f"function index must be in [0, {count - 1}], got {index}")
    return index


def _check_value(v: int) -> int:
    if v not in (-1, 0, 1):
        raise ValueError(f"ternary value must be -1, 0 or +1, got {v!r}")
    return int(v)


def cell_index(a: int, b: int) -> int:
    """Flat cell position of input pair (a, b); bijective with {-1,0,1}^2."""
    return 3 * (_check_value(a) + 1) + (_check_value(b) + 1)


class TernaryFunction(CheckedTuple, namedtuple("TernaryFunction", "outputs")):
    """Immutable 3x3 truth table over {-1, 0, +1}.

    A one-field named tuple: ``len(f) == 1``, iterating ``f`` yields its
    ``outputs``, and ``f`` equals (and hashes as) the plain tuple
    ``(f.outputs,)``."""

    __slots__ = ()

    def __new__(cls, outputs: Iterable[int]) -> "TernaryFunction":
        outputs = tuple(_check_value(v) for v in outputs)
        if len(outputs) != NUM_CELLS:
            raise ValueError(f"expected {NUM_CELLS} outputs, got {len(outputs)}")
        return tuple.__new__(cls, (outputs,))

    def __call__(self, a: int, b: int) -> int:
        return self.outputs[cell_index(a, b)]

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """Table rows in input-A order -1, 0, +1."""
        return tuple(self.outputs[3 * i : 3 * i + 3] for i in range(3))

    @property
    def index(self) -> int:
        return encode(self)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "TernaryFunction":
        flat: list[int] = []
        for row in rows:
            flat.extend(row)
        return cls(tuple(flat))

    @classmethod
    def from_callable(cls, fn: Callable[[int, int], int]) -> "TernaryFunction":
        return cls(tuple(fn(a, b) for a in VALUES for b in VALUES))


def encode(f: TernaryFunction) -> int:
    """Little-endian base-3 index of a truth table."""
    return sum((v + 1) * p for v, p in zip(f.outputs, _POWERS))


def decode(index: int) -> TernaryFunction:
    """Inverse of :func:`encode`."""
    index = _check_index(index)
    return TernaryFunction(tuple((index // p) % 3 - 1 for p in _POWERS))


def multiplication() -> TernaryFunction:
    """Ternary multiplication, f(a, b) = a*b."""
    return TernaryFunction.from_callable(lambda a, b: a * b)

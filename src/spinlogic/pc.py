"""Parameter-centric (PC) classification.

The PC signature of a table is the pair of multisets counting distinct output
values per row and per column, taken in either order.  The signature is
invariant under every relabelling transform (output permutations preserve
distinct counts, input permutations shuffle whole rows or columns, and an
input swap exchanges the two multisets), so each equivalence class from
:mod:`spinlogic.npn` lies wholly inside one PC class.  For ternary functions
some PC classes merge several of them (84 equivalence classes fall into 33
PC classes); for binary gates the two partitions coincide.

:func:`pc_keys` gives every function index its signature as one uint16 key,
which orders functions exactly as their normalized signatures, so the key
array next to :func:`spinlogic.npn.canonical_map` answers every class-level
question (class sizes, the NPN classes each PC class spans, whether every
NPN class lies in one PC class) without listing any class's members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import npn
from .ternary import TernaryFunction


@dataclass(frozen=True)
class PcSignature:
    """Unordered pair of sorted distinct-count multisets.

    Stored normalized (lexicographically smaller multiset first), so
    constructing from (rows, cols) and (cols, rows) yields equal values.
    """

    first: tuple[int, ...]
    second: tuple[int, ...]

    @classmethod
    def of(cls, row_counts: Sequence[int], col_counts: Sequence[int]) -> "PcSignature":
        r, c = tuple(sorted(row_counts)), tuple(sorted(col_counts))
        return cls(min(r, c), max(r, c))


def signature_of_grid(grid: Sequence[Sequence[int]]) -> PcSignature:
    """Signature from the distinct-output counts of each row and column."""
    rows = [len(set(row)) for row in grid]
    cols = [len({row[j] for row in grid}) for j in range(len(grid[0]))]
    return PcSignature.of(rows, cols)


def pc_signature(f: TernaryFunction) -> PcSignature:
    return signature_of_grid(f.rows())


@dataclass(frozen=True)
class PcClass:
    """All functions sharing one signature, with the canonical indices of the
    equivalence classes they span."""

    signature: PcSignature
    members: tuple[int, ...]
    npn_canonicals: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def single_npn(self) -> bool:
        return len(self.npn_canonicals) == 1


def pc_keys(radix: int = 3) -> np.ndarray:
    """PC key of every function index (19,683 ternary, 16 binary), uint16.

    The sorted distinct counts of a table's rows, and of its columns, are
    each read as a base-(radix + 1) number, most significant count first;
    the key is (smaller number, larger number) read as two digits of base
    (radix + 1)**radix, so keys order functions exactly as their normalized
    signatures, and :func:`signature_of_key` decodes one.  Counts are uint8,
    accumulated by one comparison pass over the digit tables per value."""
    grids = npn._all_digit_tables(radix).reshape(-1, radix, radix)
    rows = np.zeros(grids.shape[:2], dtype=np.uint8)
    cols = np.zeros_like(rows)
    for v in range(radix):
        present = grids == v
        rows += present.any(axis=2)
        cols += present.any(axis=1)
    rows.sort(axis=1)
    cols.sort(axis=1)
    row_key = np.zeros(len(grids), dtype=np.uint16)
    col_key = np.zeros_like(row_key)
    for c in range(radix):
        row_key = row_key * (radix + 1) + rows[:, c]
        col_key = col_key * (radix + 1) + cols[:, c]
    key = np.minimum(row_key, col_key) * (radix + 1) ** radix
    key += np.maximum(row_key, col_key)
    return key


def signature_of_key(key: int, radix: int = 3) -> PcSignature:
    """The normalized signature that :func:`pc_keys` encodes as ``key``."""
    base = radix + 1

    def counts(number: int) -> tuple[int, ...]:
        return tuple(number // base ** (radix - 1 - i) % base for i in range(radix))

    first, second = divmod(int(key), base**radix)
    return PcSignature(counts(first), counts(second))


def pc_classify_all(radix: int = 3) -> list[PcClass]:
    """Partition every function of the radix (19,683 ternary, 16 binary) by
    PC signature, each class annotated with the NPN canonicals occurring
    among its members; sorted by normalized signature.

    Functions are grouped by their :func:`pc_keys` key, whose order is the
    signature order, and every class lists its members as Python ints.
    Class sizes and spanned NPN classes alone need no member lists: they
    follow from the key array and the canonical map."""
    key = pc_keys(radix)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order])) + 1
    canon = npn.canonical_map(radix)
    return [
        PcClass(
            signature_of_key(key[members[0]], radix),
            tuple(members.tolist()),
            tuple(sorted(set(canon[members].tolist()))),
        )
        for members in np.split(order, starts)
    ]

"""Parameter-centric (PC) classification.

The PC signature of a table is the pair of multisets counting distinct output
values per row and per column, taken in either order.  The signature is
invariant under every relabelling transform (output permutations preserve
distinct counts, input permutations shuffle whole rows or columns, and an
input swap exchanges the two multisets), so each equivalence class from
:mod:`spinlogic.npn` lies wholly inside one PC class.  For ternary functions
some PC classes merge several of them (84 equivalence classes fall into 33
PC classes); for binary gates the two partitions coincide.
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


def pc_classify_all(radix: int = 3) -> list[PcClass]:
    """Partition every function of the radix (19,683 ternary, 16 binary) by
    PC signature, each class annotated with the NPN canonicals occurring
    among its members; sorted by normalized signature.

    One numpy pass over all digit tables: the sorted distinct counts of the
    rows, and of the columns, are read as a base-(radix + 1) number, most
    significant count first, so the key (smaller number, larger number)
    orders functions exactly as their normalized signatures."""
    grids = npn._all_digit_tables(radix).reshape(-1, radix, radix)
    present = grids[..., None] == np.arange(radix, dtype=grids.dtype)
    rows = np.sort(present.any(axis=2).sum(axis=2), axis=1)
    cols = np.sort(present.any(axis=1).sum(axis=2), axis=1)
    weights = (radix + 1) ** np.arange(radix - 1, -1, -1)
    row_key, col_key = rows @ weights, cols @ weights
    key = np.minimum(row_key, col_key) * (radix + 1) ** radix + np.maximum(row_key, col_key)
    order = np.argsort(key, kind="stable")
    _, starts = np.unique(key[order], return_index=True)
    canon = npn.canonical_map(radix)
    classes = []
    for members in np.split(order, starts[1:]):
        first = members[0]
        classes.append(
            PcClass(
                PcSignature.of(rows[first].tolist(), cols[first].tolist()),
                tuple(members.tolist()),
                tuple(sorted(set(canon[members].tolist()))),
            )
        )
    return classes

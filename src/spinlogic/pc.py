"""Parameter-centric (PC) classification.

The PC signature of a table is the pair of multisets counting distinct output
values per row and per column, taken in either order.  The signature is
invariant under every relabelling transform (output permutations preserve
distinct counts, input permutations shuffle whole rows or columns, and an
input swap exchanges the two multisets), so each equivalence class from
:mod:`spinlogic.npn` lies wholly inside one PC class.  For ternary functions
some PC classes merge several of them (84 equivalence classes fall into 33
PC classes); for binary gates the two partitions coincide.

:func:`pc_keys` gives every function index its signature as one key, in an
array of uint16 keys that orders functions exactly as their normalized
signatures.  The keys are built from the tables alone, without the
equivalence classes, so the key array next to
:func:`spinlogic.npn.canonical_map` answers every class-level question
(class sizes, the NPN classes each PC class spans, whether every NPN class
lies in one PC class) without listing any class's members, and the last of
these is a check of one against the other.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

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


def pc_keys(radix: int = 3) -> array:
    """PC key of every function index (19,683 ternary, 16 binary), as an
    ``array`` of uint16 keys.

    The sorted distinct counts of a table's rows, and of its columns, are
    each read as a base-(radix + 1) number, most significant count first;
    the key is (smaller number, larger number) read as two digits of base
    (radix + 1)**radix, so keys order functions exactly as their normalized
    signatures, and :func:`signature_of_key` decodes one.

    A function index is its rows' codes (each row's digits read in base
    radix) as digits of base radix**radix, so every function's row counts,
    and its transpose's index, are built row by row from tables over the
    row codes.  The column counts of a function are the row counts of its
    transpose."""
    base, codes = radix + 1, radix**radix
    high = base**radix
    row_digits = [[code // radix**b % radix for b in range(radix)] for code in range(codes)]
    unsorted = array("B", [0])  # the rows' distinct counts in row order, in base radix + 1
    transposed = array("H", [0])
    for a in range(radix):
        counts = [len(set(digits)) * base**a for digits in row_digits]
        unsorted = array("B", (u + c for c in counts for u in unsorted))
        # row a of a table is column a of its transpose
        spread = [sum(d * radix ** (radix * b + a) for b, d in enumerate(digits)) for digits in row_digits]
        transposed = array("H", (t + s for s in spread for t in transposed))
    # the same counts sorted, smallest the most significant digit
    sorted_number = [
        sum(c * base**i for i, c in enumerate(sorted((u // base**a % base for a in range(radix)), reverse=True)))
        for u in range(high)
    ]
    rows = array("B", map(sorted_number.__getitem__, unsorted))
    return array(
        "H", (r * high + c if r <= c else c * high + r for r, c in zip(rows, map(rows.__getitem__, transposed)))
    )


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
    members: dict[int, list[int]] = {}
    for f, k in enumerate(pc_keys(radix)):
        members.setdefault(k, []).append(f)
    canon = npn.canonical_map(radix)
    return [
        PcClass(signature_of_key(k, radix), tuple(group), tuple(sorted({canon[f] for f in group})))
        for k, group in sorted(members.items())
    ]

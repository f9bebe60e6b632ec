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
array of one-byte keys, each the ranks of its two multisets in the
lexicographic list of every multiset, so that keys order functions exactly
as their normalized signatures.  The keys are built from the tables alone,
without the equivalence classes, so the key array next to
:func:`spinlogic.npn.canonical_map` answers every class-level question
(class sizes, the NPN classes each PC class spans, whether every NPN class
lies in one PC class) without listing any class's members, and the last of
these is a check of one against the other.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from typing import Sequence

from . import npn
from .ternary import TernaryFunction


class PcSignature(namedtuple("PcSignature", "first second")):
    """Unordered pair of sorted distinct-count multisets.

    Stored normalized (lexicographically smaller multiset first), so
    constructing from (rows, cols) and (cols, rows) yields equal values.
    A named tuple: ``len(s) == 2``, iterating ``s`` yields ``first`` and
    ``second``, and ``s`` equals the plain tuple ``(first, second)``.
    """

    __slots__ = ()

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


class PcClass(namedtuple("PcClass", "signature members npn_canonicals")):
    """All functions sharing one signature, with the canonical indices of the
    equivalence classes they span.

    A named tuple (``len(c) == 3``, iteration in field order, equal to the
    plain tuple ``(signature, members, npn_canonicals)``)."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def single_npn(self) -> bool:
        return len(self.npn_canonicals) == 1


def _multisets(radix: int) -> list[tuple[int, ...]]:
    """Every sorted distinct-count multiset of a radix's lines, in
    lexicographic order (10 for radix 3); a PC key is two ranks in this list."""
    return list(itertools.combinations_with_replacement(range(1, radix + 1), radix))


def pc_keys(radix: int = 3) -> array:
    """PC key of every function index (19,683 ternary, 16 binary), as an
    ``array`` of one-byte keys.

    The sorted distinct counts of a table's rows, and of its columns, are
    each ranked in the lexicographic list of the k multisets that can occur;
    the key is (smaller rank) * k + (larger rank), below k * k (100 for
    radix 3), so keys order functions exactly as their normalized
    signatures, and :func:`signature_of_key` decodes one.

    Each function's small numbers are the bytes of one ``bytes`` object of
    one byte per function index, so one pass handles every function.  A
    function index is its rows' codes (each row's digits read in base
    radix) as digits of base radix**radix, so a table over the codes of
    row ``a``, each entry repeated radix**(radix*a) times and the whole
    repeated, gives every function's entry; a sum of such bytes is one
    big-int addition, with no carry between bytes as every sum stays below
    256; and ``bytes.translate`` looks every byte up in a table.  The code
    of column ``b`` is such a sum over the rows' digits ``b``, and a line
    of ``n`` distinct values adds (radix + 1)**(n - 1), so summing over the
    rows (or the columns) counts the lines of each distinct count: the
    sorted counts, one of the multisets."""
    base, codes = radix + 1, radix**radix
    count = codes**radix
    digits = [[code // radix**b % radix for b in range(radix)] for code in range(codes)]

    def spread(table: list[int], a: int) -> bytes:
        return b"".join(bytes([t]) * codes**a for t in table) * codes ** (radix - 1 - a)

    def total(parts) -> bytes:
        return sum(int.from_bytes(p, "little") for p in parts).to_bytes(count, "little")

    def lookup(table: list[int]) -> bytes:
        return bytes(table).ljust(256, b"\0")

    weight = [base ** (len(set(d)) - 1) for d in digits]
    rows = total(spread(weight, a) for a in range(radix))
    columns = (total(spread([d[b] * radix**a for d in digits], a) for a in range(radix)) for b in range(radix))
    cols = total(c.translate(lookup(weight)) for c in columns)
    multisets = _multisets(radix)
    rank = [0] * base**radix
    for i, m in enumerate(multisets):
        rank[sum(base ** (c - 1) for c in m)] = i
    k = len(multisets)
    # the row and column ranks as one byte, i*k + j, then the smaller rank first
    pair = total([rows.translate(lookup([r * k for r in rank])), cols.translate(lookup(rank))])
    return array("B", pair.translate(lookup([min(i, j) * k + max(i, j) for i in range(k) for j in range(k)])))


def signature_of_key(key: int, radix: int = 3) -> PcSignature:
    """The normalized signature that :func:`pc_keys` encodes as ``key``."""
    multisets = _multisets(radix)
    first, second = divmod(int(key), len(multisets))
    return PcSignature(multisets[first], multisets[second])


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

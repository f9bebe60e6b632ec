"""Relabelling symmetries of two-input logic tables.

A transform applies a value permutation to each input, optionally swaps the
two inputs, and applies a value permutation to the output.  For radix 3 that
gives a group of 6*6*2*6 = 432 elements; for radix 2 (binary gates, where the
only nontrivial value permutation is negation) it is the classical NPN group
of order 16.  Two functions are equivalent when some transform maps one onto
the other, i.e. when one physical implementation realizes both under a
relabelling of its levels; the orbits of this action are the equivalence
classes.

Two computations cover the whole function set, in plain Python.
:func:`canonical_map` enumerates each orbit once, from its smallest member:
the group acts on a table's rows by a map on row codes (perm_b and
perm_out), a row order (perm_a) and a transposition (the swap), so an
orbit's images are sums of table entries, at most 432 per orbit.
:func:`burnside_count` averages fixed-point counts that follow from each
transform's cycle type (Burnside's lemma, as in Polya counting); it lists no
orbit and no image, so it shares no code path with the canonical map and the
two class counts check each other.

Tables are handled internally as tuples of ``radix**2`` digits in
``range(radix)``, with the cell for inputs ``(da, db)`` at flat position
``radix*da + db``.  For radix 3 a digit is the logic value plus one, matching
:mod:`spinlogic.ternary`; for radix 2 digits are the logic values themselves.

Applying a transform ``t`` to ``f`` yields ``g`` with

    g(a, b) = perm_out(f(perm_a^-1(a'), perm_b^-1(b')))

where ``(a', b') = (b, a)`` if ``t.swap_inputs`` else ``(a, b)``.  The
inverse-permutation convention makes transforms compose like group elements:
``apply(t2, apply(t1, f)) == apply(compose(t2, t1), f)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections import namedtuple
from collections.abc import Iterator

from .ternary import CheckedTuple, TernaryFunction, _check_index


def _check_perm(perm: tuple[int, ...], radix: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(radix)):
        raise ValueError(f"not a permutation of range({radix}): {perm!r}")
    return perm


class NpnTransform(CheckedTuple, namedtuple("NpnTransform", "perm_a perm_b swap_inputs perm_out")):
    """One element of the relabelling group: value permutations on each
    input, an optional input swap, and a value permutation on the output.

    A named tuple of those four fields: ``len(t) == 4``, iterating ``t``
    yields them in order, and ``t`` equals (and hashes as) the plain tuple
    ``(perm_a, perm_b, swap_inputs, perm_out)``."""

    __slots__ = ()

    def __new__(cls, perm_a, perm_b, swap_inputs, perm_out) -> "NpnTransform":
        radix = len(perm_a)
        return tuple.__new__(
            cls,
            (
                _check_perm(perm_a, radix),
                _check_perm(perm_b, radix),
                bool(swap_inputs),
                _check_perm(perm_out, radix),
            ),
        )

    @property
    def radix(self) -> int:
        return len(self.perm_a)

    def cells(self) -> tuple[int, ...]:
        """Destination cell of each source cell ``radix*da + db``."""
        r, s = self.radix, self.swap_inputs
        return tuple(r * ib + ia if s else r * ia + ib for ia in self.perm_a for ib in self.perm_b)


def identity_transform(radix: int = 3) -> NpnTransform:
    ident = tuple(range(radix))
    return NpnTransform(ident, ident, False, ident)


@functools.lru_cache(maxsize=None)
def all_transforms(radix: int = 3) -> tuple[NpnTransform, ...]:
    """The full group, identity first; 432 elements for radix 3, 16 for 2."""
    perms = tuple(itertools.permutations(range(radix)))
    return tuple(
        NpnTransform(pa, pb, swap, po)
        for pa in perms
        for pb in perms
        for swap in (False, True)
        for po in perms
    )


def value_permutation(mapping: dict[int, int]) -> tuple[int, ...]:
    """Digit permutation from a mapping on logic values.

    Accepts a bijection on {-1, 0, 1} (radix 3) or on {0, 1} (radix 2).
    """
    keys = sorted(mapping)
    if keys == [-1, 0, 1]:
        return _check_perm(tuple(mapping[v] + 1 for v in keys), 3)
    if keys == [0, 1]:
        return _check_perm(tuple(mapping[v] for v in keys), 2)
    raise ValueError(f"mapping must cover {{-1,0,1}} or {{0,1}}, got keys {keys}")


def compose(t2: NpnTransform, t1: NpnTransform) -> NpnTransform:
    """Group product: applying the result equals applying t1 then t2."""
    if t1.radix != t2.radix:
        raise ValueError("cannot compose transforms of different radix")

    def after(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(f[g[d]] for d in range(len(g)))

    # When t1 swaps, t2's input permutations land on the exchanged inputs.
    if t1.swap_inputs:
        perm_a = after(t2.perm_b, t1.perm_a)
        perm_b = after(t2.perm_a, t1.perm_b)
    else:
        perm_a = after(t2.perm_a, t1.perm_a)
        perm_b = after(t2.perm_b, t1.perm_b)
    return NpnTransform(
        perm_a,
        perm_b,
        t1.swap_inputs != t2.swap_inputs,
        after(t2.perm_out, t1.perm_out),
    )


def digits_of_index(index: int, radix: int = 3) -> tuple[int, ...]:
    """Little-endian base-``radix`` digit table of a function index."""
    cells = radix * radix
    index = _check_index(index, radix**cells)
    digits = []
    for _ in range(cells):
        digits.append(index % radix)
        index //= radix
    return tuple(digits)


def index_of_digits(digits: tuple[int, ...], radix: int = 3) -> int:
    index = 0
    for d in reversed(digits):
        index = index * radix + d
    return index


def apply_to_digits(t: NpnTransform, digits: tuple[int, ...]) -> tuple[int, ...]:
    """Transform a digit table; works for any radix."""
    out = [0] * len(digits)
    for src, dst in enumerate(t.cells()):
        out[dst] = t.perm_out[digits[src]]
    return tuple(out)


def apply_transform(t: NpnTransform, f: TernaryFunction) -> TernaryFunction:
    """Transform a ternary truth table."""
    if t.radix != 3:
        raise ValueError("apply_transform on a TernaryFunction needs a radix-3 transform")
    digits = tuple(v + 1 for v in f.outputs)
    return TernaryFunction(tuple(d - 1 for d in apply_to_digits(t, digits)))


class NpnClass(namedtuple("NpnClass", "canonical members radix", defaults=(3,))):
    """An orbit of the relabelling group, canonicalized by its minimum index.

    A named tuple (``len(c) == 3``, iteration in field order, equal to the
    plain tuple ``(canonical, members, radix)``)."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


def orbit(index: int, radix: int = 3) -> NpnClass:
    """Full equivalence class of one function, by explicit closure over the group."""
    digits = digits_of_index(index, radix)
    members = {index_of_digits(apply_to_digits(t, digits), radix) for t in all_transforms(radix)}
    ordered = tuple(sorted(members))
    return NpnClass(ordered[0], ordered, radix)


def stabilizer(index: int, radix: int = 3) -> tuple[NpnTransform, ...]:
    """All transforms fixing the function; its length times the orbit size
    equals the group order."""
    digits = digits_of_index(index, radix)
    return tuple(t for t in all_transforms(radix) if apply_to_digits(t, digits) == digits)


@functools.lru_cache(maxsize=None)
def _moved_rows(radix: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """What one row of a table adds to the index of each of its images.

    A row code is a row's digits read as a little-endian base-``radix``
    number, and row ``a`` of a function index is its ``a``-th digit in base
    ``radix**radix``.  A transform without the input swap maps every row
    code by one row map (from perm_b and perm_out) and moves row ``a`` to
    place ``perm_a[a]``, so ``moved[a][code]`` lists, for each such
    transform (perm_a major), the row map's image of ``code`` weighted by
    that place; an image's index is the sum over the rows."""
    perms = tuple(itertools.permutations(range(radix)))
    codes = radix**radix
    row_maps = [
        [sum(po[code // radix**b % radix] * radix ** pb[b] for b in range(radix)) for code in range(codes)]
        for pb in perms
        for po in perms
    ]
    placed = [[tuple(m[code] * codes**k for m in row_maps) for code in range(codes)] for k in range(radix)]
    return tuple(
        tuple(sum((placed[pa[a]][code] for pa in perms), ()) for code in range(codes)) for a in range(radix)
    )


_add_elementwise = functools.partial(map, operator.add)


def _transpose(index: int, radix: int = 3) -> int:
    """Index of the transposed table: the image under the input swap."""
    digits = digits_of_index(index, radix)
    return index_of_digits(tuple(digits[radix * b + a] for a in range(radix) for b in range(radix)), radix)


def _images(index: int, radix: int = 3) -> Iterator[int]:
    """The index of ``index``'s image under every transform without the
    input swap, in the order of :func:`_moved_rows` (216 for radix 3, with
    repeats when the function has a nontrivial stabilizer).  With the
    images of the transpose these are the images under the whole group."""
    moved, codes = _moved_rows(radix), radix**radix
    return functools.reduce(_add_elementwise, [moved[a][index // codes**a % codes] for a in range(radix)])


@functools.lru_cache(maxsize=None)
def canonical_map(radix: int = 3) -> memoryview:
    """Canonical (minimum orbit member) index for every function index.

    Orbits are enumerated in order of their smallest member: the first
    function without a label is the minimum of its orbit, and all its
    images get its index as their label.  The transforms without the swap
    form a subgroup, so the orbit is the union of the subgroup orbits of
    the function and of its transpose (see :func:`_images`), which are
    equal or disjoint; the second is labelled only when it is new.  The
    labels are held in an ``array`` of the smallest unsigned type that
    holds them (uint16 for radix 3, uint8 for 2) and returned as a
    read-only memoryview, which ``np.asarray`` wraps without a copy."""
    count = radix ** (radix * radix)
    unlabelled = count  # no function index, and it fits the label type
    label = array("B" if count < 2**8 else "H", [unlabelled]) * (count + 1)  # the last entry ends the scan
    f = label.index(unlabelled)
    while f < count:
        for g in (f, _transpose(f, radix)):
            if label[g] != f:
                for image in _images(g, radix):
                    label[image] = f
        f = label.index(unlabelled, f + 1)
    return memoryview(label)[:count].toreadonly()


def canonical_index(index: int, radix: int = 3) -> int:
    """Canonical representative of the class containing ``index``."""
    return int(canonical_map(radix)[_check_index(index, radix ** (radix * radix))])


def classify_all(radix: int = 3) -> list[NpnClass]:
    """Partition every function of the radix (19,683 ternary, 16 binary)
    into equivalence classes, sorted by canonical index."""
    members: dict[int, list[int]] = {}
    for f, c in enumerate(canonical_map(radix)):
        members.setdefault(c, []).append(f)
    return [NpnClass(c, tuple(group), radix) for c, group in sorted(members.items())]


def _iterate(perm: tuple[int, ...], d: int, times: int) -> int:
    for _ in range(times):
        d = perm[d]
    return d


def fixed_point_counts(radix: int = 3) -> list[int]:
    """Number of functions fixed by each transform, aligned with
    :func:`all_transforms`; counted from cycle types, without any table.

    A transform moves the value at cell ``c`` to cell ``sigma(c)`` and
    relabels it by ``pi = perm_out``, so ``f`` is fixed exactly when
    ``f(sigma(c)) == pi(f(c))`` for every cell.  Going once round a cell
    cycle of length ``L`` gives ``f(c) == pi**L(f(c))``: the digit on one
    cell of the cycle is any fixed point of ``pi**L`` and fixes the rest.
    The cell map does not depend on ``pi``, so the cycle lengths of each
    (perm_a, perm_b, swap) cell map are found once and combined with each
    ``pi``, in the order of :func:`all_transforms`, and no transform is built.
    """
    r = radix
    perms = list(itertools.permutations(range(r)))
    # fixed[i][L]: how many digits the i-th output permutation, applied L times, fixes
    fixed = [
        [sum(1 for d in range(r) if _iterate(pi, d, length) == d) for length in range(r * r + 1)]
        for pi in perms
    ]
    counts = []
    for perm_a, perm_b, swap in itertools.product(perms, perms, (False, True)):
        # its own copy of the cell map, so the count shares no code with canonical_map
        sigma = [
            r * perm_b[db] + perm_a[da] if swap else r * perm_a[da] + perm_b[db]
            for da in range(r)
            for db in range(r)
        ]
        lengths = []
        seen = [False] * (r * r)
        for start in range(r * r):
            length, cell = 0, start
            while not seen[cell]:
                seen[cell] = True
                cell = sigma[cell]
                length += 1
            if length:
                lengths.append(length)
        counts.extend(math.prod(f[length] for length in lengths) for f in fixed)
    return counts


def burnside_count(radix: int = 3) -> int:
    """Class count via Burnside's lemma: average number of fixed points."""
    counts = fixed_point_counts(radix)
    total, order = sum(counts), len(counts)
    quotient, rem = divmod(total, order)
    if rem:
        raise AssertionError(f"fixed-point total {total} not divisible by group order {order}")
    return quotient

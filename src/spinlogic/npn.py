"""Relabelling symmetries of two-input logic tables.

A transform applies a value permutation to each input, optionally swaps the
two inputs, and applies a value permutation to the output.  For radix 3 that
gives a group of 6*6*2*6 = 432 elements; for radix 2 (binary gates, where the
only nontrivial value permutation is negation) it is the classical NPN group
of order 16.  Two functions are equivalent when some transform maps one onto
the other, i.e. when one physical implementation realizes both under a
relabelling of its levels; the orbits of this action are the equivalence
classes.

Two computations over the whole function set avoid walking all group
elements.  :func:`canonical_map` finds orbit minima by min-label propagation
with pointer jumping over five generators of the group.  :func:`burnside_count`
averages fixed-point counts that follow from each transform's cycle type
(Burnside's lemma, as in Polya counting); it uses no digit table and no
gather, so it shares no code path with the canonical map and the two class
counts check each other.

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
from dataclasses import dataclass

import numpy as np

from .ternary import TernaryFunction


def _check_perm(perm: tuple[int, ...], radix: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(radix)):
        raise ValueError(f"not a permutation of range({radix}): {perm!r}")
    return perm


@dataclass(frozen=True)
class NpnTransform:
    """One element of the relabelling group: value permutations on each
    input, an optional input swap, and a value permutation on the output."""

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    swap_inputs: bool
    perm_out: tuple[int, ...]

    def __post_init__(self) -> None:
        radix = len(self.perm_a)
        object.__setattr__(self, "perm_a", _check_perm(self.perm_a, radix))
        object.__setattr__(self, "perm_b", _check_perm(self.perm_b, radix))
        object.__setattr__(self, "perm_out", _check_perm(self.perm_out, radix))
        object.__setattr__(self, "swap_inputs", bool(self.swap_inputs))

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
    count = radix**cells
    if not 0 <= index < count:
        raise ValueError(f"function index must be in [0, {count - 1}], got {index}")
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


@dataclass(frozen=True)
class NpnClass:
    """An orbit of the relabelling group, canonicalized by its minimum index."""

    canonical: int
    members: tuple[int, ...]
    radix: int = 3

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
def _all_digit_tables(radix: int = 3) -> np.ndarray:
    """(num_functions, cells) digit matrix covering every function index."""
    cells = radix * radix
    count = radix**cells
    out = np.empty((count, cells), dtype=np.uint8)
    rem = np.arange(count, dtype=np.int64)
    for c in range(cells):
        out[:, c] = rem % radix
        rem //= radix
    out.flags.writeable = False
    return out


def _generators(radix: int) -> tuple[NpnTransform, ...]:
    """A generating set of the group: a transposition and an n-cycle on input
    A's values, the input swap, and the same two permutations on the output.
    Input B's permutations arise by conjugating A's with the swap.  For radix
    2 the cycle equals the transposition, which is harmless."""
    ident = tuple(range(radix))
    transposition = (1, 0) + ident[2:]
    cycle = ident[1:] + (0,)
    return (
        NpnTransform(transposition, ident, False, ident),
        NpnTransform(cycle, ident, False, ident),
        NpnTransform(ident, ident, True, ident),
        NpnTransform(ident, ident, False, transposition),
        NpnTransform(ident, ident, False, cycle),
    )


def _index_dtype(radix: int) -> np.dtype:
    """Smallest unsigned dtype that holds ``radix**cells`` (uint16 for radix 3)."""
    return np.min_scalar_type(radix ** (radix * radix))


@functools.lru_cache(maxsize=None)
def _gather_tables(radix: int = 3) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per generator: source cell for each destination cell, plus the output
    digit map, so a whole function set transforms by one numpy gather per cell."""
    return tuple(
        (np.argsort(t.cells()), np.array(t.perm_out, dtype=_index_dtype(radix)))
        for t in _generators(radix)
    )


@functools.lru_cache(maxsize=None)
def canonical_map(radix: int = 3) -> np.ndarray:
    """Canonical (minimum orbit member) index for every function index.

    Orbits are the connected components of the graph whose edges join each
    function to its images under the generators.  Every label starts as the
    function's own index; each round lowers a label to the smallest one among
    its generator images, then jumps every label to its label's label, until
    a round changes nothing.  A label always names a member of the function's
    orbit.  In a finite group each inverse is a power of its element, so the
    forward edges alone connect every orbit and the fixed point holds the
    orbit minimum everywhere.  Images and labels are function indices, held
    in the smallest unsigned dtype that holds them.
    """
    digits = _all_digit_tables(radix)
    count, dtype = len(digits), _index_dtype(radix)
    images = []
    for src_of_dst, vperm in _gather_tables(radix):
        # the image's index, one digit column at a time
        image = np.zeros(count, dtype=dtype)
        for c, src in enumerate(src_of_dst.tolist()):
            image += vperm[digits[:, src]] * radix**c
        images.append(image)
    label = np.arange(count, dtype=dtype)
    while True:
        previous = label
        for image in images:
            label = np.minimum(label, label[image])
        label = label[label]
        if np.array_equal(label, previous):
            break
    label.flags.writeable = False
    return label


def canonical_index(index: int, radix: int = 3) -> int:
    """Canonical representative of the class containing ``index``."""
    count = radix ** (radix * radix)
    if not 0 <= index < count:
        raise ValueError(f"function index must be in [0, {count - 1}], got {index}")
    return int(canonical_map(radix)[index])


def classify_all(radix: int = 3) -> list[NpnClass]:
    """Partition every function of the radix (19,683 ternary, 16 binary)
    into equivalence classes, sorted by canonical index."""
    canon = canonical_map(radix)
    order = np.argsort(canon, kind="stable")
    _, starts = np.unique(canon[order], return_index=True)
    return [
        NpnClass(int(canon[members[0]]), tuple(members.tolist()), radix)
        for members in np.split(order, starts[1:])
    ]


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
    """
    r = radix
    counts = []
    for t in all_transforms(radix):
        # its own copy of the cell map, so the count shares no code with canonical_map
        sigma = [0] * (r * r)
        for da in range(r):
            for db in range(r):
                ia, ib = t.perm_a[da], t.perm_b[db]
                sigma[r * da + db] = r * ib + ia if t.swap_inputs else r * ia + ib
        count = 1
        seen = [False] * (r * r)
        for start in range(r * r):
            length, cell = 0, start
            while not seen[cell]:
                seen[cell] = True
                cell = sigma[cell]
                length += 1
            if length:
                count *= sum(1 for d in range(r) if _iterate(t.perm_out, d, length) == d)
        counts.append(count)
    return counts


def burnside_count(radix: int = 3) -> int:
    """Class count via Burnside's lemma: average number of fixed points."""
    counts = fixed_point_counts(radix)
    total, order = sum(counts), len(counts)
    quotient, rem = divmod(total, order)
    if rem:
        raise AssertionError(f"fixed-point total {total} not divisible by group order {order}")
    return quotient

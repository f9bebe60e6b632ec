import random
from array import array

import numpy as np
import pytest

from spinlogic import npn, pc
from spinlogic.ternary import NUM_FUNCTIONS, TernaryFunction, decode, multiplication


def counts_oracle(grid):
    """Direct distinct-count tally, kept separate from the library path."""
    rows = sorted(len({v for v in row}) for row in grid)
    ncols = len(grid[0])
    cols = sorted(len({grid[i][j] for i in range(len(grid))}) for j in range(ncols))
    return tuple(rows), tuple(cols)


def test_multiplication_signature():
    sig = pc.pc_signature(multiplication())
    assert sig == pc.PcSignature.of((1, 3, 3), (1, 3, 3))
    assert sig.first == (1, 3, 3) and sig.second == (1, 3, 3)


def test_constant_signature():
    sig = pc.pc_signature(decode(9841))
    assert sig == pc.PcSignature.of((1, 1, 1), (1, 1, 1))


def test_projection_signature():
    f = TernaryFunction.from_callable(lambda a, b: a)
    rows, cols = counts_oracle(f.rows())
    assert (rows, cols) == ((1, 1, 1), (3, 3, 3))
    assert pc.pc_signature(f) == pc.PcSignature.of(rows, cols)


def test_signature_pair_is_unordered():
    assert pc.PcSignature.of((1, 2, 3), (2, 2, 3)) == pc.PcSignature.of((2, 2, 3), (1, 2, 3))
    rng = random.Random(3)
    for _ in range(25):
        f = decode(rng.randrange(NUM_FUNCTIONS))
        rows = f.rows()
        transposed = tuple(tuple(rows[i][j] for i in range(3)) for j in range(3))
        assert pc.signature_of_grid(rows) == pc.signature_of_grid(transposed)


def test_signature_invariant_under_all_transforms():
    rng = random.Random(41)
    transforms = npn.all_transforms(3)
    for _ in range(50):
        f = decode(rng.randrange(NUM_FUNCTIONS))
        sig = pc.pc_signature(f)
        for t in transforms:
            assert pc.pc_signature(npn.apply_transform(t, f)) == sig


def test_pc_classify_all_structure():
    classes = pc.pc_classify_all()
    assert sum(c.size for c in classes) == NUM_FUNCTIONS
    # every NPN class sits inside exactly one PC class
    assert sum(len(c.npn_canonicals) for c in classes) == 84
    seen = set()
    for c in classes:
        assert not seen.intersection(c.npn_canonicals)
        seen.update(c.npn_canonicals)
    assert len(seen) == 84
    sigs = [(c.signature.first, c.signature.second) for c in classes]
    assert sigs == sorted(sigs)


def test_multiplication_pc_class_is_a_single_npn_class():
    sig = pc.pc_signature(multiplication())
    (cls,) = [c for c in pc.pc_classify_all() if c.signature == sig]
    assert cls.single_npn
    assert cls.npn_canonicals == (npn.canonical_index(multiplication().index),)


@pytest.mark.parametrize("radix", [2, 3])
def test_pc_classify_all_matches_scalar_signatures(radix):
    """The one-pass partition equals grouping every function by the scalar
    ``signature_of_grid`` of its table, signatures, members and NPN
    canonicals alike."""
    canon = npn.canonical_map(radix)
    members, canonicals = {}, {}
    for i in range(radix ** (radix * radix)):
        d = npn.digits_of_index(i, radix)
        sig = pc.signature_of_grid([d[k : k + radix] for k in range(0, radix * radix, radix)])
        members.setdefault(sig, []).append(i)
        canonicals.setdefault(sig, set()).add(int(canon[i]))
    expected = [
        (sig, tuple(members[sig]), tuple(sorted(canonicals[sig])))
        for sig in sorted(members, key=lambda s: (s.first, s.second))
    ]
    classes = pc.pc_classify_all(radix)
    assert [(c.signature, c.members, c.npn_canonicals) for c in classes] == expected
    if radix == 2:
        # XOR is digits (0,1,1,0) -> index 6; every line holds both values.
        by_member = {i: c.signature for c in classes for i in c.members}
        assert by_member[6] == pc.PcSignature.of((2, 2), (2, 2))
        assert by_member[0] == pc.PcSignature.of((1, 1), (1, 1))
        # the binary PC partition is the NPN partition
        assert {frozenset(c.members) for c in classes} == {
            frozenset(c.members) for c in npn.classify_all(2)
        }


@pytest.mark.parametrize("radix", [2, 3])
def test_pc_keys_order_and_group_functions_as_scalar_signatures(radix):
    """Each function's key decodes to the scalar signature of its table, and
    the distinct keys, ascending, decode to strictly ascending signatures, so
    two functions' keys compare exactly as their signatures do."""
    key = pc.pc_keys(radix)
    assert np.asarray(key).dtype == np.uint16 and len(key) == radix ** (radix * radix)
    signatures = []
    for i in range(len(key)):
        d = npn.digits_of_index(i, radix)
        signatures.append(pc.signature_of_grid([d[k : k + radix] for k in range(0, radix * radix, radix)]))
    assert [pc.signature_of_key(k, radix) for k in key.tolist()] == signatures
    ordered = [pc.signature_of_key(k, radix) for k in sorted(set(key.tolist()))]
    as_tuples = [(s.first, s.second) for s in ordered]
    assert all(x < y for x, y in zip(as_tuples, as_tuples[1:]))


def pc_keys_reference(radix):
    """PC keys as first built, one function at a time: row counts and the
    transpose index row by row from tables over the row codes, and the
    column counts as the row counts of the transpose."""
    base, codes = radix + 1, radix**radix
    high = base**radix
    row_digits = [[code // radix**b % radix for b in range(radix)] for code in range(codes)]
    unsorted = array("B", [0])
    transposed = array("H", [0])
    for a in range(radix):
        counts = [len(set(digits)) * base**a for digits in row_digits]
        unsorted = array("B", (u + c for c in counts for u in unsorted))
        spread = [sum(d * radix ** (radix * b + a) for b, d in enumerate(digits)) for digits in row_digits]
        transposed = array("H", (t + s for s in spread for t in transposed))
    sorted_number = [
        sum(c * base**i for i, c in enumerate(sorted((u // base**a % base for a in range(radix)), reverse=True)))
        for u in range(high)
    ]
    rows = array("B", map(sorted_number.__getitem__, unsorted))
    return array(
        "H", (r * high + c if r <= c else c * high + r for r, c in zip(rows, map(rows.__getitem__, transposed)))
    )


@pytest.mark.parametrize("radix", [2, 3])
def test_pc_keys_equal_the_row_by_row_reference(radix):
    key = pc.pc_keys(radix)
    assert key.typecode == "H"
    assert key == pc_keys_reference(radix)


def test_pc_values_are_immutable_named_tuples():
    sig = pc.PcSignature.of((3, 1, 3), (1, 3, 3))
    same = pc.PcSignature((1, 3, 3), (1, 3, 3))
    assert sig == same and hash(sig) == hash(same) and {sig: 1}[same] == 1
    assert repr(sig) == "PcSignature(first=(1, 3, 3), second=(1, 3, 3))"
    assert len(sig) == 2 and tuple(sig) == (sig.first, sig.second) and sig == ((1, 3, 3), (1, 3, 3))
    cls = pc.PcClass(sig, (0, 1), (0,))
    assert repr(cls) == (
        "PcClass(signature=PcSignature(first=(1, 3, 3), second=(1, 3, 3)), members=(0, 1), npn_canonicals=(0,))"
    )
    assert cls == pc.PcClass(same, (0, 1), (0,)) and hash(cls) == hash(pc.PcClass(same, (0, 1), (0,)))
    assert len(cls) == 3 and cls == (sig, (0, 1), (0,)) and cls.size == 2 and cls.single_npn
    for value, field in ((sig, "first"), (cls, "members")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())
        with pytest.raises(AttributeError):
            value.extra = 1

import random

import pytest

from spinlogic import npn
from spinlogic.ternary import NUM_FUNCTIONS, TernaryFunction, decode, encode, multiplication


def random_transform(rng, radix=3):
    return rng.choice(npn.all_transforms(radix))


def test_group_sizes():
    assert len(npn.all_transforms(3)) == 432
    assert len(npn.all_transforms(2)) == 16
    assert len(set(npn.all_transforms(3))) == 432
    assert npn.all_transforms(3)[0] == npn.identity_transform(3)


def test_identity_leaves_function_unchanged():
    mult = multiplication()
    assert npn.apply_transform(npn.identity_transform(), mult) == mult


def test_swap_fixes_symmetric_table():
    # Multiplication's table is symmetric about the main diagonal.
    ident = tuple(range(3))
    swap = npn.NpnTransform(ident, ident, True, ident)
    mult = multiplication()
    assert npn.apply_transform(swap, mult) == mult


def test_swap_transposes_table():
    f = decode(12345)
    ident = tuple(range(3))
    g = npn.apply_transform(npn.NpnTransform(ident, ident, True, ident), f)
    rows = f.rows()
    transposed = tuple(tuple(rows[i][j] for i in range(3)) for j in range(3))
    assert g.rows() == transposed


def test_input_b_permutation_exchanges_columns():
    # Swapping logic values 0 and 1 on input B exchanges those two columns.
    perm_b = npn.value_permutation({-1: -1, 0: 1, 1: 0})
    t = npn.NpnTransform(tuple(range(3)), perm_b, False, tuple(range(3)))
    mult = multiplication()
    g = npn.apply_transform(t, mult)
    expected = TernaryFunction.from_rows(
        [(row[0], row[2], row[1]) for row in mult.rows()]
    )
    assert g == expected


def test_output_permutation_relabels_cells():
    perm_out = npn.value_permutation({-1: 1, 0: -1, 1: 0})
    t = npn.NpnTransform(tuple(range(3)), tuple(range(3)), False, perm_out)
    f = decode(4242)
    g = npn.apply_transform(t, f)
    relabel = {-1: 1, 0: -1, 1: 0}
    assert g.outputs == tuple(relabel[v] for v in f.outputs)


def test_compose_matches_sequential_application():
    rng = random.Random(101)
    for _ in range(200):
        t1, t2 = random_transform(rng), random_transform(rng)
        f = decode(rng.randrange(NUM_FUNCTIONS))
        via_steps = npn.apply_transform(t2, npn.apply_transform(t1, f))
        via_product = npn.apply_transform(npn.compose(t2, t1), f)
        assert via_steps == via_product


def test_orbit_multiplication_has_54_members():
    orbit = npn.orbit(encode(multiplication()))
    assert orbit.size == 54
    assert orbit.canonical == min(orbit.members)
    assert encode(multiplication()) in orbit.members


def test_orbit_of_constants():
    middle = sum(3**i for i in range(9))
    assert npn.orbit(0).members == (0, middle, 19682)


def test_orbit_membership_is_equivalence():
    rng = random.Random(99)
    for _ in range(20):
        f = rng.randrange(NUM_FUNCTIONS)
        orbit = npn.orbit(f)
        g = rng.choice(orbit.members)
        assert npn.orbit(g) == orbit


def test_classify_all_partitions_everything():
    classes = npn.classify_all()
    assert len(classes) == 84
    assert sum(c.size for c in classes) == 19683
    seen = set()
    for c in classes:
        assert c.canonical == min(c.members)
        assert not seen.intersection(c.members)
        seen.update(c.members)
    assert seen == set(range(NUM_FUNCTIONS))
    assert [c.canonical for c in classes] == sorted(c.canonical for c in classes)


def test_orbit_sizes_divide_group_order():
    for c in npn.classify_all():
        assert 432 % c.size == 0


def test_canonical_map_agrees_with_orbit():
    rng = random.Random(5)
    for _ in range(25):
        i = rng.randrange(NUM_FUNCTIONS)
        assert npn.canonical_index(i) == npn.orbit(i).canonical


def test_multiplication_stabilizer_order():
    index = encode(multiplication())
    stab = npn.stabilizer(index)
    assert len(stab) == 8
    assert len(stab) * npn.orbit(index).size == 432


def test_burnside_count():
    counts = npn.fixed_point_counts(3)
    assert counts[0] == 19683  # identity fixes everything
    assert sum(counts) == 84 * 432
    assert npn.burnside_count(3) == 84
    assert npn.burnside_count(3) == len(npn.classify_all())


def test_binary_classification():
    classes = npn.classify_all(2)
    assert len(classes) == 4
    assert sum(c.size for c in classes) == 16
    # constant 0 (index 0) and constant 1 (index 15) share a class
    assert npn.canonical_index(0, radix=2) == npn.canonical_index(15, radix=2)
    assert npn.burnside_count(2) == 4


def test_binary_orbit_sizes():
    sizes = sorted(c.size for c in npn.classify_all(2))
    assert sizes == [2, 2, 4, 8]


def test_transform_validation():
    with pytest.raises(ValueError):
        npn.NpnTransform((0, 0, 1), (0, 1, 2), False, (0, 1, 2))
    with pytest.raises(ValueError):
        npn.apply_transform(npn.identity_transform(2), multiplication())

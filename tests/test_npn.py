import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import npn
from spinlogic.ternary import NUM_FUNCTIONS, TernaryFunction, decode, encode, multiplication


def random_transform(rng, radix=3):
    return rng.choice(npn.all_transforms(radix))


def transform_lists(size):
    """``size`` transforms of one radix, 2 or 3."""
    return st.sampled_from([2, 3]).flatmap(
        lambda radix: st.lists(
            st.sampled_from(npn.all_transforms(radix)), min_size=size, max_size=size
        )
    )


def digit_tables(radix):
    """Digit matrix of every function index, built here rather than in npn."""
    index = np.arange(radix ** (radix * radix))
    return np.stack([index // radix**c % radix for c in range(radix * radix)], axis=1)


def gather(t):
    """Source cell of each destination cell and the output digit map of ``t``.

    The cell map is read off the scalar reference ``apply_to_digits`` by
    moving a single marked cell under ``t`` with its output relabelling
    dropped.
    """
    r = t.radix
    ident = tuple(range(r))
    moves = npn.NpnTransform(t.perm_a, t.perm_b, t.swap_inputs, ident)
    src_of_dst = np.empty(r * r, dtype=np.intp)
    for src in range(r * r):
        marked = tuple(int(c == src) for c in range(r * r))
        src_of_dst[npn.apply_to_digits(moves, marked).index(1)] = src
    return src_of_dst, np.array(t.perm_out)


def group_images(radix):
    """Every transform's image of the whole digit matrix, one gather each."""
    digits = digit_tables(radix)
    for t in npn.all_transforms(radix):
        src_of_dst, vperm = gather(t)
        yield vperm[digits[:, src_of_dst]]


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


@pytest.mark.parametrize("radix", [2, 3])
def test_classify_all_equals_dict_grouping(radix):
    groups = {}
    for i, c in enumerate(npn.canonical_map(radix).tolist()):
        groups.setdefault(c, []).append(i)
    expected = [npn.NpnClass(c, tuple(members), radix) for c, members in sorted(groups.items())]
    assert npn.classify_all(radix) == expected


def test_orbit_sizes_divide_group_order():
    for c in npn.classify_all():
        assert 432 % c.size == 0


def test_canonical_map_agrees_with_orbit():
    rng = random.Random(5)
    for _ in range(25):
        i = rng.randrange(NUM_FUNCTIONS)
        assert npn.canonical_index(i) == npn.orbit(i).canonical


@pytest.mark.parametrize("radix", [2, 3])
def test_canonical_map_equals_minimum_over_group(radix):
    powers = radix ** np.arange(radix * radix)
    expected = np.arange(radix ** (radix * radix))
    for image in group_images(radix):
        np.minimum(expected, image @ powers, out=expected)
    assert np.array_equal(npn.canonical_map(radix), expected)


def test_canonical_map_holds_indices_in_the_smallest_unsigned_dtype():
    # 19,683 ternary indices fit in 16 bits, 16 binary ones in 8; numpy
    # wraps the map without a copy, and the shared cached map stays read-only
    for radix, dtype in ((3, np.uint16), (2, np.uint8)):
        labels = np.asarray(npn.canonical_map(radix))
        assert labels.dtype == dtype
        assert not labels.flags.writeable


@given(st.integers(0, NUM_FUNCTIONS - 1), st.sampled_from(npn.all_transforms(3)))
def test_canonical_map_is_constant_on_orbits(index, t):
    image = npn.index_of_digits(npn.apply_to_digits(t, npn.digits_of_index(index)))
    assert npn.canonical_map(3)[image] == npn.canonical_map(3)[index]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda r: st.tuples(st.just(r), st.integers(0, r ** (r * r) - 1))))
def test_images_are_the_images_under_every_transform(radix_and_index):
    # row maps times row orders, on the table and on its transpose: one
    # image per group element, 432 for radix 3
    radix, index = radix_and_index
    digits = npn.digits_of_index(index, radix)
    transposed = npn._transpose(index, radix)
    images = [*npn._images(index, radix), *npn._images(transposed, radix)]
    assert len(images) == len(npn.all_transforms(radix))
    assert set(images) == {
        npn.index_of_digits(npn.apply_to_digits(t, digits), radix) for t in npn.all_transforms(radix)
    }
    swap = npn.NpnTransform(tuple(range(radix)), tuple(range(radix)), True, tuple(range(radix)))
    assert transposed == npn.index_of_digits(npn.apply_to_digits(swap, digits), radix)


@given(transform_lists(3))
def test_compose_is_associative(ts):
    a, b, c = ts
    assert npn.compose(a, npn.compose(b, c)) == npn.compose(npn.compose(a, b), c)


@given(transform_lists(1))
def test_identity_is_two_sided(ts):
    (t,) = ts
    ident = npn.identity_transform(t.radix)
    assert npn.compose(ident, t) == t == npn.compose(t, ident)


@given(transform_lists(1))
def test_every_transform_has_an_inverse(ts):
    (t,) = ts
    ident = npn.identity_transform(t.radix)
    inverses = [u for u in npn.all_transforms(t.radix) if npn.compose(u, t) == ident]
    assert len(inverses) == 1
    assert npn.compose(t, inverses[0]) == ident


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


@pytest.mark.parametrize("radix", [2, 3])
def test_fixed_point_counts_equal_brute_force(radix):
    digits = digit_tables(radix)
    expected = [int((image == digits).all(axis=1).sum()) for image in group_images(radix)]
    assert npn.fixed_point_counts(radix) == expected


def fixed_point_counts_reference(radix):
    """Fixed-point counts as first written, one transform object at a time:
    the cell map of each transform of ``all_transforms``, its cycles, and
    for each cycle of length L the digits that perm_out**L fixes."""
    r = radix
    counts = []
    for t in npn.all_transforms(radix):
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
                fixed = 0
                for d in range(r):
                    image = d
                    for _ in range(length):
                        image = t.perm_out[image]
                    fixed += image == d
                count *= fixed
        counts.append(count)
    return counts


@pytest.mark.parametrize("radix", [2, 3])
def test_fixed_point_counts_equal_the_per_transform_reference(radix):
    assert npn.fixed_point_counts(radix) == fixed_point_counts_reference(radix)


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


def test_group_values_are_immutable_named_tuples():
    t = npn.NpnTransform([1, 0, 2], (0, 1, 2), 1, (2, 1, 0))
    with pytest.raises(ValueError, match=r"^not a permutation of range\(3\): \(0, 0, 1\)$"):
        npn.NpnTransform((0, 1, 2), (0, 0, 1), False, (0, 1, 2))
    with pytest.raises(ValueError, match=r"^not a permutation of range\(3\): \(0, 1\)$"):
        npn.NpnTransform((0, 1, 2), (0, 1, 2), False, (0, 1))
    with pytest.raises(ValueError, match=r"^not a permutation of range\(3\): \(2, 2, 0\)$"):
        t._replace(perm_out=(2, 2, 0))
    assert repr(t) == "NpnTransform(perm_a=(1, 0, 2), perm_b=(0, 1, 2), swap_inputs=True, perm_out=(2, 1, 0))"
    same = npn.NpnTransform((1, 0, 2), [0, 1, 2], True, [2, 1, 0])
    assert t == same and hash(t) == hash(same) and {t: "t"}[same] == "t"
    assert t != npn.identity_transform(3)
    assert len(t) == 4 and tuple(t) == ((1, 0, 2), (0, 1, 2), True, (2, 1, 0)) and t == tuple(t)
    c = npn.NpnClass(0, (0, 9841, 19682))
    assert c.radix == 3 and c.size == 3
    assert repr(c) == "NpnClass(canonical=0, members=(0, 9841, 19682), radix=3)"
    assert c == npn.orbit(9841) and hash(c) == hash(npn.orbit(0)) and {c: 1}[npn.orbit(19682)] == 1
    assert len(c) == 3 and c == (0, (0, 9841, 19682), 3)
    for value, field in ((t, "perm_a"), (t, "swap_inputs"), (c, "members"), (c, "radix")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())
        with pytest.raises(AttributeError):
            value.extra = 1

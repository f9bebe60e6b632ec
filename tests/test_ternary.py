import random

import pytest

from spinlogic.ternary import (
    NUM_FUNCTIONS,
    TernaryFunction,
    VALUES,
    cell_index,
    decode,
    encode,
    multiplication,
)


def base3_digits(index):
    """Independent base-3 expansion oracle (little-endian, 9 digits)."""
    return [(index // 3**k) % 3 for k in range(9)]


def test_cell_index_is_bijective():
    cells = {cell_index(a, b) for a in VALUES for b in VALUES}
    assert cells == set(range(9))


def test_cell_index_rejects_bad_values():
    with pytest.raises(ValueError):
        cell_index(2, 0)
    with pytest.raises(ValueError):
        cell_index(0, -2)


def test_encode_constants():
    assert encode(TernaryFunction((-1,) * 9)) == 0
    assert encode(TernaryFunction((1,) * 9)) == 19682
    assert encode(TernaryFunction((0,) * 9)) == sum(3**i for i in range(9))


def test_encode_multiplication_matches_digit_oracle():
    # Recompute the index from the product table under the stated encoding.
    expected = sum((a * b + 1) * 3 ** (3 * (a + 1) + (b + 1)) for a in VALUES for b in VALUES)
    assert expected == 15665
    assert encode(multiplication()) == 15665


def test_decode_known_indices():
    assert decode(0) == TernaryFunction((-1,) * 9)
    assert decode(15665) == multiplication()
    # 9841 has all base-3 digits equal to 1, i.e. the constant-0 table.
    assert base3_digits(9841) == [1] * 9
    assert decode(9841) == TernaryFunction((0,) * 9)


def test_decode_range_errors():
    with pytest.raises(ValueError):
        decode(-1)
    with pytest.raises(ValueError):
        decode(NUM_FUNCTIONS)


def test_eval_multiplication_table_cells():
    mult = multiplication()
    assert mult(-1, -1) == 1
    assert mult(0, 1) == 0
    assert mult(1, -1) == -1


def test_enumerate_all():
    indices = list(range(NUM_FUNCTIONS))
    assert len(indices) == 19683
    assert indices[0] == 0
    assert indices[-1] == 19682
    assert indices == sorted(set(indices))


def test_roundtrip_is_exhaustive():
    for i in range(NUM_FUNCTIONS):
        assert encode(decode(i)) == i


def test_eval_consistent_with_digits():
    rng = random.Random(7)
    for _ in range(50):
        i = rng.randrange(NUM_FUNCTIONS)
        f = decode(i)
        digits = base3_digits(i)
        for a in VALUES:
            for b in VALUES:
                assert f(a, b) + 1 == digits[3 * (a + 1) + (b + 1)]


def test_function_validation():
    with pytest.raises(ValueError):
        TernaryFunction((0,) * 8)
    with pytest.raises(ValueError):
        TernaryFunction((0,) * 8 + (2,))


def test_from_rows_and_rows_roundtrip():
    mult = multiplication()
    assert TernaryFunction.from_rows(mult.rows()) == mult
    assert mult.rows() == ((1, 0, -1), (0, 0, 0), (-1, 0, 1))


def test_ternary_function_is_an_immutable_value():
    f = TernaryFunction([1, 0, -1, 0, 0, 0, -1, 0, 1])
    with pytest.raises(ValueError, match=r"^ternary value must be -1, 0 or \+1, got 2$"):
        TernaryFunction((2,) * 9)
    with pytest.raises(ValueError, match="^expected 9 outputs, got 8$"):
        TernaryFunction((0,) * 8)
    with pytest.raises(ValueError, match="^expected 9 outputs, got 8$"):
        f._replace(outputs=(0,) * 8)
    with pytest.raises(AttributeError):
        f.outputs = (0,) * 9
    with pytest.raises(AttributeError):
        f.label = "mult"
    g = TernaryFunction((1, 0, -1, 0, 0, 0, -1, 0, 1))
    assert f == g and hash(f) == hash(g) and {f: "mult"}[g] == "mult"
    assert f != decode(0)
    assert repr(f) == "TernaryFunction(outputs=(1, 0, -1, 0, 0, 0, -1, 0, 1))"
    # a one-field named tuple
    assert len(f) == 1 and tuple(f) == (f.outputs,) and f == (f.outputs,)

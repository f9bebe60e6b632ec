import math
import random

import pytest

from spinlogic.complexlogic import DEFAULT_PARAMS, ComplexSample
from spinlogic.npn import identity_transform
from spinlogic.search import Quantizer
from spinlogic.spinsim import (
    EQUILIBRIUM,
    Delay,
    HardPulse,
    Peak,
    PulseSequence,
    SelectivePulse,
    SpinSystem,
)
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


PEAK = Peak("A", 1.0)
# (value, change, ValueError message or the checked copy), one per value type
REPLACE_CASES = [
    (TernaryFunction((0,) * 9), {"outputs": (0,) * 8}, "^expected 9 outputs, got 8$"),
    (identity_transform(3), {"perm_out": (2, 2, 0)}, r"^not a permutation of range\(3\): \(2, 2, 0\)$"),
    (Quantizer(), {"epsilon": 1.0}, r"^epsilon must be in \(0, 1\), got 1.0$"),
    (EQUILIBRIUM, {"mx": math.nan}, "^mx must be finite, got nan$"),
    (PEAK, {"t1": -1}, "^t1 must be positive, got -1.0$"),
    (SpinSystem((PEAK,)), {"peaks": (PEAK, PEAK)}, r"^peak labels must be unique, got \['A', 'A'\]$"),
    (HardPulse(1.0, 0.0), {"phi": math.inf}, "^phi must be finite, got inf$"),
    (SelectivePulse(1.0, 0.0, 1.0, 0.5), {"tolerance": 0.0}, "^tolerance must be positive, got 0.0$"),
    (Delay(1.0), {"tau": -1.0}, "^delay must be nonnegative, got -1.0$"),
    (DEFAULT_PARAMS, {"alpha": 1.0}, "^alpha must exceed 1, got 1.0$"),
    (PulseSequence(()), {"elements": [Delay(1.0)]}, PulseSequence((Delay(1.0),))),
    (ComplexSample(0.5, 0.0), {"theta": 7.0}, ComplexSample(0.5, 7.0 - 2 * math.pi)),
]


@pytest.mark.parametrize(
    "value, changes, expected", REPLACE_CASES, ids=[type(v).__name__ for v, _, _ in REPLACE_CASES]
)
def test_replace_runs_the_constructor(value, changes, expected):
    # each value type is a CheckedTuple: a changed copy is checked, and
    # normalized, like a newly built value
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            value._replace(**changes)
    else:
        copy = value._replace(**changes)
        assert type(copy) is type(expected) and tuple(copy) == tuple(expected)

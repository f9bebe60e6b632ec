import cmath
import math
import random

import pytest

from spinlogic.complexlogic import (
    ComplexSample,
    DEFAULT_PARAMS,
    EncodingParams,
    complex_multiply_via_logic,
    conjugate_truth_check,
    encode,
    encode_decode_roundtrip,
    mnot,
    normalize_phase,
    ptruth,
)

TWO_PI = 2 * math.pi


def phase_distance(t1, t2):
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def polar_oracle(z1: ComplexSample, z2: ComplexSample):
    """Cartesian multiplication via cmath, independent of the polar path."""
    product = z1.to_complex() * z2.to_complex()
    return abs(product), cmath.phase(product) % TWO_PI


def test_ptruth_anchors():
    assert ptruth(0.0) == 1.0
    assert ptruth(math.pi) == 0.0
    assert ptruth(math.pi / 2) == 0.5


def test_ptruth_range_and_conjugate_symmetry():
    rng = random.Random(13)
    for _ in range(500):
        theta = rng.uniform(0, TWO_PI)
        value = ptruth(theta)
        assert 0.0 <= value <= 1.0
        assert abs(value - ptruth((TWO_PI - theta) % TWO_PI)) <= 1e-12


def test_normalize_phase():
    assert normalize_phase(TWO_PI) == 0.0
    assert normalize_phase(-1e-18) == 0.0
    assert normalize_phase(5 * math.pi) == pytest.approx(math.pi)
    with pytest.raises(ValueError, match="phase must be finite"):
        normalize_phase(math.nan)


def test_sample_validation():
    with pytest.raises(ValueError):
        ComplexSample(1.5, 0.0)
    with pytest.raises(ValueError):
        ComplexSample(-0.5, 0.0)
    s = ComplexSample(0.5, -math.pi)
    assert s.theta == pytest.approx(math.pi)


def test_mnot():
    assert mnot(ComplexSample(1.0, 2.0)).r == 0.0
    out = mnot(ComplexSample(0.25, math.pi / 3))
    assert out.r == 0.75 and out.theta == pytest.approx(math.pi / 3)
    rng = random.Random(19)
    for _ in range(50):
        z = ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
        assert mnot(mnot(z)) == z


def test_mand_magnitudes():
    x = ComplexSample(0.7, 1.0)
    assert complex_multiply_via_logic(ComplexSample(1.0, 0.0), x).r == pytest.approx(0.7)
    assert complex_multiply_via_logic(ComplexSample(0.5, 0.0), ComplexSample(0.5, 0.0)).r == 0.25
    assert complex_multiply_via_logic(ComplexSample(0.0, 0.0), x).r == 0.0


def test_mand_magnitude_is_commutative_and_associative():
    mul = complex_multiply_via_logic
    rng = random.Random(71)
    for _ in range(100):
        a = ComplexSample(rng.uniform(0, 1), 0.0)
        b = ComplexSample(rng.uniform(0, 1), 0.0)
        c = ComplexSample(rng.uniform(0, 1), 0.0)
        assert mul(a, b).r == mul(b, a).r
        assert abs(mul(mul(a, b), c).r - mul(a, mul(b, c)).r) <= 1e-15


def test_mand_default_rule_is_complex_multiplication():
    rng = random.Random(29)
    for _ in range(100):
        z1 = ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
        z2 = ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
        out = complex_multiply_via_logic(z1, z2)
        r, theta = polar_oracle(z1, z2)
        assert abs(out.r - r) <= 1e-12
        if out.r > 1e-12:
            assert phase_distance(out.theta, theta) <= 1e-12


def test_pxnor_crisp_values():
    truth = ComplexSample(1.0, 0.0)
    false = ComplexSample(1.0, math.pi)
    assert complex_multiply_via_logic(truth, truth).theta == 0.0
    assert complex_multiply_via_logic(false, false).theta == pytest.approx(0.0)
    assert complex_multiply_via_logic(truth, false).theta == pytest.approx(math.pi)


def test_pxnor_matches_boolean_xnor_through_projection():
    for t1 in (0.0, math.pi):
        for t2 in (0.0, math.pi):
            theta = complex_multiply_via_logic(ComplexSample(1.0, t1), ComplexSample(1.0, t2)).theta
            expected = 1.0 if ptruth(t1) == ptruth(t2) else 0.0
            assert ptruth(theta) == pytest.approx(expected)


def test_pxnor_phase_is_commutative_and_associative():
    mul = complex_multiply_via_logic
    rng = random.Random(37)
    for _ in range(100):
        a = ComplexSample(1.0, rng.uniform(0, TWO_PI))
        b = ComplexSample(1.0, rng.uniform(0, TWO_PI))
        c = ComplexSample(1.0, rng.uniform(0, TWO_PI))
        assert phase_distance(mul(a, b).theta, mul(b, a).theta) <= 1e-12
        assert phase_distance(mul(mul(a, b), c).theta, mul(a, mul(b, c)).theta) <= 1e-12


def test_conjugate_truth_check():
    assert conjugate_truth_check(math.pi / 3)
    assert conjugate_truth_check(0.0)
    assert conjugate_truth_check(math.pi)
    rng = random.Random(43)
    assert all(conjugate_truth_check(rng.uniform(0, TWO_PI)) for _ in range(1000))


def test_encode_delays():
    p = EncodingParams(t1=2.0, omega_off=TWO_PI, alpha=2.0)
    tau_dec, tau_d = encode(ComplexSample(0.0, 0.0), p)
    assert tau_dec == pytest.approx(2.0 * math.log(2))
    assert tau_d == 0.0
    tau_dec, _ = encode(ComplexSample(1.0, 0.0), p)
    assert tau_dec == pytest.approx(2.0 * math.log(4))
    _, tau_d = encode(ComplexSample(0.5, math.pi), p)
    assert tau_d == pytest.approx(0.5)


def test_encode_with_negative_offset_keeps_delay_nonnegative():
    p = EncodingParams(t1=1.0, omega_off=-TWO_PI, alpha=2.0)
    theta = math.pi / 3
    _, tau_d = encode(ComplexSample(0.5, theta), p)
    assert tau_d >= 0.0
    assert phase_distance((p.omega_off * tau_d) % TWO_PI, theta) <= 1e-12


def test_encoding_params_validation():
    with pytest.raises(ValueError):
        EncodingParams(t1=0.0, omega_off=1.0)
    with pytest.raises(ValueError):
        EncodingParams(t1=1.0, omega_off=0.0)
    with pytest.raises(ValueError):
        EncodingParams(t1=1.0, omega_off=1.0, alpha=1.0)


def test_roundtrip_examples():
    out = encode_decode_roundtrip(ComplexSample(1.0, 0.0))
    assert abs(out.r - 1.0) < 1e-9
    assert phase_distance(out.theta, 0.0) < 1e-9
    out = encode_decode_roundtrip(ComplexSample(0.5, math.pi / 2))
    assert abs(out.r - 0.5) < 1e-9
    assert phase_distance(out.theta, math.pi / 2) < 1e-9
    assert encode_decode_roundtrip(ComplexSample(0.0, 2.2)) == ComplexSample(0.0, 0.0)


def test_roundtrip_random_samples():
    rng = random.Random(53)
    p = EncodingParams(t1=7.6, omega_off=3 * math.pi, alpha=1.5)
    for _ in range(30):
        z = ComplexSample(rng.uniform(0.001, 1.0), rng.uniform(0, TWO_PI))
        out = encode_decode_roundtrip(z, p)
        assert abs(out.r - z.r) < 1e-9
        assert phase_distance(out.theta, z.theta) < 1e-9


def test_complex_multiply_via_logic():
    assert complex_multiply_via_logic(ComplexSample(1.0, 0.0), ComplexSample(0.8, 2.0)) == (
        ComplexSample(0.8, 2.0)
    )
    out = complex_multiply_via_logic(ComplexSample(0.8, math.pi / 3), ComplexSample(0.5, math.pi))
    assert out.r == pytest.approx(0.4, abs=1e-15)
    assert phase_distance(out.theta, 4 * math.pi / 3) <= 1e-12
    out = complex_multiply_via_logic(
        ComplexSample(0.9, 3 * math.pi / 2), ComplexSample(0.9, 3 * math.pi / 2)
    )
    assert out.r == pytest.approx(0.81, abs=1e-15)
    assert phase_distance(out.theta, math.pi) <= 1e-12


def test_complex_multiply_matches_cartesian_oracle():
    rng = random.Random(61)
    for _ in range(500):
        z1 = ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
        z2 = ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
        out = complex_multiply_via_logic(z1, z2)
        r, theta = polar_oracle(z1, z2)
        assert abs(out.r - r) <= 1e-12
        if r > 1e-12:
            assert phase_distance(out.theta, theta) <= 1e-12


def test_default_params_roundtrip_uses_spec_defaults():
    assert DEFAULT_PARAMS.alpha == 2.0
    out = encode_decode_roundtrip(ComplexSample(0.25, 5.0), DEFAULT_PARAMS)
    assert abs(out.r - 0.25) < 1e-9
    assert phase_distance(out.theta, 5.0) < 1e-9

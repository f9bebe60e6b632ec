import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlogic import spinsim
from spinlogic.spinsim import (
    Delay,
    EQUILIBRIUM,
    HardPulse,
    Magnetization,
    Peak,
    PulseSequence,
    SelectivePulse,
    SpinSystem,
    document_from_dict,
    read_complex,
    read_mx,
    run_peak,
    run_sequence,
    two_pulse_template,
)
from spin_reference import (
    apply_delay,
    apply_element,
    apply_hard_pulse,
    apply_selective_pulse,
    at_equilibrium,
)
import spin_reference


def rotation_matrix(beta, phi):
    """Oracle: explicit 3x3 rotation matrix about (cos phi, sin phi, 0)."""
    kx, ky, kz = math.cos(phi), math.sin(phi), 0.0
    c, s, t = math.cos(beta), math.sin(beta), 1.0 - math.cos(beta)
    return [
        [t * kx * kx + c, t * kx * ky - s * kz, t * kx * kz + s * ky],
        [t * kx * ky + s * kz, t * ky * ky + c, t * ky * kz - s * kx],
        [t * kx * kz - s * ky, t * ky * kz + s * kx, t * kz * kz + c],
    ]


def matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]


def random_unit_vector(rng):
    while True:
        v = [rng.uniform(-1, 1) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if 1e-3 < n:
            return [x / n for x in v]


def single(m=EQUILIBRIUM, offset=0.0, t1=None):
    return SpinSystem((Peak("s", offset, m, t1),))


def test_zero_flip_angle_changes_nothing():
    s = single()
    assert apply_hard_pulse(s, 0.0, 1.23).peaks[0].m == EQUILIBRIUM


def test_quarter_turn_about_x():
    out = apply_hard_pulse(single(), math.pi / 2, 0.0).peaks[0].m
    assert abs(out.mx) < 1e-15
    assert abs(out.my + 1.0) < 1e-15
    assert abs(out.mz) < 1e-15


def test_pulse_matches_rotation_matrix_oracle():
    rng = random.Random(17)
    for _ in range(200):
        v = random_unit_vector(rng)
        beta, phi = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        out = apply_hard_pulse(single(Magnetization(*v)), beta, phi).peaks[0].m
        expected = matvec(rotation_matrix(beta, phi), v)
        assert abs(out.mx - expected[0]) < 1e-12
        assert abs(out.my - expected[1]) < 1e-12
        assert abs(out.mz - expected[2]) < 1e-12


def test_rotation_preserves_norm():
    rng = random.Random(23)
    for _ in range(100):
        v = random_unit_vector(rng)
        out = apply_hard_pulse(
            single(Magnetization(*v)), rng.uniform(0, 7), rng.uniform(0, 7)
        ).peaks[0].m
        assert abs(out.norm() - 1.0) < 1e-12


def test_single_pulse_surface_is_sin_beta_sin_phi():
    for i in range(25):
        for j in range(25):
            beta = i * 2 * math.pi / 24
            phi = j * 2 * math.pi / 24
            out = run_sequence(single(), PulseSequence((HardPulse(beta, phi),)))
            assert abs(read_mx(out) - math.sin(beta) * math.sin(phi)) < 1e-12


def test_selective_pulse_targets_one_peak():
    s = SpinSystem((Peak("A", 100.0), Peak("B", 200.0)))
    out = apply_selective_pulse(s, math.pi / 2, math.pi / 2, 100.0, 25.0)
    assert out.peaks[0].m.mx == pytest.approx(1.0)
    assert out.peaks[1].m == EQUILIBRIUM


def test_selective_pulse_can_miss_every_peak():
    s = SpinSystem((Peak("A", 100.0), Peak("B", 200.0)))
    out = apply_selective_pulse(s, math.pi / 2, math.pi / 2, 150.0, 25.0)
    assert out == s


def test_selective_pulse_wide_window_is_a_hard_pulse():
    s = SpinSystem((Peak("A", 100.0), Peak("B", 200.0)))
    wide = apply_selective_pulse(s, 1.1, 0.7, 150.0, 1000.0)
    hard = apply_hard_pulse(s, 1.1, 0.7)
    assert wide == hard


def test_delay_zero_is_identity():
    s = single(Magnetization(0.6, 0.0, 0.8), offset=5.0, t1=2.0)
    assert apply_delay(s, 0.0) == s


def test_inversion_recovery_zero_crossing():
    t1 = 3.7
    s = single(Magnetization(0.0, 0.0, -1.0), t1=t1)
    out = apply_delay(s, t1 * math.log(2))
    assert abs(out.peaks[0].m.mz) < 1e-12


def test_half_turn_precession_flips_transverse():
    omega = 4.0
    s = single(Magnetization(1.0, 0.0, 0.0), offset=omega)
    out = apply_delay(s, math.pi / omega)
    m = out.peaks[0].m
    assert abs(m.mx + 1.0) < 1e-12 and abs(m.my) < 1e-12


def test_delay_without_t1_preserves_mz_and_transverse_norm():
    s = single(Magnetization(0.3, 0.4, 0.5), offset=11.0)
    out = apply_delay(s, 1.234).peaks[0].m
    assert out.mz == 0.5
    assert abs(math.hypot(out.mx, out.my) - 0.5) < 1e-12


def test_equilibrium_is_a_relaxation_fixed_point():
    s = single(t1=1.5)
    for tau in (0.1, 1.0, 10.0):
        assert apply_delay(s, tau).peaks[0].m.mz == pytest.approx(1.0, abs=1e-15)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        apply_delay(single(), -0.1)
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_run_sequence_resets_to_equilibrium():
    tipped = single(Magnetization(1.0, 0.0, 0.0))
    out = run_sequence(tipped, PulseSequence(()))
    assert out.peaks[0].m == EQUILIBRIUM


def test_run_sequence_pulse_examples():
    s = single()
    out = run_sequence(s, PulseSequence((HardPulse(math.pi / 2, math.pi / 2),)))
    assert read_mx(out) == pytest.approx(1.0)
    for phi in (0.0, 1.0, 4.5):
        out = run_sequence(s, PulseSequence((HardPulse(math.pi, phi),)))
        m = out.peaks[0].m
        assert m.mz == pytest.approx(-1.0)
        assert math.hypot(m.mx, m.my) < 1e-12


def test_read_mx_sums_peaks():
    s = SpinSystem((Peak("A", 0.0, Magnetization(1.0, 0.0, 0.0)), Peak("B", 10.0)))
    assert read_mx(s) == pytest.approx(1.0)
    assert read_mx(single()) == 0.0


def test_read_complex_phases():
    assert read_complex(single(Magnetization(1.0, 0.0, 0.0))) == (1.0, 0.0)
    mag, phase = read_complex(single(Magnetization(0.0, -1.0, 0.0)))
    assert mag == pytest.approx(1.0)
    assert phase == pytest.approx(math.atan2(-1.0, 0.0) % (2 * math.pi))
    assert phase == pytest.approx(3 * math.pi / 2)
    assert read_complex(single()) == (0.0, 0.0)


def samples(n):
    """n points spanning [0, 2*pi] inclusive."""
    return [k * 2 * math.pi / (n - 1) for k in range(n)]


def test_two_pulse_grid_against_matrix_oracle():
    n, phi1, beta2 = 7, math.pi / 2, math.pi / 2
    grid = two_pulse_template(phi1, beta2).readouts(samples(n), samples(n))
    for i in range(n):
        beta1 = i * 2 * math.pi / (n - 1)
        first = matvec(rotation_matrix(beta1, phi1), [0.0, 0.0, 1.0])
        for j in range(n):
            phi2 = j * 2 * math.pi / (n - 1)
            expected = matvec(rotation_matrix(beta2, phi2), first)[0]
            assert abs(grid[i][j] - expected) < 1e-12
            assert -1.0 - 1e-12 <= grid[i][j] <= 1.0 + 1e-12


def test_two_pulse_grid_first_row_is_single_pulse():
    grid = two_pulse_template(1.0, math.pi / 2).readouts(samples(5), samples(5))
    for j in range(5):
        phi2 = j * 2 * math.pi / 4
        assert grid[0][j] == pytest.approx(math.sin(phi2), abs=1e-12)


def test_sequence_composition_matches_stepwise():
    rng = random.Random(31)
    s = SpinSystem((Peak("A", 3.0, t1=2.0), Peak("B", -7.0)))
    for _ in range(20):
        elements = []
        for _ in range(rng.randrange(1, 5)):
            kind = rng.randrange(3)
            if kind == 0:
                elements.append(HardPulse(rng.uniform(0, 7), rng.uniform(0, 7)))
            elif kind == 1:
                elements.append(SelectivePulse(rng.uniform(0, 7), rng.uniform(0, 7), 3.0, 1.0))
            else:
                elements.append(Delay(rng.uniform(0, 2)))
        state = at_equilibrium(s)
        for e in elements:
            state = apply_element(state, e)
        assert run_sequence(s, PulseSequence(tuple(elements))) == state


def test_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(())
    with pytest.raises(ValueError):
        SpinSystem((Peak("A", 0.0), Peak("A", 1.0)))
    with pytest.raises(ValueError):
        Peak("A", 0.0, t1=0.0)
    with pytest.raises(ValueError):
        Magnetization(float("nan"), 0.0, 0.0)
    # an element of the wrong type is named at construction, not deep in the kernel
    with pytest.raises(TypeError, match="got 1$"):
        SpinSystem((1,))
    with pytest.raises(TypeError, match="got 1$"):
        PulseSequence((1,))
    with pytest.raises(TypeError, match=r"got Peak\(label='A'"):
        PulseSequence((HardPulse(0.5, 0.0), Peak("A", 0.0)))


def test_document_roundtrip():
    doc = {
        "peaks": [
            {"label": "A", "offset_rad_s": 100.0, "t1_s": 7.6},
            {"label": "B", "offset_rad_s": 200},
        ],
        "sequence": [
            {"type": "selective_pulse", "beta": math.pi / 2, "phi": math.pi / 2,
             "target_offset": 100.0, "tolerance": 25.0},
            {"type": "delay", "tau": 0.01},
            {"type": "hard_pulse", "beta": math.pi, "phi": 0},
        ],
    }
    system, sequence, slots = document_from_dict(doc)
    assert system == SpinSystem((Peak("A", 100.0, t1=7.6), Peak("B", 200.0)))
    assert system.peaks[1].t1 is None
    assert sequence == PulseSequence(
        (
            SelectivePulse(math.pi / 2, math.pi / 2, 100.0, 25.0),
            Delay(0.01),
            HardPulse(math.pi, 0.0),
        )
    )
    assert slots == ()


def test_document_placeholders_become_slots():
    doc = {
        "peaks": [{"label": "A", "offset_rad_s": 0.0}],
        "sequence": [{"type": "delay", "tau": "$A"}, {"type": "hard_pulse", "beta": 0.5, "phi": "$B"}],
    }
    _, sequence, slots = document_from_dict(doc)
    assert slots == ((0, "tau", "$A"), (1, "phi", "$B"))
    assert sequence == PulseSequence((Delay(1.0), HardPulse(0.5, 1.0)))
    # a placeholder stands only for an element field, never a peak field
    doc["peaks"][0]["offset_rad_s"] = "$A"
    with pytest.raises(ValueError, match="'offset_rad_s' must be a number"):
        document_from_dict(doc)


def test_document_parse_errors():
    with pytest.raises(ValueError):
        document_from_dict({"sequence": []})
    with pytest.raises(ValueError):
        document_from_dict({"peaks": [{"label": "A", "offset_rad_s": 0.0}], "sequence": [{"type": "warp"}]})
    with pytest.raises(ValueError):
        document_from_dict(
            {"peaks": [{"label": "A", "offset_rad_s": 0.0}], "sequence": [{"type": "delay"}]}
        )
    with pytest.raises(ValueError):
        document_from_dict(
            {
                "peaks": [{"label": "A", "offset_rad_s": 0.0}],
                "sequence": [{"type": "delay", "tau": "soon"}],
            }
        )


def test_document_fields_match_the_schema():
    doc = {
        "peaks": [{"label": "A", "offset_rad_s": 0.0}],
        "sequence": [
            {"type": "selective_pulse", "beta": 1.0, "phi": 1.0, "target_offset": 0.0, "tolerance": 1.0},
            {"type": "delay", "tau": 0.01},
            {"type": "hard_pulse", "beta": 1.0, "phi": 0.0},
        ],
    }
    _, sequence, _ = document_from_dict(doc)
    for entry, element in zip(doc["sequence"], sequence.elements):
        assert set(entry) == set(spinsim.ELEMENT_FIELDS[entry["type"]]) == {"type", *element._asdict()}
    doc["sequence"][1]["bogus"] = 1
    with pytest.raises(ValueError, match="delay has unknown field"):
        document_from_dict(doc)
    with pytest.raises(ValueError, match="must be an object"):
        document_from_dict([])


OFFSETS = st.floats(-5.0, 5.0)


@st.composite
def kernel_cases(draw):
    """A spin system of 1-4 peaks, some with T1, a (rows, columns) grid and
    1-5 steps whose beta, phi, tau, target_offset or tolerance is a
    constant, a (rows, 1) column varying along the rows or a (columns,) row
    varying along the columns; selective windows hit none, some or all of
    the peaks, and a window that varies can hold a peak at some grid points
    only."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    peaks = draw(st.lists(st.tuples(OFFSETS, st.none() | st.floats(0.1, 5.0)), min_size=1, max_size=4))
    system = SpinSystem(tuple(Peak(f"p{k}", offset, t1=t1) for k, (offset, t1) in enumerate(peaks)))

    def value(values):
        axis = draw(st.sampled_from(["const", "rows", "cols"]))
        if axis == "const":
            return draw(values)
        size = rows if axis == "rows" else cols
        column = np.array(draw(st.lists(values, min_size=size, max_size=size)))
        return column.reshape(-1, 1) if axis == "rows" else column

    angle, tau = st.floats(-7.0, 7.0), st.floats(0.0, 3.0)
    target = st.sampled_from([p.offset for p in system.peaks]) | OFFSETS
    steps = []
    for kind in draw(st.lists(st.sampled_from([HardPulse, SelectivePulse, Delay]), min_size=1, max_size=5)):
        if kind is Delay:
            steps.append((Delay, {"tau": value(tau)}))
        else:
            fields = {"beta": value(angle), "phi": value(angle)}
            if kind is SelectivePulse:
                # a window of 1e-3 hits at most the peaks it is centred on, one of 100 all of them
                tolerance = st.sampled_from([1e-3, 1.0, 100.0])
                fields |= {"target_offset": value(target), "tolerance": value(tolerance)}
            steps.append((kind, fields))
    return system, steps, (rows, cols)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_run_peak_equals_the_full_array_reference_bit_for_bit(case):
    system, steps, shape = case
    expected = spin_reference.run_steps(system, steps, shape)
    for k, peak in enumerate(system.peaks):
        for g, e in zip(run_peak(peak, steps), expected):
            assert np.broadcast_shapes(np.shape(g), shape) == shape
            assert np.array_equal(np.broadcast_to(g, shape), e[..., k])


def test_run_peak_raises_when_a_precession_angle_overflows():
    a, b = Peak("A", 10.0), Peak("B", 1.0, t1=1.0)
    steps = [(HardPulse, {"beta": 1.0, "phi": 0.0}), (Delay, {"tau": np.array([1.0, 1e308])})]
    with pytest.raises(ValueError, match="not finite"):
        spin_reference.run_steps(SpinSystem((a, b)), steps, (1, 2))
    # 10 * 1e308 overflows, 1 * 1e308 does not
    with pytest.raises(ValueError, match="not finite"):
        run_peak(a, steps)
    assert all(np.isfinite(c).all() for c in run_peak(b, steps))
    assert np.isfinite(run_peak(a, steps[:1])[0]).all()


def test_run_peak_rejects_an_unknown_element_type():
    with pytest.raises(TypeError, match="unknown sequence element type"):
        run_peak(Peak("A", 1.0), [(object, {})])


def test_a_window_that_selects_no_peak_keeps_the_state_off_the_grid():
    system = SpinSystem((Peak("A", 1.0, t1=1.0), Peak("B", 2.0)))
    steps = [
        (HardPulse, {"beta": np.array([0.5, 1.0, 1.5]).reshape(-1, 1), "phi": 0.3}),
        (Delay, {"tau": 0.2}),
        (SelectivePulse, {"beta": 1.2, "phi": np.linspace(0.0, 6.0, 5),
                          "target_offset": 10.0, "tolerance": 1.0}),
    ]
    for target, selected in ((10.0, ()), (2.0, ("B",))):  # no peak, then peak B
        steps[-1][1]["target_offset"] = target
        expected = spin_reference.run_steps(system, steps, (3, 5))
        for k, peak in enumerate(system.peaks):
            got = run_peak(peak, steps)
            # one state for every $B value, unless the window holds the peak
            assert all(np.shape(g) == ((3, 5) if peak.label in selected else (3, 1)) for g in got)
            assert all(np.array_equal(np.broadcast_to(g, (3, 5)), e[..., k]) for g, e in zip(got, expected))

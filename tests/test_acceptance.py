"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or in captured output)."""

import cmath
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from spinlogic import complexlogic, npn, pc, search, spinsim
from spinlogic.cli import main
from spinlogic.ternary import NUM_FUNCTIONS, decode, encode, multiplication

TWO_PI = 2 * math.pi


@contextmanager
def criterion(num, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")


def phase_distance(t1, t2):
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def rotation_matrix(beta, phi):
    kx, ky = math.cos(phi), math.sin(phi)
    c, s, t = math.cos(beta), math.sin(beta), 1.0 - math.cos(beta)
    return [
        [t * kx * kx + c, t * kx * ky, s * ky],
        [t * kx * ky, t * ky * ky + c, -s * kx],
        [-s * ky, s * kx, c],
    ]


def matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]


def selective_delay_canonical():
    template, delays, freqs = spinsim.selective_delay_inputs()
    table = search.evaluate_table(template, delays, freqs)
    return npn.canonical_index(encode(table.logic))


def test_criterion_01_class_count_and_burnside():
    with criterion(1, "84 NPN classes summing to 19,683; Burnside agrees; < 10 s"):
        npn.canonical_map.cache_clear()
        npn.all_transforms.cache_clear()
        start = time.perf_counter()
        classes = npn.classify_all()
        burnside = npn.burnside_count(3)
        elapsed = time.perf_counter() - start
        assert len(classes) == 84
        assert sum(c.size for c in classes) == 19683
        assert burnside == 84
        assert elapsed < 10.0, f"classification took {elapsed:.1f}s"


def test_criterion_02_multiplication_orbit():
    with criterion(2, "multiplication orbit has 54 members and stabilizer order 8"):
        index = encode(multiplication())
        orbit = npn.orbit(index)
        assert orbit.size == 54
        assert len(npn.stabilizer(index)) == 8
        assert 432 // 54 == 8


def test_criterion_03_binary_calibration():
    with criterion(3, "4 binary NPN classes; binary PC partition equals it class-for-class"):
        classes = npn.classify_all(2)
        assert len(classes) == 4
        pc_classes = pc.pc_classify_all(2)
        assert all(c.single_npn for c in pc_classes)
        assert {frozenset(c.members) for c in pc_classes} == {
            frozenset(c.members) for c in classes
        }


def test_criterion_04_pc_npn_structure():
    with criterion(4, "PC signature invariant under all 432 transforms; multiplication PC class holds 1 NPN class"):
        rng = random.Random(20260808)
        transforms = npn.all_transforms(3)
        for _ in range(200):
            f = decode(rng.randrange(NUM_FUNCTIONS))
            sig = pc.pc_signature(f)
            for t in transforms:
                assert pc.pc_signature(npn.apply_transform(t, f)) == sig
        mult_sig = pc.pc_signature(multiplication())
        (mult_class,) = [c for c in pc.pc_classify_all() if c.signature == mult_sig]
        assert len(mult_class.npn_canonicals) == 1


def test_criterion_05_single_pulse_surface():
    with criterion(5, "single-pulse readout = sin(beta)*sin(phi) on 100x100 grid (1e-12); triple quantizes to multiplication"):
        template = spinsim.single_pulse_template()
        system = spinsim.SpinSystem((spinsim.Peak("s", 0.0),))
        for i in range(100):
            beta = i * TWO_PI / 99
            for j in range(100):
                phi = j * TWO_PI / 99
                seq = spinsim.PulseSequence((spinsim.HardPulse(beta, phi),))
                value = spinsim.read_mx(spinsim.run_sequence(system, seq))
                assert abs(value - math.sin(beta) * math.sin(phi)) < 1e-12
        triple = (math.pi / 2, math.pi, 3 * math.pi / 2)
        table = search.evaluate_table(template, triple, triple)
        assert table.logic == multiplication()


def test_criterion_06_negative_result_on_single_pulse():
    with criterion(6, "16x16 triple search on single-pulse finds no selective-delay-class table"):
        target = selective_delay_canonical()
        grid = list(np.linspace(0.0, TWO_PI, 16))
        hits = search.search(
            spinsim.single_pulse_template(), grid, grid, targets={target}
        )
        assert hits == []


def test_criterion_07_two_pulse_grid_oracle():
    with criterion(7, "10x10 two-pulse grid (phi1=3pi/2, beta2=pi/2) matches rotation-matrix oracle (1e-12)"):
        n, phi1, beta2 = 10, 3 * math.pi / 2, math.pi / 2
        samples = [k * TWO_PI / (n - 1) for k in range(n)]
        grid = spinsim.two_pulse_template(phi1, beta2).readouts(samples, samples)
        worst = 0.0
        for i in range(n):
            beta1 = i * TWO_PI / (n - 1)
            after_first = matvec(rotation_matrix(beta1, phi1), [0.0, 0.0, 1.0])
            for j in range(n):
                phi2 = j * TWO_PI / (n - 1)
                expected = matvec(rotation_matrix(beta2, phi2), after_first)[0]
                worst = max(worst, abs(grid[i][j] - expected))
        assert worst < 1e-12, f"max deviation {worst}"


def test_criterion_08_complex_logic_identities():
    with criterion(8, "ptruth anchors, conjugate symmetry (10,000 phases), product decomposition (1,000 pairs)"):
        assert complexlogic.ptruth(0.0) == 1.0
        assert complexlogic.ptruth(math.pi) == 0.0
        rng = random.Random(8)
        for _ in range(10000):
            theta = rng.uniform(0.0, TWO_PI)
            mirrored = complexlogic.ptruth((TWO_PI - theta) % TWO_PI)
            assert abs(complexlogic.ptruth(theta) - mirrored) <= 1e-12
        for _ in range(1000):
            z1 = complexlogic.ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
            z2 = complexlogic.ComplexSample(rng.uniform(0, 1), rng.uniform(0, TWO_PI))
            out = complexlogic.complex_multiply_via_logic(z1, z2)
            product = z1.to_complex() * z2.to_complex()
            assert abs(out.r - abs(product)) <= 1e-12
            if abs(product) > 1e-12:
                assert phase_distance(out.theta, cmath.phase(product) % TWO_PI) <= 1e-12


def test_criterion_09_encode_decode_roundtrip():
    with criterion(9, "100 random samples encode/simulate/decode with error < 1e-9"):
        rng = random.Random(9)
        params = complexlogic.EncodingParams(t1=7.6, omega_off=TWO_PI, alpha=2.0)
        for _ in range(100):
            z = complexlogic.ComplexSample(rng.uniform(0.0, 1.0), rng.uniform(0.0, TWO_PI))
            out = complexlogic.encode_decode_roundtrip(z, params)
            assert abs(out.r - z.r) < 1e-9
            if z.r > 1e-9:
                assert phase_distance(out.theta, z.theta) < 1e-9


def test_criterion_10_deterministic_classify(tmp_path):
    with criterion(10, "classify --radix 3 --format json is byte-identical across runs"):
        first = tmp_path / "run1.json"
        second = tmp_path / "run2.json"
        assert main(["classify", "--radix", "3", "--format", "json", "--out", str(first)]) == 0
        assert main(["classify", "--radix", "3", "--format", "json", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

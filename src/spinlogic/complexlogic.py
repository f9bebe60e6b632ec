"""Continuous logic on complex numbers, split into magnitude and phase.

A truth value is a complex number ``r*exp(i*theta)`` with magnitude
``r in [0, 1]`` and phase normalized to ``[0, 2*pi)``; all phase arithmetic
is modulo ``2*pi``.  Magnitude logic carries fuzzy truth in ``r`` (NOT is
``1 - r``, AND is the product); phase logic puts truth at phase 0 and
falsehood at pi, with the fuzzy projection ``|pi - theta| / pi``.  Adding
phases is the phase-logic XNOR, so the magnitude AND and phase XNOR together
are exactly complex multiplication, which is what the NMR pipeline here
implements.

Encoding onto a spin: invert the magnetization and let it recover for
``tau_dec = t1 * ln(2 / (1 - r/alpha))`` so the z component reaches
``r / alpha`` (the inversion-recovery curve is ``mz(t) = 1 - 2*exp(-t/t1)``),
tip it onto +x, then precess in a frame offset by ``omega_off`` for
``tau_d = theta / omega_off`` to write the phase.  Decoding reads the
transverse signal and rescales by ``alpha``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .spinsim import (
    TWO_PI,
    Delay,
    HardPulse,
    Peak,
    PulseSequence,
    SpinSystem,
    normalize_phase,
    read_complex,
    run_sequence,
)
from .ternary import CheckedTuple, _check_finite

_R_SLACK = 1e-9
_ZERO_MAGNITUDE = 1e-12


class ComplexSample(CheckedTuple, namedtuple("ComplexSample", "r theta")):
    """A continuous truth value: magnitude in [0, 1], phase in [0, 2*pi).
    A :class:`~spinlogic.ternary.CheckedTuple`, normalized when built."""

    __slots__ = ()

    def __new__(cls, r, theta) -> "ComplexSample":
        r = float(r)
        if not math.isfinite(r) or r < -_R_SLACK or r > 1.0 + _R_SLACK:
            raise ValueError(f"magnitude must lie in [0, 1], got {r!r}")
        return tuple.__new__(cls, (min(max(r, 0.0), 1.0), normalize_phase(theta)))

    def to_complex(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexSample":
        r = abs(z)
        return cls(r, math.atan2(z.imag, z.real) if r else 0.0)


class EncodingParams(CheckedTuple, namedtuple("EncodingParams", "t1 omega_off alpha")):
    """NMR encoding constants: relaxation time, offset-frame frequency, and
    the magnitude scale (alpha > 1 keeps r = 1 encodable in finite time).
    A :class:`~spinlogic.ternary.CheckedTuple`."""

    __slots__ = ()

    def __new__(cls, t1, omega_off, alpha=2.0) -> "EncodingParams":
        if _check_finite("t1", t1) <= 0:
            raise ValueError(f"t1 must be positive, got {t1}")
        omega = _check_finite("omega_off", omega_off)
        if omega == 0 or not math.isfinite(TWO_PI / abs(omega)):
            raise ValueError(f"omega_off must be nonzero, with a finite period, got {omega!r}")
        if _check_finite("alpha", alpha) <= 1:
            raise ValueError(f"alpha must exceed 1, got {alpha}")
        return tuple.__new__(cls, (t1, omega_off, alpha))


DEFAULT_PARAMS = EncodingParams(t1=1.0, omega_off=TWO_PI)


def ptruth(theta: float) -> float:
    """Fuzzy projection of a phase: 1 at phase 0 (truth), 0 at pi (falsehood)."""
    return abs(math.pi - normalize_phase(theta)) / math.pi


def mnot(z: ComplexSample) -> ComplexSample:
    """Magnitude-logic NOT: complement the magnitude, keep the phase."""
    return ComplexSample(1.0 - z.r, z.theta)


def conjugate_truth_check(theta: float) -> bool:
    """A phase and its conjugate phase carry the same fuzzy truth."""
    theta = normalize_phase(theta)
    return abs(ptruth(theta) - ptruth(normalize_phase(TWO_PI - theta))) <= 1e-12


def complex_multiply_via_logic(z1: ComplexSample, z2: ComplexSample) -> ComplexSample:
    """Complex multiplication decomposed as magnitude AND plus phase XNOR:
    the magnitudes multiply (fuzzy AND on ``r``) and the phases add modulo
    2*pi (XNOR on phase truth)."""
    return ComplexSample(z1.r * z2.r, z1.theta + z2.theta)


def encode(z: ComplexSample, p: EncodingParams = DEFAULT_PARAMS) -> tuple[float, float]:
    """Delays writing the sample onto a spin: the recovery delay bringing mz
    to r/alpha, and the precession delay (shifted into the first nonnegative
    period) writing theta."""
    ratio = z.r / p.alpha
    if ratio >= 1.0:
        raise ValueError(f"magnitude {z.r} is not encodable with alpha {p.alpha}")
    tau_dec = p.t1 * math.log(2.0 / (1.0 - ratio))
    period = TWO_PI / abs(p.omega_off)
    tau_d = (z.theta / p.omega_off) % period
    return tau_dec, tau_d


def encoding_sequence(z: ComplexSample, p: EncodingParams = DEFAULT_PARAMS) -> tuple[SpinSystem, PulseSequence]:
    """The invert-recover-tip-precess sequence realizing the sample."""
    tau_dec, tau_d = encode(z, p)
    system = SpinSystem((Peak("enc", p.omega_off, t1=p.t1),))
    sequence = PulseSequence(
        (
            HardPulse(math.pi, 0.0),
            Delay(tau_dec),
            HardPulse(math.pi / 2, math.pi / 2),  # tips mz onto +x
            Delay(tau_d),
        )
    )
    return system, sequence


def encode_decode_roundtrip(z: ComplexSample, p: EncodingParams = DEFAULT_PARAMS) -> ComplexSample:
    """Encode, simulate from equilibrium, read back, rescale by alpha.

    Magnitudes below 1e-12 decode as the exact zero sample (phase 0), the
    convention that keeps decoding deterministic at the origin.
    """
    system, sequence = encoding_sequence(z, p)
    magnitude, phase = read_complex(run_sequence(system, sequence))
    recovered = p.alpha * magnitude
    if recovered < _ZERO_MAGNITUDE:
        return ComplexSample(0.0, 0.0)
    return ComplexSample(recovered, phase)

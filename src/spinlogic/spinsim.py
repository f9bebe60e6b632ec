"""Vector-model simulator of liquid-state NMR pulse sequences.

Each spectral peak carries an independent magnetization vector in units of
the equilibrium magnetization, with equilibrium at (0, 0, 1).  Pulses are
instantaneous right-handed rotations by flip angle ``beta`` about the
transverse axis (cos phi, sin phi, 0); selective pulses rotate only peaks
within a frequency tolerance of the pulse frequency.  During a delay each
peak precesses about z by ``offset*tau`` (the complex transverse signal
``mx + i*my`` picks up ``exp(+i*offset*tau)``) and, when a T1 is set, the
z component recovers exponentially toward equilibrium.  Transverse decay is
not modeled; readout happens at acquisition start, before any decay would
matter for the logic experiments simulated here.

Readout models the integral of the frequency-domain signal as the plain sum
of per-peak transverse components.  The rotation and precession formulas
are array-generic: :func:`run_steps` applies them to (rows, columns, peaks)
arrays, the one element loop behind every simulation.

Systems and sequences are read from JSON documents (schema below) by
:func:`document_from_dict`, the one reader, in a single walk that also
reports the placeholder slots of a template; nothing serializes them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_phase(theta: float) -> float:
    """Reduce a finite angle into [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta!r}")
    theta = theta % TWO_PI
    if theta >= TWO_PI:  # float fold-up of tiny negatives
        theta = 0.0
    return theta


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class Magnetization:
    """Per-peak magnetization vector in units of equilibrium magnetization.

    Rotations preserve the norm and t1-free delays preserve mz and the
    transverse norm exactly.  Note that the T1-only model can push the norm
    transiently above 1 when transverse magnetization persists through a
    recovery delay (no T2 decay counteracts it), by at most 1 in the squared
    norm per delay.
    """

    mx: float
    my: float
    mz: float

    def __post_init__(self) -> None:
        for name in ("mx", "my", "mz"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))

    def norm(self) -> float:
        return math.sqrt(self.mx**2 + self.my**2 + self.mz**2)


EQUILIBRIUM = Magnetization(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Peak:
    """A spectral line: offset from the transmitter in rad/s, its current
    magnetization, and an optional longitudinal relaxation time."""

    label: str
    offset: float
    m: Magnetization = EQUILIBRIUM
    t1: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", _check_finite("offset", self.offset))
        if self.t1 is not None:
            t1 = _check_finite("t1", self.t1)
            if t1 <= 0:
                raise ValueError(f"t1 must be positive, got {t1}")
            object.__setattr__(self, "t1", t1)


@dataclass(frozen=True)
class SpinSystem:
    peaks: tuple[Peak, ...]

    def __post_init__(self) -> None:
        peaks = tuple(self.peaks)
        if not peaks:
            raise ValueError("spin system needs at least one peak")
        labels = [p.label for p in peaks]
        if len(set(labels)) != len(labels):
            raise ValueError(f"peak labels must be unique, got {labels}")
        object.__setattr__(self, "peaks", peaks)


@dataclass(frozen=True)
class HardPulse:
    """Non-selective rotation: flip angle beta about axis at phase phi."""

    beta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _check_finite("beta", self.beta))
        object.__setattr__(self, "phi", _check_finite("phi", self.phi))


@dataclass(frozen=True)
class SelectivePulse:
    """Rotation applied only to peaks with |offset - target_offset| < tolerance."""

    beta: float
    phi: float
    target_offset: float
    tolerance: float

    def __post_init__(self) -> None:
        for name in ("beta", "phi", "target_offset", "tolerance"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class Delay:
    """Free precession for tau seconds, with T1 recovery where configured."""

    tau: float

    def __post_init__(self) -> None:
        tau = _check_finite("tau", self.tau)
        if tau < 0:
            raise ValueError(f"delay must be nonnegative, got {tau}")
        object.__setattr__(self, "tau", tau)


SequenceElement = Union[HardPulse, SelectivePulse, Delay]


@dataclass(frozen=True)
class PulseSequence:
    elements: tuple[SequenceElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))


def _rotate(x, y, z, beta, phi):
    # Rodrigues rotation about the in-plane axis k = (cos phi, sin phi, 0).
    kx, ky = np.cos(phi), np.sin(phi)
    c, s = np.cos(beta), np.sin(beta)
    dot = kx * x + ky * y
    t = 1.0 - c
    return (
        x * c + ky * z * s + kx * dot * t,
        y * c - kx * z * s + ky * dot * t,
        z * c + (kx * y - ky * x) * s,
    )


# libm's exp: numpy's own exp is dispatched per CPU and differs from it in the
# last bit for some arguments, which would change reported readouts.
_exp = np.vectorize(math.exp, otypes=[float])


def _evolve(x, y, z, offset, tau, t1):
    # Precession about z by offset*tau; mz recovers toward 1 where t1 is finite.
    angle = offset * tau
    c, s = np.cos(angle), np.sin(angle)
    recovered = 1.0 + (z - 1.0) * _exp(-tau / t1)
    return x * c - y * s, x * s + y * c, np.where(np.isfinite(t1), recovered, z)


def run_steps(s: SpinSystem, steps, shape: tuple[int, ...] = ()):
    """The element loop behind every simulation: one copy of the system per
    cell of a grid of ``shape``, such as (rows, columns), starts from
    equilibrium and goes through ``steps``, pairs of an element class and a
    mapping of its field names to values.  A value is a float shared by every
    cell or an array that broadcasts against ``shape + (peaks,)``: on a
    (rows, columns) grid, an (m, 1) column varies along the columns and a
    (rows, 1, 1) slice along the rows.  Each sine, cosine and exponential
    runs once per value it is given, not once per cell.  Returns the x, y
    and z components as ``shape + (peaks,)`` arrays."""
    offset = np.array([p.offset for p in s.peaks])
    t1 = np.array([p.t1 or math.inf for p in s.peaks])  # t1 is positive when set
    shape = (*shape, len(offset))
    state = np.zeros(shape), np.zeros(shape), np.ones(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, v in steps:
            if kind is HardPulse:
                state = _rotate(*state, v["beta"], v["phi"])
            elif kind is SelectivePulse:
                hit = np.abs(offset - v["target_offset"]) < v["tolerance"]
                rotated = _rotate(*state, v["beta"], v["phi"])
                state = tuple(np.where(hit, r, m) for r, m in zip(rotated, state))
            elif kind is Delay:
                state = _evolve(*state, offset, v["tau"], t1)
            else:
                raise TypeError(f"unknown sequence element type {kind!r}")
    if not all(np.isfinite(c).all() for c in state):
        raise ValueError("magnetization is not finite: a precession angle offset*tau overflows")
    return state


def run_sequence(s: SpinSystem, seq: PulseSequence) -> SpinSystem:
    """Apply the sequence starting from equilibrium: the relaxation delay
    preceding every real experiment is modeled as an exact reset of every
    peak to (0, 0, 1)."""
    x, y, z = run_steps(s, [(type(e), vars(e)) for e in seq.elements])
    return SpinSystem(
        tuple(replace(p, m=Magnetization(*m)) for p, m in zip(s.peaks, zip(x, y, z)))
    )


def read_mx(s: SpinSystem) -> float:
    """Sum of per-peak x components, the modeled spectral integral."""
    return sum(p.m.mx for p in s.peaks)


def read_complex(s: SpinSystem) -> tuple[float, float]:
    """Magnitude and phase of the summed transverse signal.

    Phase is normalized to [0, 2*pi); an exactly zero signal reports phase 0.
    """
    zx = sum(p.m.mx for p in s.peaks)
    zy = sum(p.m.my for p in s.peaks)
    magnitude = math.hypot(zx, zy)
    if magnitude == 0.0:
        return 0.0, 0.0
    return magnitude, normalize_phase(math.atan2(zy, zx))


# --- JSON document schema -------------------------------------------------
#
# {"peaks":    [{"label": str, "offset_rad_s": float, "t1_s": float?}, ...],
#  "sequence": [{"type": "hard_pulse", "beta": float, "phi": float} |
#               {"type": "selective_pulse", "beta": float, "phi": float,
#                "target_offset": float, "tolerance": float} |
#               {"type": "delay", "tau": float}, ...]}
#
# Angles in radians, times in seconds, offsets in rad/s.  A numeric element
# field may instead hold a "$..." placeholder string (see document_from_dict).


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where} is missing required field {key!r}")
    return doc[key]


def _number(doc: dict, key: str, where: str) -> float:
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} field {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} field {key!r} is too large for a float") from None


ELEMENT_TYPES = {"hard_pulse": HardPulse, "selective_pulse": SelectivePulse, "delay": Delay}
# an element's document fields are its type and its dataclass fields
ELEMENT_FIELDS = {
    kind: ("type", *(f.name for f in fields(cls))) for kind, cls in ELEMENT_TYPES.items()
}


def _objects(doc: dict, key: str) -> list:
    entries = _require(doc, key, "document")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"document field {key!r} must be a list of objects")
    return entries


def _known_fields(entry: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown field(s) {unknown}; allowed: {list(allowed)}")


def document_from_dict(
    doc: dict,
) -> tuple[SpinSystem, PulseSequence, tuple[tuple[int, str, str], ...]]:
    """Spin system, pulse sequence and placeholder slots of a document, read
    in one walk that checks its structure, field names, element types and
    numbers as it goes.

    A ``"$..."`` string in a numeric element field is a placeholder: the
    field parses as 1.0, which every numeric element field accepts, and the
    slot (element position, field, string) is returned for the caller to
    fill in or reject.  A document without placeholders has no slots."""
    if not isinstance(doc, dict):
        raise ValueError(f"document must be an object, got {doc!r}")
    peaks = []
    for p in _objects(doc, "peaks"):
        _known_fields(p, ("label", "offset_rad_s", "t1_s"), "peak")
        peaks.append(
            Peak(
                str(_require(p, "label", "peak")),
                _number(p, "offset_rad_s", "peak"),
                t1=_number(p, "t1_s", "peak") if "t1_s" in p else None,
            )
        )
    elements, slots = [], []
    for k, e in enumerate(_objects(doc, "sequence")):
        kind = _require(e, "type", "sequence element")
        if not isinstance(kind, str) or kind not in ELEMENT_TYPES:
            raise ValueError(f"unknown sequence element type {kind!r}")
        _known_fields(e, ELEMENT_FIELDS[kind], kind)
        values = []
        for key in ELEMENT_FIELDS[kind][1:]:
            if isinstance(e.get(key), str) and e[key].startswith("$"):
                slots.append((k, key, e[key]))
                values.append(1.0)
            else:
                values.append(_number(e, key, kind))
        elements.append(ELEMENT_TYPES[kind](*values))
    return SpinSystem(tuple(peaks)), PulseSequence(tuple(elements)), tuple(slots)

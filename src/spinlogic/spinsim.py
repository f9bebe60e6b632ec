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
of per-peak transverse components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

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


def _rotate(m: Magnetization, beta: float, phi: float) -> Magnetization:
    # Rodrigues rotation about the in-plane axis k = (cos phi, sin phi, 0).
    kx, ky = math.cos(phi), math.sin(phi)
    c, s = math.cos(beta), math.sin(beta)
    dot = kx * m.mx + ky * m.my
    t = 1.0 - c
    return Magnetization(
        m.mx * c + ky * m.mz * s + kx * dot * t,
        m.my * c - kx * m.mz * s + ky * dot * t,
        m.mz * c + (kx * m.my - ky * m.mx) * s,
    )


def apply_hard_pulse(s: SpinSystem, beta: float, phi: float) -> SpinSystem:
    """Rotate every peak; pulses are instantaneous (no precession during)."""
    return SpinSystem(tuple(replace(p, m=_rotate(p.m, beta, phi)) for p in s.peaks))


def apply_selective_pulse(
    s: SpinSystem, beta: float, phi: float, target_offset: float, tolerance: float
) -> SpinSystem:
    """Rotate only peaks within the frequency window; a window matching no
    peak is legal and leaves the system unchanged."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    return SpinSystem(
        tuple(
            replace(p, m=_rotate(p.m, beta, phi))
            if abs(p.offset - target_offset) < tolerance
            else p
            for p in s.peaks
        )
    )


def _evolve(p: Peak, tau: float) -> Peak:
    angle = p.offset * tau
    c, s = math.cos(angle), math.sin(angle)
    mx = p.m.mx * c - p.m.my * s
    my = p.m.mx * s + p.m.my * c
    mz = p.m.mz
    if p.t1 is not None:
        mz = 1.0 + (mz - 1.0) * math.exp(-tau / p.t1)
    return replace(p, m=Magnetization(mx, my, mz))


def apply_delay(s: SpinSystem, tau: float) -> SpinSystem:
    """Precession about z plus T1 recovery of mz toward equilibrium."""
    if tau < 0:
        raise ValueError(f"delay must be nonnegative, got {tau}")
    return SpinSystem(tuple(_evolve(p, tau) for p in s.peaks))


def apply_element(s: SpinSystem, e: SequenceElement) -> SpinSystem:
    if isinstance(e, HardPulse):
        return apply_hard_pulse(s, e.beta, e.phi)
    if isinstance(e, SelectivePulse):
        return apply_selective_pulse(s, e.beta, e.phi, e.target_offset, e.tolerance)
    if isinstance(e, Delay):
        return apply_delay(s, e.tau)
    raise TypeError(f"unknown sequence element {e!r}")


def at_equilibrium(s: SpinSystem) -> SpinSystem:
    return SpinSystem(tuple(replace(p, m=EQUILIBRIUM) for p in s.peaks))


def run_sequence(s: SpinSystem, seq: PulseSequence) -> SpinSystem:
    """Apply the sequence starting from equilibrium.

    The relaxation delay preceding every real experiment is modeled as an
    exact reset of every peak to (0, 0, 1).
    """
    state = at_equilibrium(s)
    for element in seq.elements:
        state = apply_element(state, element)
    return state


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


def two_pulse_grid(n: int, phi1: float, beta2: float) -> list[list[float]]:
    """x magnetization after [pulse(beta1_i, phi1), pulse(beta2, phi2_j)] on a
    single on-resonance peak, with beta1 and phi2 sampled at n points spanning
    [0, 2*pi] inclusive; grid[i][j] pairs beta1_i with phi2_j."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {n}")
    system = SpinSystem((Peak("s", 0.0),))
    samples = [k * TWO_PI / (n - 1) for k in range(n)]
    grid = []
    for beta1 in samples:
        row = []
        for phi2 in samples:
            seq = PulseSequence((HardPulse(beta1, phi1), HardPulse(beta2, phi2)))
            row.append(read_mx(run_sequence(system, seq)))
        grid.append(row)
    return grid


# --- JSON document schema -------------------------------------------------
#
# {"peaks":    [{"label": str, "offset_rad_s": float, "t1_s": float?}, ...],
#  "sequence": [{"type": "hard_pulse", "beta": float, "phi": float} |
#               {"type": "selective_pulse", "beta": float, "phi": float,
#                "target_offset": float, "tolerance": float} |
#               {"type": "delay", "tau": float}, ...]}
#
# Angles in radians, times in seconds, offsets in rad/s.


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where} is missing required field {key!r}")
    return doc[key]


def _number(doc: dict, key: str, where: str) -> float:
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} field {key!r} must be a number, got {value!r}")
    return float(value)


PEAK_FIELDS = ("label", "offset_rad_s", "t1_s")
ELEMENT_FIELDS = {
    "hard_pulse": ("type", "beta", "phi"),
    "selective_pulse": ("type", "beta", "phi", "target_offset", "tolerance"),
    "delay": ("type", "tau"),
}


def _check_fields(entry, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(entry) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown field(s) {unknown}; allowed: {list(allowed)}")


def check_document_fields(doc: dict) -> None:
    """Reject a document whose peaks or elements carry a field the schema
    does not define, or whose element type is unknown.  Field values are
    checked when the document is parsed, since a template fills some in
    later."""
    if not isinstance(doc, dict):
        raise ValueError(f"document must be an object, got {doc!r}")
    for key in ("peaks", "sequence"):
        entries = _require(doc, key, "document")
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError(f"document field {key!r} must be a list of objects")
    for peak in doc["peaks"]:
        _check_fields(peak, PEAK_FIELDS, "peak")
    for element in doc["sequence"]:
        kind = _require(element, "type", "sequence element")
        if not isinstance(kind, str) or kind not in ELEMENT_FIELDS:
            raise ValueError(f"unknown sequence element type {kind!r}")
        _check_fields(element, ELEMENT_FIELDS[kind], kind)


def element_from_dict(doc: dict) -> SequenceElement:
    kind = _require(doc, "type", "sequence element")
    if kind == "hard_pulse":
        return HardPulse(_number(doc, "beta", kind), _number(doc, "phi", kind))
    if kind == "selective_pulse":
        return SelectivePulse(
            _number(doc, "beta", kind),
            _number(doc, "phi", kind),
            _number(doc, "target_offset", kind),
            _number(doc, "tolerance", kind),
        )
    if kind == "delay":
        return Delay(_number(doc, "tau", kind))
    raise ValueError(f"unknown sequence element type {kind!r}")


def element_to_dict(e: SequenceElement) -> dict:
    if isinstance(e, HardPulse):
        return {"type": "hard_pulse", "beta": e.beta, "phi": e.phi}
    if isinstance(e, SelectivePulse):
        return {
            "type": "selective_pulse",
            "beta": e.beta,
            "phi": e.phi,
            "target_offset": e.target_offset,
            "tolerance": e.tolerance,
        }
    if isinstance(e, Delay):
        return {"type": "delay", "tau": e.tau}
    raise TypeError(f"unknown sequence element {e!r}")


def document_from_dict(doc: dict) -> tuple[SpinSystem, PulseSequence]:
    peaks = []
    for p in _require(doc, "peaks", "document"):
        peak = Peak(
            str(_require(p, "label", "peak")),
            _number(p, "offset_rad_s", "peak"),
            t1=_number(p, "t1_s", "peak") if "t1_s" in p else None,
        )
        peaks.append(peak)
    elements = tuple(element_from_dict(e) for e in _require(doc, "sequence", "document"))
    return SpinSystem(tuple(peaks)), PulseSequence(elements)


def document_to_dict(system: SpinSystem, sequence: PulseSequence) -> dict:
    peaks = []
    for p in system.peaks:
        entry = {"label": p.label, "offset_rad_s": p.offset}
        if p.t1 is not None:
            entry["t1_s"] = p.t1
        peaks.append(entry)
    return {"peaks": peaks, "sequence": [element_to_dict(e) for e in sequence.elements]}

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
of per-peak transverse components.  Peaks never couple, so :func:`run_peak`,
the one element loop behind every simulation, runs one peak at a time, over
a whole (rows, columns) grid of copies at once.  Its state starts as one
equilibrium vector and grows only along the grid axes whose values reach the
peak, and each element's rotation or precession is one numpy expression in
a fixed operation order, so a readout is the same to the last bit whatever
the grid it is part of.

Systems and sequences are read from JSON documents (schema below) by
:func:`document_from_dict`, the one reader, in a single walk that also
reports the placeholder slots of a template; nothing serializes them back.

A sequence template (:class:`SequenceTemplate`) is such a document in which
numeric fields of sequence elements may be the placeholder strings "$A" or
"$B".  Its readouts on a grid of ($A, $B) values come from one walk over the
grid in tiles of at most STEP_CELLS // 4 points, each tile one call of
:func:`run_peak` per peak; the search layer quantizes them into logic
tables.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from typing import Union

# spinlogic imports before numpy, so no module of the package is compiled
# after numpy has begun to load
from .ternary import CheckedTuple, _check_finite

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


class Magnetization(CheckedTuple, namedtuple("Magnetization", "mx my mz")):
    """Per-peak magnetization vector in units of equilibrium magnetization.

    Rotations preserve the norm and t1-free delays preserve mz and the
    transverse norm exactly.  Note that the T1-only model can push the norm
    transiently above 1 when transverse magnetization persists through a
    recovery delay (no T2 decay counteracts it), by at most 1 in the squared
    norm per delay.

    Like every value of the spin layer, a checked named tuple
    (:class:`~spinlogic.ternary.CheckedTuple`): ``m`` equals the plain tuple
    ``(mx, my, mz)``.
    """

    __slots__ = ()

    def __new__(cls, mx, my, mz) -> "Magnetization":
        return tuple.__new__(cls, map(_check_finite, cls._fields, (mx, my, mz)))

    def norm(self) -> float:
        return math.sqrt(self.mx**2 + self.my**2 + self.mz**2)


EQUILIBRIUM = Magnetization(0.0, 0.0, 1.0)


class Peak(CheckedTuple, namedtuple("Peak", "label offset m t1")):
    """A spectral line: offset from the transmitter in rad/s, its current
    magnetization, and an optional longitudinal relaxation time."""

    __slots__ = ()

    def __new__(cls, label, offset, m=EQUILIBRIUM, t1=None) -> "Peak":
        offset = _check_finite("offset", offset)
        if t1 is not None:
            t1 = _check_finite("t1", t1)
            if t1 <= 0:
                raise ValueError(f"t1 must be positive, got {t1}")
        return tuple.__new__(cls, (label, offset, m, t1))


class SpinSystem(CheckedTuple, namedtuple("SpinSystem", "peaks")):
    __slots__ = ()

    def __new__(cls, peaks) -> "SpinSystem":
        peaks = tuple(peaks)
        if not peaks:
            raise ValueError("spin system needs at least one peak")
        for p in peaks:
            if not isinstance(p, Peak):
                raise TypeError(f"spin system peaks must be Peak values, got {p!r}")
        labels = [p.label for p in peaks]
        if len(set(labels)) != len(labels):
            raise ValueError(f"peak labels must be unique, got {labels}")
        return tuple.__new__(cls, (peaks,))


class HardPulse(CheckedTuple, namedtuple("HardPulse", "beta phi")):
    """Non-selective rotation: flip angle beta about axis at phase phi."""

    __slots__ = ()

    def __new__(cls, beta, phi) -> "HardPulse":
        return tuple.__new__(cls, (_check_finite("beta", beta), _check_finite("phi", phi)))


class SelectivePulse(CheckedTuple, namedtuple("SelectivePulse", "beta phi target_offset tolerance")):
    """Rotation applied only to peaks with |offset - target_offset| < tolerance."""

    __slots__ = ()

    def __new__(cls, beta, phi, target_offset, tolerance) -> "SelectivePulse":
        pulse = tuple.__new__(cls, map(_check_finite, cls._fields, (beta, phi, target_offset, tolerance)))
        if pulse.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {pulse.tolerance}")
        return pulse


class Delay(CheckedTuple, namedtuple("Delay", "tau")):
    """Free precession for tau seconds, with T1 recovery where configured."""

    __slots__ = ()

    def __new__(cls, tau) -> "Delay":
        tau = _check_finite("tau", tau)
        if tau < 0:
            raise ValueError(f"delay must be nonnegative, got {tau}")
        return tuple.__new__(cls, (tau,))


SequenceElement = Union[HardPulse, SelectivePulse, Delay]


class PulseSequence(CheckedTuple, namedtuple("PulseSequence", "elements")):
    __slots__ = ()

    def __new__(cls, elements) -> "PulseSequence":
        elements = tuple(elements)
        for e in elements:
            if not isinstance(e, SequenceElement):
                raise TypeError(f"sequence elements must be HardPulse, SelectivePulse or Delay, got {e!r}")
        return tuple.__new__(cls, (elements,))


# Rodrigues rotation about the in-plane axis k = (cos phi, sin phi, 0), and
# precession about z with T1 recovery in _evolve.  Readouts are compared bit
# for bit, so the order of every product and difference below is fixed: do
# not reassociate, factor or fuse them.
def _rotate(x, y, z, beta, phi):
    kx, ky = np.cos(phi), np.sin(phi)
    c, s = np.cos(beta), np.sin(beta)
    t = 1.0 - c
    dot = kx * x + ky * y
    return (
        x * c + ky * z * s + kx * dot * t,
        y * c - kx * z * s + ky * dot * t,
        z * c + (kx * y - ky * x) * s,
    )


# libm's exp: numpy's own exp is dispatched per CPU and differs from it in the
# last bit for some arguments, which would change reported readouts.
_exp = np.vectorize(math.exp, otypes=[float])


def _evolve(x, y, z, offset, tau, t1):
    angle = offset * tau
    c, s = np.cos(angle), np.sin(angle)
    if t1 is not None:
        z = (z - 1.0) * _exp(-tau / t1) + 1.0
    return x * c - y * s, x * s + y * c, z


def run_peak(peak: Peak, steps):
    """The element loop behind every simulation: one peak starts from
    equilibrium and goes through ``steps``, pairs of an element class and a
    mapping of its field names to values.  A value is a float or an array
    that broadcasts against a grid: on a (rows, columns) grid, an (n, 1)
    column varies along the rows and an (m,) one along the columns.  Each
    sine, cosine and exponential runs once per value it is given, not once
    per grid point.

    Peaks never couple, so a system is simulated peak by peak.  The state
    starts as 0-d equilibrium arrays and grows only along the axes whose
    values reach this peak: each step makes new arrays of the broadcast
    shape of the state and its values, and a delay keeps mz as it is when
    the peak has no T1.  A selective pulse is skipped when its window holds
    the peak at no grid point and is a hard pulse when it holds it at every
    one; otherwise the grid moves the window (a placeholder in
    ``target_offset`` or ``tolerance``), the state is rotated once on its own
    shape, and ``np.where`` keeps the rotated values inside the window.
    Returns x, y and z, checked finite, each broadcasting against the
    grid."""
    x = y = np.zeros(())
    z = np.ones(())
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, v in steps:
            if kind is HardPulse:
                x, y, z = _rotate(x, y, z, v["beta"], v["phi"])
            elif kind is SelectivePulse:
                hit = np.abs(peak.offset - v["target_offset"]) < v["tolerance"]
                if hit.all():
                    x, y, z = _rotate(x, y, z, v["beta"], v["phi"])
                elif hit.any():  # grid points outside the window keep m
                    rotated = _rotate(x, y, z, v["beta"], v["phi"])
                    x, y, z = (np.where(hit, r, m) for r, m in zip(rotated, (x, y, z)))
            elif kind is Delay:
                x, y, z = _evolve(x, y, z, peak.offset, v["tau"], peak.t1)
            else:
                raise TypeError(f"unknown sequence element type {kind!r}")
    if not all(np.isfinite(c).all() for c in (x, y, z)):
        raise ValueError("magnetization is not finite: a precession angle offset*tau overflows")
    return x, y, z


def run_sequence(s: SpinSystem, seq: PulseSequence) -> SpinSystem:
    """Apply the sequence starting from equilibrium: the relaxation delay
    preceding every real experiment is modeled as an exact reset of every
    peak to (0, 0, 1)."""
    steps = [(type(e), e._asdict()) for e in seq.elements]
    return SpinSystem(tuple(p._replace(m=Magnetization(*run_peak(p, steps))) for p in s.peaks))


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
# an element's document fields are its type and its named-tuple fields
ELEMENT_FIELDS = {kind: ("type", *cls._fields) for kind, cls in ELEMENT_TYPES.items()}


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
    _known_fields(doc, ("peaks", "sequence"), "document")
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


# --- sequence templates ------------------------------------------------------

# Cells per step of every grid walk, the readout walk here and the b-triple
# walks of the search layer, each of which sizes its step from the grid shape:
# a readout tile holds STEP_CELLS // 4 points, whole rows or, when one row
# alone is over budget, part of a row, so one peak's state arrays and the
# temporaries of its element expressions stay within a few MB; per b-triple,
# rows plus 27*27 cells plus the target cells of a hit search, which keep each
# moment product of the class count (a corner of T, the largest 28x28 over the
# 27 codes and the unit code) within 7 % of this many multiply-adds and the
# (b-triple, target cell) picks of a hit-search step within this many cells;
# ranks per chunk of a hit search's expansion.  A full readout tile peaks at
# 2.2 to 4.3 MB of float64 arrays (tracemalloc), 33 to 65 bytes per tile point
# whatever the number of peaks.  Per grid point, output included, ``readouts``
# takes 18.4 to 20.6 bytes on 512x512 single- and two-pulse grids, 14.2 on a
# 4x250000 single-pulse grid, 12.2 at 1000x1000 for 3 T1 peaks of which a $B
# pulse selects one, and 83 with 300 peaks on 3x10000, one tile.  A class-count
# or hit-search step peaks at a few MB: 5.5 MB for the counts of a 30x30 grid
# against all 3,654 target cells, in steps of 59 b-triples, and 343 KB on a
# 14x14 grid against the constant class (3 cells), whose steps of 351
# b-triples are the largest a hit search takes.
STEP_CELLS = 1 << 18

# Largest grid a command evaluates, largest linear grid spec it expands, and
# most hits a search lists: a grid's readouts are held as one float per point,
# a hit as seven int32 indices.
MAX_GRID_POINTS = 10**6

PLACEHOLDERS = ("$A", "$B")


def _accepts(element, key: str, values) -> bool:
    """Whether ``element`` is valid with each of ``values`` in field ``key``:
    ``_replace`` checks a copy like the constructor (``CheckedTuple``)."""
    try:
        for v in values:
            element._replace(**{key: v})
    except ValueError:
        return False
    return True


class SequenceTemplate:
    """Pulse-sequence document with exactly two free parameters, $A and $B.

    The document is parsed once, so its errors show before any simulation;
    a placeholder parses as 1.0, which every numeric element field accepts,
    and ``slots`` holds the (element position, field, placeholder) of each.

    ``readout_bound`` bounds the summed readout at every grid point: one
    transverse component per peak, each at most the peak's norm.  Pulses and
    precession preserve that norm and a T1 delay, moving mz toward 1, raises
    its square by at most 1, so a peak without T1 contributes 1 and a peak
    with T1 in a sequence of d delays sqrt(1 + d)."""

    def __init__(self, document: dict):
        self.system, self.sequence, self.slots = document_from_dict(document)
        for _, key, name in self.slots:
            if name not in PLACEHOLDERS:
                raise ValueError(f"unknown placeholder {name!r} in field {key!r}")
        missing = [p for p in PLACEHOLDERS if p not in {name for _, _, name in self.slots}]
        if missing:
            raise ValueError(f"template must use both $A and $B, missing {missing}")
        delays = sum(isinstance(e, Delay) for e in self.sequence.elements)
        self.readout_bound = sum(
            1.0 if p.t1 is None else math.sqrt(1 + delays) for p in self.system.peaks
        )

    @classmethod
    def from_json(cls, text: str) -> "SequenceTemplate":
        try:
            document = json.loads(text)
        except RecursionError:
            raise ValueError("template JSON is nested too deeply") from None
        return cls(document)

    def _checked(self, name: str, grid):
        """(position, field, values) for each slot of placeholder ``name``,
        ``values`` the grid as a float array that passes the element's own
        validation.  Every element field is valid on an interval (finite,
        > 0 or >= 0), so once numpy finds all values finite, the minimum and
        maximum stand for the rest; only when a check fails is the grid
        walked value by value, so the error names its first invalid value."""
        values = np.asarray(grid, dtype=float)
        finite = bool(np.isfinite(values).all())
        extremes = (values.min(), values.max()) if values.size else ()
        for k, key, placeholder in self.slots:
            if placeholder == name:
                element = self.sequence.elements[k]
                if not (finite and _accepts(element, key, extremes)):
                    for v in grid:  # raises at the first invalid value
                        element._replace(**{key: v})
                yield k, key, values

    def _tiles(self, grid_a, grid_b):
        """The one walk over the grid: (tile, values) for each tile in
        row-major order, ``tile`` a pair of slices of grid_a and grid_b and
        ``values`` its summed x readouts.  A tile holds whole rows of at most
        STEP_CELLS // 4 points, whatever the number of peaks, so a tile's
        state arrays and numpy's temporaries peak at a few MB (see
        STEP_CELLS); only a row that alone is over budget is split, and a
        tile always holds at least one point.  Every grid value is checked
        before the first tile.  Each slot is held as a column along its
        axis, (n, 1) for $A and (m,) for $B, and sliced per tile, so both
        broadcast over the tile's (rows, columns) points.

        Each tile runs ``run_peak`` once per peak and sums the x of the peaks
        in the listed order, starting from 0.0, like ``read_mx``; the sum
        grows only along the axes that reach some peak and is broadcast to
        the tile shape when it is yielded."""
        n, m = len(grid_a), len(grid_b)
        cols = max(1, min(m, STEP_CELLS // 4))
        rows = max(1, STEP_CELLS // 4 // cols)  # one row when cols < m
        slots = [
            (k, key, np.reshape(v, column), axis)
            for axis, name, grid, column in ((0, "$A", grid_a, (-1, 1)), (1, "$B", grid_b, (-1,)))
            for k, key, v in self._checked(name, grid)
        ]
        steps = [(type(e), e._asdict()) for e in self.sequence.elements]
        for r in range(0, n, rows):
            for c in range(0, m, cols):
                tile = slice(r, min(r + rows, n)), slice(c, min(c + cols, m))
                for k, key, column, axis in slots:
                    steps[k][1][key] = column[tile[axis]]
                total = 0.0
                for p in self.system.peaks:
                    total = total + run_peak(p, steps)[0]
                yield tile, np.broadcast_to(total, (tile[0].stop - r, tile[1].stop - c))

    def readouts(self, grid_a, grid_b) -> np.ndarray:
        """Summed x readout at every grid point, shape (len(grid_a),
        len(grid_b)), filled tile by tile from the walk over the grid."""
        out = np.empty((len(grid_a), len(grid_b)))
        for tile, values in self._tiles(grid_a, grid_b):
            out[tile] = values
        return out


def single_pulse_template() -> SequenceTemplate:
    """One on-resonance peak, one pulse: flip angle $A, phase $B."""
    return SequenceTemplate(
        {
            "peaks": [{"label": "s", "offset_rad_s": 0.0}],
            "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
        }
    )


def two_pulse_template(phi1: float = 3 * math.pi / 2, beta2: float = math.pi / 2) -> SequenceTemplate:
    """One peak, two pulses: first flip angle $A at fixed phase phi1, then a
    fixed beta2 rotation at phase $B."""
    return SequenceTemplate(
        {
            "peaks": [{"label": "s", "offset_rad_s": 0.0}],
            "sequence": [
                {"type": "hard_pulse", "beta": "$A", "phi": phi1},
                {"type": "hard_pulse", "beta": beta2, "phi": "$B"},
            ],
        }
    )


def selective_delay_template(omega_a: float = math.pi) -> SequenceTemplate:
    """Two peaks at omega_a and 2*omega_a, a selective pi/2 excitation at
    frequency $B, then a precession delay $A before acquisition."""
    if omega_a <= 0:
        raise ValueError(f"omega_a must be positive, got {omega_a}")
    return SequenceTemplate(
        {
            "peaks": [
                {"label": "A", "offset_rad_s": omega_a},
                {"label": "B", "offset_rad_s": 2 * omega_a},
            ],
            "sequence": [
                {
                    "type": "selective_pulse",
                    "beta": math.pi / 2,
                    "phi": math.pi / 2,
                    "target_offset": "$B",
                    "tolerance": omega_a / 4,
                },
                {"type": "delay", "tau": "$A"},
            ],
        }
    )


def selective_delay_inputs(
    omega_a: float = math.pi,
) -> tuple[SequenceTemplate, tuple[float, float, float], tuple[float, float, float]]:
    """The selective-delay template with the delay triple (0, quarter turn of
    peak A, half turn of peak A) and the frequency triple (peak A, midpoint,
    peak B)."""
    template = selective_delay_template(omega_a)
    delays = (0.0, math.pi / (2 * omega_a), math.pi / omega_a)
    frequencies = (omega_a, 1.5 * omega_a, 2 * omega_a)
    return template, delays, frequencies

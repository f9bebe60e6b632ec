"""Reference of the spin simulator, independent of :mod:`spinlogic.spinsim`'s
kernel: the rotation and precession formulas written as plain array
expressions, the element loop on fully built (rows, columns, peaks) arrays,
and a stepwise form that applies one element to one frozen spin system at a
time, peak by peak.  Tests hold ``run_peak`` and ``run_sequence`` to it, bit
for bit where the arithmetic is the same, and check the formulas on states
other than equilibrium through it."""

import math

import numpy as np

from spinlogic.spinsim import (
    EQUILIBRIUM,
    Delay,
    HardPulse,
    Magnetization,
    SelectivePulse,
    SequenceElement,
    SpinSystem,
)

# libm's exp, as the simulator uses it
_exp = np.vectorize(math.exp, otypes=[float])


def rotate(x, y, z, beta, phi):
    """Rodrigues rotation about the in-plane axis k = (cos phi, sin phi, 0)."""
    kx, ky = np.cos(phi), np.sin(phi)
    c, s = np.cos(beta), np.sin(beta)
    dot = kx * x + ky * y
    t = 1.0 - c
    return (
        x * c + ky * z * s + kx * dot * t,
        y * c - kx * z * s + ky * dot * t,
        z * c + (kx * y - ky * x) * s,
    )


def evolve(x, y, z, offset, tau, t1):
    """Precession about z by offset*tau; mz recovers toward 1 where t1 is finite."""
    angle = offset * tau
    c, s = np.cos(angle), np.sin(angle)
    recovered = 1.0 + (z - 1.0) * _exp(-tau / t1)
    return x * c - y * s, x * s + y * c, np.where(np.isfinite(t1), recovered, z)


def run_steps(s: SpinSystem, steps, shape: tuple[int, ...] = ()):
    """The element loop on full ``shape + (peaks,)`` arrays from the first
    step on: a step value, a float or an array that broadcasts against
    ``shape``, gets a trailing peak axis, every element builds whole new
    arrays, and a selective pulse picks between the rotated and the
    unrotated state with ``np.where``."""
    offset = np.array([p.offset for p in s.peaks])
    t1 = np.array([p.t1 or math.inf for p in s.peaks])
    shape = (*shape, len(offset))
    state = np.zeros(shape), np.zeros(shape), np.ones(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, fields in steps:
            v = {key: value[..., None] if np.ndim(value) else value for key, value in fields.items()}
            if kind is HardPulse:
                state = rotate(*state, v["beta"], v["phi"])
            elif kind is SelectivePulse:
                hit = np.abs(offset - v["target_offset"]) < v["tolerance"]
                rotated = rotate(*state, v["beta"], v["phi"])
                state = tuple(np.where(hit, r, m) for r, m in zip(rotated, state))
            elif kind is Delay:
                state = evolve(*state, offset, v["tau"], t1)
    if not all(np.isfinite(c).all() for c in state):
        raise ValueError("magnetization is not finite: a precession angle offset*tau overflows")
    return state


def apply_hard_pulse(s: SpinSystem, beta: float, phi: float) -> SpinSystem:
    """Rotate every peak; pulses are instantaneous (no precession during)."""
    return SpinSystem(
        tuple(p._replace(m=Magnetization(*rotate(*p.m, beta, phi))) for p in s.peaks)
    )


def apply_selective_pulse(
    s: SpinSystem, beta: float, phi: float, target_offset: float, tolerance: float
) -> SpinSystem:
    """Rotate only peaks within the frequency window; a window matching no
    peak is legal and leaves the system unchanged."""
    rotated = apply_hard_pulse(s, beta, phi).peaks
    window = [abs(p.offset - target_offset) < tolerance for p in s.peaks]
    return SpinSystem(tuple(r if w else p for p, r, w in zip(s.peaks, rotated, window)))


def apply_delay(s: SpinSystem, tau: float) -> SpinSystem:
    """Precession about z plus T1 recovery of mz toward equilibrium."""
    tau = Delay(tau).tau
    return SpinSystem(
        tuple(
            p._replace(m=Magnetization(*evolve(*p.m, p.offset, tau, p.t1 or math.inf)))
            for p in s.peaks
        )
    )


def apply_element(s: SpinSystem, e: SequenceElement) -> SpinSystem:
    """One element applied peak by peak."""
    if isinstance(e, HardPulse):
        return apply_hard_pulse(s, e.beta, e.phi)
    if isinstance(e, SelectivePulse):
        return apply_selective_pulse(s, e.beta, e.phi, e.target_offset, e.tolerance)
    if isinstance(e, Delay):
        return apply_delay(s, e.tau)
    raise TypeError(f"unknown sequence element {e!r}")


def at_equilibrium(s: SpinSystem) -> SpinSystem:
    return SpinSystem(tuple(p._replace(m=EQUILIBRIUM) for p in s.peaks))

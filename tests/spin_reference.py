"""Stepwise reference of the spin simulator: one element applied to one
frozen spin system at a time, peak by peak, with the rotation and precession
formulas of :mod:`spinlogic.spinsim`.  Tests hold ``run_steps`` and
``run_sequence`` to it, and check the formulas on states other than
equilibrium through it."""

import math
from dataclasses import astuple, replace

from spinlogic.spinsim import (
    EQUILIBRIUM,
    Delay,
    HardPulse,
    Magnetization,
    SelectivePulse,
    SequenceElement,
    SpinSystem,
    _evolve,
    _rotate,
)


def apply_hard_pulse(s: SpinSystem, beta: float, phi: float) -> SpinSystem:
    """Rotate every peak; pulses are instantaneous (no precession during)."""
    return SpinSystem(
        tuple(replace(p, m=Magnetization(*_rotate(*astuple(p.m), beta, phi))) for p in s.peaks)
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
            replace(p, m=Magnetization(*_evolve(*astuple(p.m), p.offset, tau, p.t1 or math.inf)))
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
    return SpinSystem(tuple(replace(p, m=EQUILIBRIUM) for p in s.peaks))

"""The sequence template and the two grids of ``simulate`` and ``search``.

The spin layer is imported inside the functions, not here, so that
``search`` can load its own layers first: the spin layer loads numpy, and a
spinlogic module found after numpy has loaded would be compiled after it.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .. import spinsim


def _parse_grid(spec: str) -> list[float]:
    """Comma-separated radians, or ``lin:<start>:<stop>:<n>`` for n evenly
    spaced samples including both endpoints."""
    from .. import spinsim

    spec = spec.strip()
    if not spec:
        raise ValueError("empty grid spec")
    if spec.startswith("lin:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"linear grid spec must be lin:start:stop:n, got {spec!r}")
        start, stop, n = float(parts[1]), float(parts[2]), int(parts[3])
        if n < 2:
            raise ValueError(f"linear grid needs at least 2 points, got {n}")
        if n > spinsim.MAX_GRID_POINTS:
            raise ValueError(
                f"linear grid of {n} points exceeds the limit of {spinsim.MAX_GRID_POINTS}"
            )
        return [start + k * (stop - start) / (n - 1) for k in range(n)]
    return [float(piece) for piece in spec.split(",")]


def _template_and_grids(args) -> tuple[spinsim.SequenceTemplate, list[float], list[float]]:
    from .. import spinsim

    name = args.sequence
    if name == "single-pulse":
        template = spinsim.single_pulse_template()
    elif name == "two-pulse":
        template = spinsim.two_pulse_template(args.phi1, args.beta2)
    elif name == "selective-delay":
        template = spinsim.selective_delay_template(args.omega_a)
    else:
        template = spinsim.SequenceTemplate.from_json(Path(name).read_text(encoding="utf-8"))
    grid_a, grid_b = _parse_grid(args.grid_a), _parse_grid(args.grid_b)
    if len(grid_a) * len(grid_b) > spinsim.MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {len(grid_a)}x{len(grid_b)} points exceeds the limit of"
            f" {spinsim.MAX_GRID_POINTS}"
        )
    return template, grid_a, grid_b

"""``spinlogic complex``: the complex-logic product with its Cartesian
cross-check and NMR round trips (``mul``), or one p-truth value
(``truth``).  It loads the spin layer alone."""

from __future__ import annotations

import json
import math

from . import _emit, _fmt


def _phase_distance(t1: float, t2: float) -> float:
    d = abs(t1 - t2) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def run(args) -> int:
    expected = 4 if args.action == "mul" else 1
    if len(args.values) != expected:
        raise ValueError(f"complex {args.action} takes {expected} value(s)")
    from .. import complexlogic

    params = complexlogic.EncodingParams(t1=args.t1, omega_off=args.omega_off, alpha=args.alpha)

    if args.action == "truth":
        value = complexlogic.ptruth(args.values[0])
        if args.format == "json":
            text = json.dumps({"theta": args.values[0], "ptruth": value}, sort_keys=True) + "\n"
        else:
            text = f"ptruth({_fmt(args.values[0])}) = {_fmt(value)}\n"
        _emit([text], args.out)
        return 0

    r1, t1, r2, t2 = args.values
    z1 = complexlogic.ComplexSample(r1, t1)
    z2 = complexlogic.ComplexSample(r2, t2)
    logic = complexlogic.complex_multiply_via_logic(z1, z2)
    cartesian = complexlogic.ComplexSample.from_complex(z1.to_complex() * z2.to_complex())

    rows = []
    for name, z in (("z1", z1), ("z2", z2), ("product", logic)):
        recovered = complexlogic.encode_decode_roundtrip(z, params)
        rows.append(
            {
                "operand": name,
                "r": z.r,
                "theta": z.theta,
                "recovered_r": recovered.r,
                "recovered_theta": recovered.theta,
                "err_r": abs(recovered.r - z.r),
                "err_theta": _phase_distance(recovered.theta, z.theta) if z.r > 0 else 0.0,
            }
        )

    if args.format == "json":
        doc = {
            "logic_product": {"r": logic.r, "theta": logic.theta},
            "cartesian_product": {"r": cartesian.r, "theta": cartesian.theta},
            "magnitude_deviation": abs(logic.r - cartesian.r),
            "phase_deviation": _phase_distance(logic.theta, cartesian.theta),
            "roundtrips": rows,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            f"logic product (mand/pxnor): r={_fmt(logic.r)} theta={_fmt(logic.theta)}",
            f"cartesian product:          r={_fmt(cartesian.r)} theta={_fmt(cartesian.theta)}",
            f"deviation: dr={_fmt(abs(logic.r - cartesian.r))}"
            f" dtheta={_fmt(_phase_distance(logic.theta, cartesian.theta))}",
            "",
            "operand,r,theta,recovered_r,recovered_theta,err_r,err_theta",
        ]
        for row in rows:
            lines.append(
                ",".join(
                    [row["operand"]]
                    + [
                        _fmt(row[k])
                        for k in ("r", "theta", "recovered_r", "recovered_theta", "err_r", "err_theta")
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    _emit([text], args.out)
    return 0

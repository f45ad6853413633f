"""Regenerate the Chebyshev table of cyleta's erfcx.

    python tools/erfcx_coefficients.py           # print the table
    python tools/erfcx_coefficients.py --check   # exit 1 if the committed
                                                 # table differs

The series is Schonfelder's (Math. Comp. 32, 1978):

    (1 + 2x) erfcx(x) = sum_{k=0}^{22} c_k T_k(t),  t = (x - K)/(x + K),

with K = 3.75, which maps x in [0, inf] onto t in [-1, 1]. The c_k are
projections of that function onto the Chebyshev polynomials, computed in
mpmath at 40 digits by the 64-point Chebyshev-Gauss rule (whose aliasing
error, about |c_128|, is far below double precision) and rounded once to
doubles. c_0 is stored halved, so that the series is a plain sum. The
first omitted coefficients, c_23 and c_24, are about 7e-17 and 5e-17 on a
function of size 1 to 1.13. Needs mpmath, a test extra.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

import mpmath

K = 3.75
DEGREE = 22
NODES = 64
DIGITS = 40
SPECIAL = Path(__file__).resolve().parents[1] / "src" / "cyleta" / "_special.py"


def coefficients() -> tuple[float, ...]:
    """c_0/2, c_1, ..., c_DEGREE as doubles."""
    with mpmath.workdps(DIGITS):
        k = mpmath.mpf(K)

        def f(t):
            x = k * (1 + t) / (1 - t)
            return (1 + 2 * x) * mpmath.erfc(x) * mpmath.exp(x * x)

        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES
                  for j in range(NODES)]
        values = [f(mpmath.cos(theta)) for theta in angles]
        c = [2 * mpmath.fsum(v * mpmath.cos(n * theta)
                             for v, theta in zip(values, angles)) / NODES
             for n in range(DEGREE + 1)]
        c[0] /= 2
        return tuple(float(v) for v in c)


def committed() -> dict:
    """The literals _ERFCX_K and _ERFCX_SERIES of _special.py."""
    found = {}
    for node in ast.parse(SPECIAL.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("_ERFCX_K", "_ERFCX_SERIES"):
                found[name] = ast.literal_eval(node.value)
    return found


def table(series: tuple[float, ...]) -> str:
    rows = "".join(f"    {v!r},\n" for v in series)
    return f"_ERFCX_K = {K!r}\n_ERFCX_SERIES = (\n{rows})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the table in src/cyleta/_special.py")
    args = parser.parse_args(argv)
    series = coefficients()
    if not args.check:
        print(table(series))
        return 0
    if committed() != {"_ERFCX_K": K, "_ERFCX_SERIES": series}:
        print(f"{SPECIAL}: the erfcx table differs from a fresh one:\n"
              f"{table(series)}", file=sys.stderr)
        return 1
    print("erfcx table matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Relative index bookkeeping for operators sharing a cylindrical end.

Two Fredholm operators that agree outside compact sets have indices
ind_i = as_i + A(a'), with the same boundary contribution A(a') = -eta/2.
Their difference therefore reduces to the difference of interior terms;
the boundary pieces cancel. This script assembles both indices, checks the
cancellation, shows the integrality bookkeeping for the identity group
element, and scales the contribution by a warp factor f1.

Run as: python3 demos/relative_index.py
"""

from cyleta import (
    aps_index,
    circle_spectrum,
    contribution,
    relative_index_check,
)


def main():
    spectrum = circle_spectrum(0.25, 0.0, 2000)
    as_terms = (2.25, -0.75)

    print("two operators with the same boundary spectrum (twist 0.25)")
    print(f"interior terms: {as_terms[0]} and {as_terms[1]}")
    print()

    reports = []
    for as_term in as_terms:
        idx = aps_index(spectrum, as_term, g_is_identity=True)
        reports.append(idx)
        print(f"  as = {as_term:>6}: index = {idx.index_value.real:>8.12f} "
              f"(integrality residual {idx.integrality_residual:.2e})")

    difference = reports[0].index_value - reports[1].index_value
    print()
    print(f"index difference:          {difference.real:.12f}")
    print(f"interior-term difference:  {as_terms[0] - as_terms[1]}")
    defect = relative_index_check(spectrum, as_terms[0],
                                  spectrum, as_terms[1], 0.5)
    print(f"cancellation defect:       {abs(defect.value):.2e} "
          f"(est_error {defect.est_error:.1e})")

    print()
    print("a warp factor f1 scales the contribution, at every collar:")
    for f1 in (1.0, 2.0, -0.5):
        idx = aps_index(spectrum, as_terms[0], f1_at_aprime=f1)
        summed = as_terms[0] + contribution(spectrum, 0.5, f1).direct_value
        print(f"  f1 = {f1:>4}: index = {idx.index_value.real:>8.12f} "
              f"(as + A(0.5) the same bit for bit: "
              f"{idx.index_value == summed})")


if __name__ == "__main__":
    main()

"""Eta invariants of twisted circle operators, against the closed form.

The operator -i d/dx + a on the unit circle has eigenvalues n + a for all
integers n. Its eta invariant, the regularized signed count of
eigenvalues, equals 1 - 2a for any twist 0 < a < 1. This script computes
eta from truncated spectra and shows two things:

* the computed value hits the closed form at desk-scale truncations,
* the error estimate is honest: the observed deviation stays below it.

Run as: python3 demos/eta_circle.py
"""

from cyleta import circle_spectrum, eta_invariant


def main():
    print("eta invariants of twisted circles, 2000 modes per sign")
    print(f"{'twist':>6} {'computed':>22} {'exact 1-2a':>12} "
          f"{'deviation':>10} {'est_error':>10}")
    for twist in (0.1, 0.25, 0.5, 0.75, 0.9):
        spectrum = circle_spectrum(twist, 0.0, 2000)
        result = eta_invariant(spectrum)
        exact = 1.0 - 2.0 * twist
        dev = abs(result.value - exact)
        print(f"{twist:>6} {result.value.real:>22.15f} {exact:>12.2f} "
              f"{dev:>10.2e} {result.est_error:>10.2e}")


if __name__ == "__main__":
    main()

"""Risk inclination spectrum and the minimal risk of staying quoted.

The risk operator is a harmonic oscillator in the (p, q) market plane
with frequency set by the transaction time, omega = 2 pi / theta.  Its
ground energy times twice the transaction time is exactly the
economical Planck constant: no trader runs below that exposure.
"""

import math

from qmg import (
    RiskParams,
    Strategy,
    UNIT_RISK,
    risk_expectation,
    spectrum,
    thermal_energy,
)


def main() -> None:
    risk = RiskParams(hbar_e=1.0, theta=2.0)
    spec = spectrum(risk, 5)
    print(f"theta = {risk.theta}, omega = {risk.omega:.6f}")
    print("first five risk eigenvalues:")
    for k, e in enumerate(spec.eigenvalues):
        print(f"  E_{k} = {e:.6f}")
    h_e = 2 * math.pi * risk.hbar_e
    print(f"ground relation E_0 * 2 theta = {spec.eigenvalues[0] * 2 * risk.theta:.12f}"
          f" vs h_E = {h_e:.12f}")

    nc = RiskParams(hbar_e=1.0, theta=2.0, theta_nc=0.75)
    print(f"noncommutative market Theta=0.75: hbar_eff = {nc.hbar_eff}")

    tight = Strategy.gaussian(0.0, 0.4)
    wide = Strategy.gaussian(0.0, 1.8)
    balanced = Strategy.gaussian(0.0, math.sqrt(0.5))
    print("expected risk under the unit operator (bound 0.5):")
    for name, s in (("tight", tight), ("balanced", balanced), ("wide", wide)):
        print(f"  {name:9s} {risk_expectation(s, UNIT_RISK):.6f}")

    print("thermal mean risk E(beta), hot markets carry more exposure:")
    for beta in (0.25, 1.0, 4.0, 16.0):
        print(f"  beta {beta:5.2f}: {thermal_energy(beta, UNIT_RISK):.6f}")


if __name__ == "__main__":
    main()

"""Freezing a quoted strategy by watching it: the market Zeno effect.

Between observations a strategy evolves under the risk Hamiltonian and
drifts toward its supply dual.  Each observation projects it back onto
the original quote.  Watch rarely and the quote is gone; watch often
enough and it survives with probability approaching one.
"""

import math

from qmg import Strategy, ZenoRun, freeze_experiment, normalize, survival_probability


def main() -> None:
    superposition = normalize(
        Strategy.superpose([Strategy.hermite(0), Strategy.hermite(1)], [1.0, 1.0])
    )
    print("equal mix of the two lowest risk levels, horizon = half a period:")
    rows = freeze_experiment(
        ZenoRun(superposition, 0.5, 1), [1, 2, 10, 100, 1000]
    )
    for row in rows:
        print(f"  n = {row.n:5d}  S = {row.survival:.12f}")
    print("  one look destroys the quote, a thousand looks freeze it")

    eigen = Strategy.hermite(2)
    print("an eigenstate never moves, watched or not:")
    for n in (1, 10):
        print(f"  n = {n:5d}  S = {survival_probability(ZenoRun(eigen, 0.5, n))}")

    print("a full oscillator period revives any strategy without help:")
    s_rev = survival_probability(ZenoRun(superposition, 1.0, 1))
    print(f"  total_time = 1 (omega T = 2 pi), n = 1: S = {s_rev:.12f}")

    coherent = Strategy.gaussian(1.5, math.sqrt(0.5))
    print("displaced packet (closed-form expansion by its three-term recurrence, 128 levels):")
    for n in (1, 3, 25):
        s = survival_probability(ZenoRun(coherent, 1.0 / math.pi, n))
        print(f"  n = {n:3d}  S = {s:.8f}")


if __name__ == "__main__":
    main()

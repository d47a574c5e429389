"""Build trader strategies and move them between market sides.

A strategy is a wavefunction over log-price.  The demand representation
gives the amplitude of quoting a buying log-price q; its Fourier dual
(scaled by the effective Planck constant) is the supply side.
"""

import numpy as np

from qmg import (
    Representation,
    Strategy,
    buy_probability,
    moments,
    normalize,
    sample,
    sell_probability,
    to_supply_rep,
    RandomSource,
)


def main() -> None:
    buyer = Strategy.gaussian(0.0, 1.0)
    print("gaussian buyer, center 0, width 1")
    print(f"  P(bid <= 1)              = {buy_probability(buyer, 1.0):.6f}")
    print(f"  P(withdraw above ln c=0) = {sell_probability(buyer, 0.0):.6f}")

    dual = to_supply_rep(buyer)
    mu, sd = moments(dual)
    print("same trader seen from the supply side:")
    print(f"  mean selling log-price {mu:+.6f}, spread {sd:.6f}")

    tilted = Strategy.gaussian(0.0, 1.0, slope=-0.8)
    dual2 = to_supply_rep(tilted)
    mu2, _ = moments(dual2)
    print("a bid-center shift only rephases the dual; a phase slope moves it:")
    print(f"  slope -0.8 puts the ask center at {mu2:+.6f}")

    cat = normalize(
        Strategy.superpose(
            [Strategy.gaussian(-1.2, 0.7), Strategy.gaussian(1.2, 0.7)], [1.0, 1.0]
        )
    )
    gen = RandomSource(7).rng
    draws = sample(cat, gen, 5000)
    print("two-humped superposition, 5000 sampled quotes:")
    print(f"  empirical mean {np.mean(draws):+.4f} (symmetric humps cancel)")
    print(f"  empirical std  {np.std(draws):.4f}")

    seller = Strategy.delta(0.5, rep=Representation.SUPPLY)
    print(f"improper seller pinned at ln price {seller.form.atoms[0]}: ", end="")
    print("point measures skip quadrature and clear exactly")


if __name__ == "__main__":
    main()

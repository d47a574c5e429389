"""The public option inventory: every parameter with a default that qmg exports.

A new option, or a retired one, shows up in review as an edit to
``OPTIONS``.  Enum and exception classes are left out: their call
signatures are Python's (the functional Enum API, which differs between
Python versions, and an exception's message arguments), not qmg's.
"""

import enum
import inspect

import qmg

OPTIONS = {
    "reciprocal_grid": ("hbar",),
    "fourier_q_to_p": ("hbar",),
    "fourier_p_to_q": ("hbar", "grid_q"),
    "find_root": ("tol",),
    "Strategy": ("rep",),
    "RiskParams": ("m", "theta_nc"),
    "hermite_function": ("length_scale",),
    "sample": ("rep", "hbar"),
    "sell_probability": ("hbar",),
    "to_demand_rep": ("hbar",),
    "to_supply_rep": ("hbar",),
    "parse_strategy": ("rep", "base_dir", "risk"),
    "CoherentParams": ("p0", "q0"),
    "wigner_transform": ("p_grid", "q_grid", "hbar"),
    "coherent_wigner": ("hbar", "p_grid", "q_grid"),
    "excited_wigner": ("p_grid", "q_grid"),
    "thermal_wigner": ("p_grid", "q_grid", "mode", "series_terms"),
    "clear_round": ("hbar",),
    "pair_execution_frequency": ("hbar",),
    "profit_intensity": ("rw_sigma",),
    "fixed_point": ("rw_sigma",),
    "AuctionInstance": ("pricing", "weight", "mc_samples", "rng"),
    "vickrey_truthfulness_check": ("rng", "mc_samples"),
    "ZenoRun": ("risk",),
    "hermite_coefficients": ("risk", "size"),
}


def _options(obj) -> tuple:
    params = inspect.signature(obj).parameters.values()
    return tuple(p.name for p in params if p.default is not inspect.Parameter.empty)


def test_the_public_options_are_the_listed_ones():
    exported = {name: getattr(qmg, name) for name in qmg.__all__}
    found = {
        name: _options(obj)
        for name, obj in exported.items()
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, (enum.Enum, BaseException)))
    }
    assert {name: opts for name, opts in found.items() if opts} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 44

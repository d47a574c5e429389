"""Quantum market games: traders as wavefunctions over log-price.

Strategies live in the demand (buying log-price) or supply
representation, related by a Fourier transform scaled by the
economical Planck constant.  The package builds their phase-space
densities, risk-inclination spectra, profit-intensity fixed points,
clearing rounds, sealed auctions, and measurement-freezing dynamics.
"""

__version__ = "0.1.0"

from .errors import (
    BracketingError,
    ContractViolationError,
    DegenerateDensityError,
    DegenerateStateError,
    ImproperStateError,
    MarketModelError,
    NotApplicableError,
    ParameterRangeError,
    RepresentationError,
    TruncationError,
)
from .numerics import (
    Grid,
    RandomSource,
    find_root,
    fourier_p_to_q,
    fourier_q_to_p,
    integrate,
    reciprocal_grid,
)
from .strategy import (
    MarketState,
    Representation,
    RiskParams,
    Strategy,
    UNIT_RISK,
    buy_probability,
    hermite_function,
    moments,
    norm,
    normalize,
    parse_strategy,
    sample,
    sell_probability,
    to_demand_rep,
    to_supply_rep,
)
from .wigner import (
    CoherentParams,
    DominantCurves,
    GiffenReport,
    HudsonClass,
    HudsonReport,
    PhaseSpaceDensity,
    coherent_wigner,
    dominant_curves,
    excited_wigner,
    hudson_check,
    is_giffen,
    thermal_wigner,
    wigner_transform,
)
from .risk import (
    RiskSpectrum,
    risk_expectation,
    spectrum,
    thermal_energy,
)
from .clearing import (
    ClearingOutcome,
    CoolingRow,
    Division,
    clear_round,
    cooling_experiment,
    fixed_point,
    market_temperature,
    pair_execution_frequency,
    profit_intensity,
    random_division,
    round_log_to_csv,
)
from .auction import (
    AuctionInstance,
    AuctionOutcome,
    TransactionReport,
    TruthfulnessReport,
    mixed_polarization_auction,
    run_auction,
    transaction_probabilities,
    vickrey_truthfulness_check,
)
from .zeno import (
    FreezeRow,
    ZenoRun,
    freeze_experiment,
    freeze_table_to_csv,
    hermite_coefficients,
    survival_probability,
)

__all__ = [
    "__version__",
    # errors
    "MarketModelError",
    "ContractViolationError",
    "ParameterRangeError",
    "BracketingError",
    "ImproperStateError",
    "DegenerateStateError",
    "RepresentationError",
    "DegenerateDensityError",
    "TruncationError",
    "NotApplicableError",
    # numerics
    "Grid",
    "RandomSource",
    "integrate",
    "reciprocal_grid",
    "fourier_q_to_p",
    "fourier_p_to_q",
    "find_root",
    # strategies
    "Strategy",
    "Representation",
    "RiskParams",
    "UNIT_RISK",
    "MarketState",
    "hermite_function",
    "norm",
    "normalize",
    "moments",
    "sample",
    "buy_probability",
    "sell_probability",
    "to_demand_rep",
    "to_supply_rep",
    "parse_strategy",
    # phase space
    "PhaseSpaceDensity",
    "DominantCurves",
    "CoherentParams",
    "GiffenReport",
    "HudsonClass",
    "HudsonReport",
    "wigner_transform",
    "coherent_wigner",
    "excited_wigner",
    "thermal_wigner",
    "dominant_curves",
    "is_giffen",
    "hudson_check",
    # risk
    "RiskSpectrum",
    "spectrum",
    "risk_expectation",
    "thermal_energy",
    # clearing
    "Division",
    "ClearingOutcome",
    "CoolingRow",
    "random_division",
    "clear_round",
    "pair_execution_frequency",
    "profit_intensity",
    "fixed_point",
    "cooling_experiment",
    "market_temperature",
    "round_log_to_csv",
    # auctions
    "AuctionInstance",
    "AuctionOutcome",
    "TransactionReport",
    "TruthfulnessReport",
    "run_auction",
    "mixed_polarization_auction",
    "transaction_probabilities",
    "vickrey_truthfulness_check",
    # zeno
    "ZenoRun",
    "FreezeRow",
    "survival_probability",
    "freeze_experiment",
    "freeze_table_to_csv",
    "hermite_coefficients",
]

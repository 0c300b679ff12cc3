"""Order-book liquidity toolkit.

A limit-order matching engine, a bucketed relative-demand-curve model of the
book driven by a Brownian sheet, the change of measure that makes the
clearing price a martingale, Monte-Carlo option pricing on top of it, and
estimators that fit the model to an exchange message log.
"""

from .errors import (
    BookVolError,
    ConfigError,
    FitError,
    GridError,
    OrderError,
    ParseError,
    SimulationError,
    SingularSystemError,
    UndefinedInverseError,
    UnknownOrderError,
)
from .lob import LimitOrder, MessageEvent, OrderBook, Side, Trade, replay
from .params import ModelParams, demo_params, load_params, save_params
from .sheet import SheetConfig
from .demand import Ensemble, init_ensemble
from .riskneutral import (
    build_mpr_system,
    price_vol,
    sigma_pi_direct,
    simulate_ensemble,
    solve_mpr,
)
from .pricing import PricingRequest, SmileTable, implied_vol, smile
from .calibration import FitReport, calibrate, parse_messages

__version__ = "0.1.0"

__all__ = [
    "BookVolError",
    "ConfigError",
    "Ensemble",
    "FitError",
    "FitReport",
    "GridError",
    "LimitOrder",
    "MessageEvent",
    "ModelParams",
    "OrderBook",
    "OrderError",
    "ParseError",
    "PricingRequest",
    "SheetConfig",
    "Side",
    "SimulationError",
    "SingularSystemError",
    "SmileTable",
    "Trade",
    "UndefinedInverseError",
    "UnknownOrderError",
    "build_mpr_system",
    "calibrate",
    "demo_params",
    "implied_vol",
    "init_ensemble",
    "load_params",
    "parse_messages",
    "price_vol",
    "replay",
    "save_params",
    "sigma_pi_direct",
    "simulate_ensemble",
    "smile",
    "solve_mpr",
    "__version__",
]

"""Default-supply auction simulation and power-market premium analytics.

The package imports its modules on first use (PEP 562): ``import
powerauctions`` loads none of them, and ``powerauctions.run_descending_clock``
loads only ``auction_engine`` (and the ``market_data`` it needs).
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "activity": ("EventStudyResult", "MeasureSeries", "SignificanceTally",
                 "baseline_mean_excluding", "event_study", "open_interest_series",
                 "r1_series", "r2_series", "significance_tally", "volume_series"),
    "auction_engine": ("AuctionOutcome", "ClockAuctionConfig", "ConstantSupply",
                       "StochasticExit", "StochasticShrink", "ThresholdExit",
                       "run_descending_clock", "settle_cfd"),
    "market_data": ("AuctionError", "AuctionRecord", "CostComponents", "DeliveryPeriod",
                    "FuturesContractSeries", "MarketDataError", "MarketZone",
                    "SpotPriceSeries", "average_price", "load_auctions_csv", "load_costs_csv",
                    "load_futures_csv", "load_spot_csv_multi"),
    "panel": ("Coefficient", "PanelObservation", "RegressionError", "RegressionResult",
              "fit_pooled_ols", "standardize_by_group", "vol3y"),
    "premiums": ("AggregateReport", "DistributionStats", "FmpiSpec", "MeanComparison",
                 "PremiumRow", "cesur_premium", "distribution_stats", "equality_of_means",
                 "fmpi_premium", "fmpi_strip", "fmpi_weights", "monetary_impact",
                 "pjm_premium", "welch_t", "yearly_aggregate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# what ``from powerauctions import *`` binds: the five modules and their names
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value  # later lookups skip this function
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

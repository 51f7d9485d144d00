"""Default-supply auction simulation and power-market premium analytics."""

__version__ = "0.1.0"

from .activity import (EventStudyResult, MeasureSeries, SignificanceTally,
                       baseline_mean_excluding, event_study,
                       open_interest_series, r1_series, r2_series,
                       significance_tally, volume_series)
from .auction_engine import (AuctionError, AuctionOutcome,
                             ClockAuctionConfig, ConstantSupply,
                             SeasonalPayoutFactors, StochasticExit,
                             StochasticShrink, ThresholdExit,
                             full_requirements_payout, run_descending_clock,
                             settle_cfd)
from .market_data import (AuctionRecord, CostComponents, DeliveryPeriod,
                          FuturesContractSeries, MarketDataError, MarketZone,
                          SpotPriceSeries, average_price, load_auctions_csv,
                          load_costs_csv, load_futures_csv, load_spot_csv,
                          load_spot_csv_multi)
from .panel import (Coefficient, PanelObservation, RegressionError,
                    RegressionResult, fit_pooled_ols, standardize_by_group,
                    vol3y)
from .premiums import (AggregateReport, DistributionStats, FmpiSpec,
                       MeanComparison, PremiumRow, cesur_premium,
                       distribution_stats, equality_of_means, fmpi_premium,
                       fmpi_strip, fmpi_weights, monetary_impact, pjm_premium,
                       welch_t, yearly_aggregate)

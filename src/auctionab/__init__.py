"""Counterfactual revenue and welfare estimation for rank-by-bid position
auctions: estimate what a candidate auction would earn from equilibrium bids
observed under a different auction, with matching theoretical error bounds,
a revenue comparator, and a Monte Carlo validation harness.
"""

from .alloc import (
    AllocationRule,
    DegenerateRuleError,
    MarginalWeights,
    Mixture,
    MultiUnit,
    Position,
    PositionWeights,
    marginal_weights,
    max_slope,
    mixture,
    parse_rule,
    uniform_stair,
    uniform_stair_weights,
    universal_b,
    weights_from_marginals,
)
from .dist import (
    Beta22,
    QuantileGrid,
    Uniform01,
    ValueDistribution,
    expected_value,
    make_distribution,
    true_revenue,
    true_welfare,
)
from .equil import (
    ALL_PAY,
    FIRST_PRICE,
    BidCurve,
    BidSample,
    allpay_bid_curve,
    bid_curve,
    firstprice_bid_curve,
    invert,
    read_bid_csv,
    sample_bids,
    write_bid_csv,
)
from .estim import (
    DegenerateSourceError,
    EstimateReport,
    estimate,
    estimate_revenue,
    estimate_welfare,
)
from .bounds import (
    BoundInputs,
    bound_allpay_k,
    bound_bias,
    bound_classifier,
    bound_expected_value,
    bound_general_y,
    bound_ideal_ab,
    bound_mixture,
    bound_universal,
    bound_welfare,
    normalized_table_bound,
)
from .abtest import best_of_r, compare_revenues
from .harness import (
    ExperimentSpec,
    MadResult,
    design_rules,
    epsilon_sweep,
    run_design,
)
from .cli import cli_main

__version__ = "0.1.0"

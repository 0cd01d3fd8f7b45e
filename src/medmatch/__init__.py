"""Two-sided categorized patient-doctor matching toolkit."""

from .market import (
    DOCTOR,
    FULL,
    PARTIAL,
    PATIENT,
    AgentId,
    CategoryMarket,
    InvalidMarketError,
    Market,
    MarketFormatError,
    category_from_rankings,
    generate_random_market,
    load_market,
    market_from_rankings,
    store_market,
    validate_market,
)
from .mechanisms import Matching, TraceStats, ramhecs, tomhecs
from .oracle import (
    BlockingPair,
    TruthfulnessReport,
    check_requesting_party_optimal,
    check_truthfulness_exhaustive,
    enumerate_stable_matchings,
    find_blocking_pairs,
    is_stable,
)
from .metrics import eta_zeta
from .analytics import (
    EstimateResult,
    PerturbationSpec,
    estimate_first_pick_distance,
    estimate_total_distance,
    perturb_preferences,
    simulate_geometric_rejections,
)
from .harness import ExperimentConfig, emit, run_experiment, summarize

__version__ = "0.1.0"

"""Two-sided categorized patient-doctor matching toolkit.

Each public name is imported from its module on first use (PEP 562), so
`import medmatch` loads no submodule and a `match` command pays at start-up
only for the modules it runs.
"""

import importlib

_EXPORTS = {
    "market": (
        "DOCTOR",
        "FULL",
        "PARTIAL",
        "PATIENT",
        "AgentId",
        "CategoryMarket",
        "InvalidMarketError",
        "Market",
        "MarketFormatError",
        "category_from_rankings",
        "generate_random_market",
        "load_market",
        "market_from_rankings",
        "perturb_preferences",
        "store_market",
        "validate_market",
    ),
    "mechanisms": ("Matching", "TraceStats", "ramhecs", "tomhecs"),
    "oracle": (
        "BlockingPair",
        "TruthfulnessReport",
        "check_requesting_party_optimal",
        "check_truthfulness_exhaustive",
        "enumerate_stable_matchings",
        "find_blocking_pairs",
        "is_stable",
    ),
    "metrics": ("eta_zeta",),
    "analytics": (
        "EstimateResult",
        "estimate_first_pick_distance",
        "estimate_total_distance",
        "simulate_geometric_rejections",
    ),
    "harness": ("ExperimentConfig", "emit", "run_experiment", "summarize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})

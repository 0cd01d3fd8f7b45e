"""Command line entry point.

Subcommands:
  match run --config cfg.json [overrides]      experiment grid -> CSV/JSON
  match check stability|optimality|truthfulness --market m.json [--side ...]
  match analytics lemma4|lemma5|lemma6 --n N --trials T [--seed S] [--p P]

Exit codes: 0 success, 1 validation/check failure, 2 I/O error or an
argparse usage error (say `match run` with no --config, or --reps two),
3 check refused (an instance outside the misreport sweep's guards: rosters
too large, or partial lists). Stability and optimality are checked at any
roster size.

Each command imports the modules it runs when it runs: start-up counts in a
command's wall time, and `match check` needs neither the harness nor the
estimators.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .market import FORMATS, PATIENT, PRESET_PROBABILITIES, SIDES, CheckRefused, load_market


def _add_run(subparsers):
    p = subparsers.add_parser("run", help="run the experiment grid from a config file")
    p.add_argument("--config", required=True, help="JSON config file")
    # Each flag's dest is the config field it sets; a flag not given is None.
    p.add_argument("--seed")
    p.add_argument("--mechanism", dest="mechanisms", metavar="MECHANISM", action="append")
    p.add_argument("--side", dest="proposing_side", choices=SIDES)
    p.add_argument("--variation", dest="presets", action="append",
                   choices=tuple(PRESET_PROBABILITIES))
    p.add_argument("--reps", dest="repetitions", metavar="REPS", type=int)
    # An empty --out is not given: the config's out stands.
    p.add_argument("--out", type=lambda path: path or None)
    p.add_argument("--format", dest="fmt", choices=FORMATS)
    p.set_defaults(func=cmd_run)


def _add_check(subparsers):
    p = subparsers.add_parser("check", help="verify mechanism properties on a market")
    p.add_argument("property", choices=("stability", "optimality", "truthfulness"))
    p.add_argument("--market", required=True, help="market JSON file")
    p.add_argument("--side", choices=SIDES, default=PATIENT)
    p.set_defaults(func=cmd_check)


def _add_analytics(subparsers):
    p = subparsers.add_parser("analytics", help="Monte Carlo expectation estimators")
    p.add_argument("model", choices=("lemma4", "lemma5", "lemma6"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5,
                   help="per-step rejection probability (lemma6)")
    p.add_argument("--agents", type=int, default=1,
                   help="number of agents totalled (lemma6)")
    p.set_defaults(func=cmd_analytics)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `match` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="match",
        description="Two-sided categorized patient-doctor matching toolkit.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run(subparsers)
    _add_check(subparsers)
    _add_analytics(subparsers)
    return parser


def cmd_run(args) -> int:
    from . import harness

    with open(args.config, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise harness.ConfigError(
                "invalid config JSON: document is nested too deeply"
            ) from None
        except UnicodeDecodeError as exc:
            raise harness.ConfigError(f"config {args.config} is not UTF-8 text: {exc}") from exc
        except ValueError as exc:
            # JSONDecodeError, or an integer past the digit limit.
            raise harness.ConfigError(f"invalid config JSON: {exc}") from exc
    config = harness.ExperimentConfig.from_dict(doc)
    for name, value in vars(args).items():
        if value is not None and name in vars(config):
            setattr(config, name, tuple(value) if type(value) is list else value)
    out = config.out or "results.csv"
    result = harness.run_experiment(config)
    harness.emit(result.rows, config.fmt, out)
    if config.save_matchings:
        side_path = out + ".matchings.json"
        harness.write_atomic(
            side_path, json.dumps(harness.matchings_to_jsonable(result.matchings), indent=2)
        )
        print(f"matchings: {side_path}")
    print(f"wrote {len(result.rows)} rows to {out}")
    for key, stats in sorted(harness.summarize(result.rows).items()):
        mechanism, preset, side = key
        print(
            f"{mechanism:8s} {preset:7s} {side:7s} "
            f"eta {stats['eta_mean']:.2f}+/-{stats['eta_std']:.2f} "
            f"zeta {stats['zeta_mean']:.2f}+/-{stats['zeta_std']:.2f}"
        )
    return 0


def cmd_check(args) -> int:
    from . import mechanisms, oracle

    with open(args.market, "rb") as handle:
        market = load_market(handle.read())
    if args.property != "truthfulness":
        # load_market has validated the market; the sweep runs its own.
        matching, _ = mechanisms.run_categories(market, mechanisms.TOMHECS, args.side)
    failed = False
    if args.property == "stability":
        for cm in market.categories:
            pairs = oracle.find_blocking_pairs(cm, matching)
            status = "stable" if not pairs else f"{len(pairs)} blocking pair(s)"
            print(f"category {cm.category}: {status}")
            failed = failed or bool(pairs)
    elif args.property == "optimality":
        for cm in market.categories:
            ok = oracle.check_requesting_party_optimal(cm, matching, args.side)
            print(f"category {cm.category}: {'optimal' if ok else 'NOT optimal'}")
            failed = failed or not ok
    else:
        for cm in market.categories:
            reports = oracle.check_truthfulness_exhaustive(cm, args.side)
            bad = [r for r in reports if r.violations]
            tried = sum(r.misreports_tried for r in reports)
            print(
                f"category {cm.category}: {tried} misreports tried, "
                f"{len(bad)} agent(s) with strict improvements"
            )
            failed = failed or bool(bad)
    return 1 if failed else 0


def cmd_analytics(args) -> int:
    from . import analytics

    n = args.n
    if args.model == "lemma4":
        result = analytics.estimate_first_pick_distance(n, args.trials, args.seed)
        references = {"(n-1)/2": (n - 1) / 2}
    elif args.model == "lemma5":
        result = analytics.estimate_total_distance(n, args.trials, args.seed)
        # The exact mean, and the paper's lower bound.
        references = {"n(n-1)/2": n * (n - 1) / 2, "n^2/16 lower bound": n * n / 16}
    else:
        result = analytics.simulate_geometric_rejections(
            args.p, n, args.trials, args.seed, args.agents
        )
        references = {"agents/(1-p)": args.agents / (1 - args.p)}
    print(
        f"mean {result.mean:.4f} +/- {result.std_error:.4f} ({result.trials} trials)",
        *(f"{label} = {value:.4f}" for label, value in references.items()),
        sep="; ",
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # CheckRefused, MarketFormatError, InvalidMarketError and ConfigError
    # are ValueErrors.
    try:
        return args.func(args)
    except CheckRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Workloads, closed-loop measurement and the correctness gate.

This is the process that imports medmatch. `run.py` starts it once for
the measured run (`measure`), which starts it once per set-up sample
(`setup`):

    python3 perfbench/bench.py measure --workload W --seed S --workdir D
                                       --seconds T --trace 0|1
    python3 perfbench/bench.py setup   --workload W --seed S --workdir D
    python3 perfbench/bench.py record  --workload W

`measure` prints its report, ending with the JSON result line. `record`
rewrites the workload's expected output digests in digests.json; run it only
when a change to the output bytes is intended.

An op is one `match` command, run in-process through medmatch.cli.main
with stdout captured; the next op starts when the previous one returns
(one client, closed loop, no threads).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
# Set-up is timed this many times per run, in fresh processes: once before
# the first op and then at even steps of op time, so that the median set-up
# time spans the same stretch of machine speed as the run's ops_per_s.
SETUP_SAMPLES = 8

# Columns of `match run` CSV output, as documented in the README.
CSV_COLUMNS = [
    "rep", "category", "mechanism", "preset", "deviating_party", "measured_side",
    "eta", "zeta", "proposals", "rejections", "matched_count",
]
MECHANISMS = ["ramhecs", "tomhecs"]
SIDES = ["patient", "doctor"]

# Inputs repeat so that every op's output is checked against a recorded
# digest: seed S uses the inputs of seed S % RECORDED_SEEDS, and op i those
# of op i % window. `window` is also the number of ops every run completes,
# however long they take. Per-layer counts are taken over exactly these ops,
# so they repeat exactly between runs of one seed.
RECORDED_SEEDS = 21
WORKLOADS = {
    # The paper's experiment: 80 tiny categories per op, so per-object
    # overhead (validation, scoring, rows, emit, perturbation) dominates.
    "paper_grid": {
        "config": {"k": 10, "n_patients": 20, "n_doctors": 20,
                   "presets": ["none", "small", "medium", "large"]},
        "window": 30,
    },
    # One big category: generation, validation, rank tables and the
    # mechanisms' scans are O(n^2); emit and cli cost next to nothing.
    "scale_full": {
        "config": {"k": 1, "n_patients": 1024, "n_doctors": 1024,
                   "presets": ["none"]},
        "window": 2,
    },
    # Verification traffic: markets enter through load_market, mechanisms run
    # as thousands of tiny calls, harness and emit do no work.
    "oracle_check": {"window": 30},
}
for _spec in WORKLOADS.values():
    if "config" in _spec:
        _spec["config"].update(
            mechanisms=MECHANISMS, measured_sides=SIDES, repetitions=1
        )

# oracle_check op i checks CHECKS[i % 3] on stored market (i // 3) % POOL with
# proposing side SIDES[(i // 3) % 2]. POOL is odd so each market is checked
# from both sides; one window (30 ops) covers every (check, market, side).
POOL = 5
CHECKS = [
    # (property, roster size n = m, list length or None for full lists)
    ("stability", 256, 32),
    ("optimality", 7, None),
    ("truthfulness", 5, None),
]
# Expected `match check` stdout for the single category of each market.
CHECK_OUTPUT = {
    "stability": "category 0: stable\n",
    "optimality": "category 0: optimal\n",
    # 5 proposers, each trying the 5! - 1 misreports of its list.
    "truthfulness": "category 0: 595 misreports tried, 0 agent(s) with strict improvements\n",
}


# ---------------------------------------------------------------- inputs

def import_medmatch():
    """Import medmatch from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import medmatch.cli

    origin = Path(medmatch.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"medmatch imported from {origin}, not from {SRC}")
    return medmatch.cli


def input_seed(seed: int) -> int:
    return seed % RECORDED_SEEDS


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the inputs of `seed` (an input seed, below RECORDED_SEEDS)."""
    spec = WORKLOADS[workload]
    if "config" in spec:
        (workdir / "config.json").write_text(json.dumps(spec["config"]))
        return
    from medmatch.market import generate_random_market, store_market

    for prop, n, list_length in CHECKS:
        for j in range(POOL):
            market = generate_random_market(
                1, n, n, list_length, seed=f"{seed}:{prop}:{j}"
            )
            (workdir / f"{prop}-{j}.json").write_bytes(store_market(market))


def op_argv(workload: str, seed: int, i: int) -> list[str]:
    """The argv of op i on the inputs of input seed `seed`."""
    if workload == "oracle_check":
        prop = CHECKS[i % 3][0]
        j = (i // 3) % POOL
        side = SIDES[(i // 3) % 2]
        return ["check", prop, "--market", f"{prop}-{j}.json", "--side", side]
    window = WORKLOADS[workload]["window"]
    return ["run", "--config", "config.json", "--seed", f"{seed}:{i % window}",
            "--out", f"op-{i:05d}.csv"]


def run_op(main, argv: list[str]) -> tuple[object, str]:
    """Run one command; return (exit status or error text, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a raising op is a failed op, not a crash
            status = f"raised {type(exc).__name__}: {exc}"
    return status, out.getvalue()


# ------------------------------------------------------- correctness gate

def op_payload(workload: str, i: int, workdir: Path) -> bytes:
    """The bytes an op wrote besides stdout: the CSV of a `match run`."""
    if workload == "oracle_check":
        return b""
    path = workdir / f"op-{i:05d}.csv"
    return path.read_bytes() if path.exists() else b""


def op_digest(workload: str, stdout: str, payload: bytes) -> str:
    """Digest of an op's stdout and CSV. The first stdout line of a `match
    run` names the op's own CSV file, so it is left out; check_structure
    checks it exactly."""
    if workload != "oracle_check":
        stdout = stdout.partition("\n")[2]
    return hashlib.sha256(stdout.encode() + b"\0" + payload).hexdigest()


def check_op(workload: str, i: int, status, stdout: str, payload: bytes,
             expected_digest: str | None) -> str | None:
    """Return why op i's output is wrong, or None when it is correct.
    An op with no recorded digest is wrong: it cannot be checked."""
    reason = check_structure(workload, i, status, stdout, payload)
    if reason:
        return reason
    if expected_digest is None:
        return "no recorded digest for this op"
    if op_digest(workload, stdout, payload) != expected_digest:
        return "output bytes differ from the recorded digest"
    return None


def check_structure(workload: str, i: int, status, stdout: str,
                    payload: bytes) -> str | None:
    """Return why op i's output does not have the documented form, or None."""
    if status != 0:
        return f"exit status {status!r}"
    if workload == "oracle_check":
        if stdout != CHECK_OUTPUT[CHECKS[i % 3][0]]:
            return f"unexpected output {stdout!r}"
        return None
    return _check_csv(WORKLOADS[workload]["config"], i, stdout, payload)


def _check_csv(config: dict, i: int, stdout: str, payload: bytes) -> str | None:
    k = config["k"]
    expected_rows = k * len(MECHANISMS) * len(config["presets"]) * len(SIDES)
    if stdout.partition("\n")[0] != f"wrote {expected_rows} rows to op-{i:05d}.csv":
        return f"unexpected summary {stdout[:80]!r}"
    try:
        rows = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return f"unreadable CSV: {exc}"
    if not rows or rows[0] != CSV_COLUMNS:
        return "CSV header differs from the documented columns"
    if len(rows) - 1 != expected_rows:
        return f"{len(rows) - 1} CSV rows, expected {expected_rows}"
    for row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            return f"CSV row with {len(row)} fields"
        record = dict(zip(CSV_COLUMNS, row))
        if (record["mechanism"] not in MECHANISMS
                or record["preset"] not in config["presets"]
                or record["measured_side"] not in SIDES):
            return f"CSV row outside the grid: {row}"
        numbers = [record[c] for c in ("rep", "category", "eta", "zeta", "proposals",
                                       "rejections", "matched_count")]
        if not all(x.isdigit() for x in numbers) or int(record["category"]) >= k:
            return f"CSV row with bad numbers: {row}"
    return None


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


# ------------------------------------------------------------- tracing

def _tomhecs_counts(result, args, kwargs):
    pairs, trace = result
    return {"proposals": trace.proposals, "rejections": trace.rejections,
            "rounds": trace.outer_iterations, "matched": len(pairs)}


def _ramhecs_counts(result, args, kwargs):
    _, trace = result
    return {"proposals": trace.proposals,
            "exhausted": trace.outer_iterations - trace.proposals}


def _emit_bytes(result, args, kwargs):
    path = kwargs["path"] if "path" in kwargs else args[2]
    return {"bytes": os.path.getsize(path)}


# (module, name looked up there, layer, counter). Each lookup site of a
# function gets its own wrapper, so every call is timed exactly once.
TRACE_SITES = [
    ("cli", "load_market", "market.load", None),
    ("cli", "tomhecs", "mechanisms.dispatch", None),
    ("harness", "run_experiment", "harness.run",
     lambda result, args, kwargs: {"rows": len(result.rows)}),
    ("harness", "emit", "harness.emit", _emit_bytes),
    ("harness", "summarize", "harness.summarize", None),
    ("harness", "generate_random_market", "market.generate", None),
    ("harness", "perturb_preferences", "analytics.perturb", None),
    ("harness", "run_mechanism", "mechanisms.dispatch", None),
    ("harness", "satisfaction_level", "metrics.eta", None),
    ("harness", "preferable_allocation_count", "metrics.zeta", None),
    ("mechanisms", "validate_market", "market.validate", None),
    ("mechanisms", "ramhecs", "mechanisms.dispatch", None),
    ("mechanisms", "tomhecs", "mechanisms.dispatch", None),
    ("mechanisms", "ramhecs_category", "mechanisms.ramhecs", _ramhecs_counts),
    ("mechanisms", "tomhecs_category", "mechanisms.tomhecs", _tomhecs_counts),
    ("market", "validate_market", "market.validate", None),
    ("oracle", "find_blocking_pairs", "oracle.blocking", None),
    ("oracle", "enumerate_stable_matchings", "oracle.enumerate",
     lambda result, args, kwargs: {"matchings": len(result)}),
    ("oracle", "check_requesting_party_optimal", "oracle.optimality", None),
    ("oracle", "check_truthfulness_exhaustive", "oracle.truthfulness",
     lambda result, args, kwargs: {"misreports": sum(r.misreports_tried for r in result)}),
    ("oracle", "tomhecs_category", "mechanisms.tomhecs", _tomhecs_counts),
]


def install_sites(tracer, sites=TRACE_SITES) -> None:
    for module_name, name, layer, count in sites:
        try:
            module = importlib.import_module(f"medmatch.{module_name}")
        except ImportError:
            tracer.missing.append(f"medmatch.{module_name}.{name}")
            continue
        tracer.install(module, name, layer, count)


# End-to-end metrics of an untraced run, with their units. Op latency
# percentiles are printed but not among them: with one client in a closed
# loop, ops_per_s is the inverse of the mean latency, and on a shared machine
# the median jumps between the modes of a bimodal latency distribution.
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: self time per op over the whole run, counts per op over
# the window. "cli" is the span around medmatch.cli.main itself.
SELF_MS = {
    "market.validate.self_ms": "market.validate",
    "market.generate.self_ms": "market.generate",
    "market.load.self_ms": "market.load",
    "analytics.perturb.self_ms": "analytics.perturb",
    "mechanisms.dispatch.self_ms": "mechanisms.dispatch",
    "mechanisms.tomhecs.self_ms": "mechanisms.tomhecs",
    "mechanisms.ramhecs.self_ms": "mechanisms.ramhecs",
    "metrics.eta.self_ms": "metrics.eta",
    "metrics.zeta.self_ms": "metrics.zeta",
    "harness.run.self_ms": "harness.run",
    "harness.emit.self_ms": "harness.emit",
    "harness.summarize.self_ms": "harness.summarize",
    "cli.self_ms": "cli",
    "oracle.blocking.self_ms": "oracle.blocking",
    "oracle.enumerate.self_ms": "oracle.enumerate",
    "oracle.optimality.self_ms": "oracle.optimality",
    "oracle.truthfulness.self_ms": "oracle.truthfulness",
}
COUNTS = {
    "market.validate.calls": ("market.validate", "calls", "count/op"),
    "mechanisms.tomhecs.calls": ("mechanisms.tomhecs", "calls", "count/op"),
    "mechanisms.tomhecs.proposals": ("mechanisms.tomhecs", "proposals", "count/op"),
    "mechanisms.tomhecs.rejections": ("mechanisms.tomhecs", "rejections", "count/op"),
    "mechanisms.tomhecs.rounds": ("mechanisms.tomhecs", "rounds", "count/op"),
    "mechanisms.ramhecs.calls": ("mechanisms.ramhecs", "calls", "count/op"),
    "mechanisms.ramhecs.proposals": ("mechanisms.ramhecs", "proposals", "count/op"),
    "mechanisms.ramhecs.exhausted": ("mechanisms.ramhecs", "exhausted", "count/op"),
    "harness.rows": ("harness.run", "rows", "count/op"),
    "harness.emit.bytes": ("harness.emit", "bytes", "bytes/op"),
    "oracle.blocking.calls": ("oracle.blocking", "calls", "count/op"),
    "oracle.enumerate.calls": ("oracle.enumerate", "calls", "count/op"),
    "oracle.enumerate.matchings": ("oracle.enumerate", "matchings", "count/op"),
    "oracle.truthfulness.misreports": ("oracle.truthfulness", "misreports", "count/op"),
}


def layer_metrics(tracer, window_counts: dict, ops: int, window: int,
                  ops_per_s: float) -> dict:
    def count(layer, key):
        return window_counts.get(layer, {}).get(key, 0)

    metrics = {}
    for name, layer in SELF_MS.items():
        metrics[name] = {"value": tracer.total(layer, "self_ns") / 1e6 / ops,
                         "unit": "ms/op"}
    for name, (layer, key, unit) in COUNTS.items():
        metrics[name] = {"value": count(layer, key) / window, "unit": unit}
    proposals = count("mechanisms.tomhecs", "proposals")
    metrics["mechanisms.tomhecs.accept_ratio"] = {
        "value": count("mechanisms.tomhecs", "matched") / proposals if proposals else 0.0,
        "unit": "ratio",
    }
    metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    return metrics


# ---------------------------------------------------------- measurement

def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: a record of machine speed,
    never used to rescale a metric."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1000


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def p90_ms(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10)[8] * 1000


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds for one set-up in a fresh process: process start, `import
    medmatch` and writing the op inputs to workdir.

    wait() without a timeout blocks in waitpid, so the time is exact (a wait
    with a timeout polls, in steps of up to 50 ms). A child that hangs is
    killed with this process by run.py's watchdog.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "setup", "--workload",
           workload, "--seed", str(seed), "--workdir", str(workdir)]
    start = time.perf_counter()
    code = subprocess.call(cmd)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"set-up failed with exit code {code}")
    return seconds


def run_loop(main, workload: str, seed: int, seconds: float, tracer=None,
             sample_setup=None):
    """Run ops until `seconds` of op time have passed and the window is
    complete. Each time another seconds / SETUP_SAMPLES of op time has
    passed, sample_setup() times a set-up between two ops; that time is not
    op time."""
    window = WORKLOADS[workload]["window"]
    latencies, results, window_counts = [], [], {}
    step = seconds / SETUP_SAMPLES
    next_sample, paused = step, 0.0
    start = time.perf_counter()
    while True:
        argv = op_argv(workload, seed, len(results))
        t0 = time.perf_counter()
        status, stdout = run_op(main, argv)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        results.append((status, stdout))
        if tracer is not None and len(results) == window:
            window_counts = {layer: dict(record) for layer, record in tracer.layers.items()}
        elapsed = t1 - start - paused
        if len(results) >= window and elapsed >= seconds:
            return latencies, results, window_counts, elapsed
        if sample_setup is not None and elapsed >= next_sample:
            t2 = time.perf_counter()
            sample_setup()
            paused += time.perf_counter() - t2
            next_sample += step


def measure(args) -> int:
    cli = import_medmatch()
    workdir = Path(args.workdir).resolve()
    # The first set-up writes the inputs the ops read; later ones write to
    # scratch directories.
    setup_samples = [time_setup(args.workload, args.seed, workdir)]

    def sample_setup():
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            setup_samples.append(time_setup(args.workload, args.seed, Path(tmp)))

    os.chdir(workdir)
    window = WORKLOADS[args.workload]["window"]
    seed = input_seed(args.seed)
    expected = load_digests().get(args.workload, {}).get(str(seed), [])
    calib_before = calibrate()

    tracer = None
    main = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_sites(tracer)
        main = tracer.wrap("cli", cli.main)
    try:
        latencies, results, window_counts, elapsed = run_loop(
            main, args.workload, seed, args.seconds, tracer, sample_setup
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup_samples) < SETUP_SAMPLES:
        sample_setup()
    setup_s = statistics.median(setup_samples)
    calib_after = calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Correctness gate, outside the timed region.
    failures = []
    for i, (status, stdout) in enumerate(results):
        reason = check_op(args.workload, i, status, stdout,
                          op_payload(args.workload, i, workdir),
                          expected[i % window] if i % window < len(expected) else None)
        if reason:
            failures.append((i, reason))
    ops = len(results)
    op_p50_ms = statistics.median(latencies) * 1000

    machine = machine_record()
    print(f"workload {args.workload} seed {args.seed} (inputs of seed {seed}) "
          f"trace {args.trace} ops {ops} in {elapsed:.3f} s")
    print(f"machine nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"python={machine['python']} numpy={machine['numpy']} "
          f"calib_ms={calib_before:.1f}/{calib_after:.1f}")
    for i, reason in failures[:10]:
        print(f"failed op {i}: {reason}")

    if tracer is None:
        values = {"ops_per_s": ops / elapsed, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, m in metrics.items():
            n = {"setup_s": len(setup_samples), "peak_rss_mb": 1}.get(name, ops)
            print(f"{name} {m['value']:.6g} {m['unit']} (n={n})")
        print(f"op_p50_ms {op_p50_ms:.6g} ms (n={ops})")
        if ops >= 100:
            print(f"op_p90_ms {p90_ms(latencies):.6g} ms (n={ops})")
        else:
            print(f"op_p90_ms undefined: {ops} ops < 100")
    else:
        metrics = layer_metrics(tracer, window_counts, ops, window, ops / elapsed)
        shares = {name: metrics[name]["value"] for name in SELF_MS}
        total_ms = sum(shares.values())
        for name, m in metrics.items():
            share = (f" ({100 * shares[name] / total_ms:.1f}% of traced self time)"
                     if name in shares and total_ms else "")
            print(f"{name} {m['value']:.6g} {m['unit']}{share}")
        if tracer.missing:
            print(f"missing trace sites (zero calls): {', '.join(tracer.missing)}")
    print(f"fail_ratio {len(failures) / ops:.6g} ({len(failures)}/{ops})")
    print("setup samples (s): " + ", ".join(f"{x:.4f}" for x in setup_samples))

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": ops, "elapsed_s": elapsed, "op_p50_ms": op_p50_ms,
        "setup_samples_s": setup_samples,
        "machine": machine, "calib_ms": [calib_before, calib_after],
        "window_counts": window_counts,
        "missing_sites": tracer.missing if tracer else [],
        "count_errors": tracer.count_errors if tracer else 0,
    }
    if ops >= 100:
        detail["op_p90_ms"] = p90_ms(latencies)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": ops,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def setup(args) -> int:
    import_medmatch()
    write_inputs(args.workload, input_seed(args.seed), Path(args.workdir))
    return 0


def record(args) -> int:
    """Record the window digests of every input seed."""
    cli = import_medmatch()
    data = load_digests()
    window = WORKLOADS[args.workload]["window"]
    home = os.getcwd()
    (HERE / ".work").mkdir(exist_ok=True)
    for seed in range(RECORDED_SEEDS):
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
            workdir = Path(tmp)
            write_inputs(args.workload, seed, workdir)
            os.chdir(workdir)
            digests = []
            for i in range(window):
                status, stdout = run_op(cli.main, op_argv(args.workload, seed, i))
                payload = op_payload(args.workload, i, workdir)
                reason = check_structure(args.workload, i, status, stdout, payload)
                if reason:
                    raise SystemExit(f"seed {seed} op {i}: {reason}")
                digests.append(op_digest(args.workload, stdout, payload))
            os.chdir(home)
        data.setdefault(args.workload, {})[str(seed)] = digests
        print(f"{args.workload} seed {seed}: {window} digests", flush=True)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure", "record"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    return {"setup": setup, "measure": measure, "record": record}[args.phase](args)


if __name__ == "__main__":
    sys.exit(main())

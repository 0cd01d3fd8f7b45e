"""Self-tests of the benchmark: run with `python3 -m pytest perfbench -q`."""

import json
import os
import sys
import time
import types

import pytest

import bench
import run
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 3

    def outer():
        clock.now += 5
        traced_inner()
        clock.now += 2
        traced_inner()
        clock.now += 1

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    assert tracer.total("outer", "calls") == 1
    assert tracer.total("outer", "self_ns") == 14 - 6
    assert tracer.total("inner", "calls") == 2
    assert tracer.total("inner", "self_ns") == 6


def test_raising_span_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.now += 4
        raise ValueError("boom")

    traced_failing = tracer.wrap("child", failing)

    def parent():
        clock.now += 1
        with pytest.raises(ValueError):
            traced_failing()

    tracer.wrap("parent", parent)()
    assert tracer.total("child", "self_ns") == 4
    assert tracer.total("parent", "self_ns") == 1


def test_missing_name_reports_zero_calls():
    module = types.ModuleType("refactored")
    module.kept = lambda: (None, None)
    tracer = Tracer()
    tracer.install(module, "removed", "gone")
    tracer.install(module, "kept", "kept")
    bench.install_sites(tracer, sites=[("no_such_module", "f", "gone", None)])
    assert tracer.missing == ["refactored.removed", "medmatch.no_such_module.f"]
    module.kept()
    metrics = bench.layer_metrics(tracer, {}, ops=1, window=1, ops_per_s=1.0)
    assert metrics["market.validate.calls"]["value"] == 0
    assert metrics["mechanisms.tomhecs.accept_ratio"]["value"] == 0
    assert tracer.total("kept", "calls") == 1
    tracer.uninstall()
    assert not hasattr(module, "removed")


def test_counter_that_no_longer_fits_is_skipped():
    tracer = Tracer()
    traced = tracer.wrap("mechanisms.tomhecs", lambda: "new shape", bench._tomhecs_counts)
    assert traced() == "new shape"
    assert tracer.count_errors == 1
    assert tracer.total("mechanisms.tomhecs", "calls") == 1


@pytest.fixture(scope="module")
def cli():
    return bench.import_medmatch()


def _run_window(cli, workload, workdir, ops, tracer=None):
    bench.write_inputs(workload, 0, workdir)
    main = cli.main
    if tracer is not None:
        bench.install_sites(tracer)
        main = tracer.wrap("cli", cli.main)
    try:
        outputs = []
        for i in range(ops):
            status, stdout = bench.run_op(main, bench.op_argv(workload, 0, i))
            outputs.append((status, stdout, bench.op_payload(workload, i, workdir)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs


def test_gate_rejects_tampered_run_output(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    [(status, stdout, payload)] = _run_window(cli, "paper_grid", tmp_path, 1)
    digest = bench.load_digests()["paper_grid"]["0"][0]
    assert bench.op_digest("paper_grid", stdout, payload) == digest
    assert bench.check_op("paper_grid", 0, status, stdout, payload, digest) is None

    header, first, *rest = payload.decode().splitlines(keepends=True)
    fields = first.split(",")
    fields[6] = str(int(fields[6]) + 1)  # eta
    tampered = (header + ",".join(fields) + "".join(rest)).encode()
    assert bench.check_structure("paper_grid", 0, status, stdout, tampered) is None
    assert "digest" in bench.check_op("paper_grid", 0, status, stdout, tampered, digest)
    summary = stdout.replace("eta ", "eta 1", 1)  # the summary table on stdout
    assert "digest" in bench.check_op("paper_grid", 0, status, summary, payload, digest)
    assert "no recorded digest" in bench.check_op("paper_grid", 0, status, stdout,
                                                  payload, None)

    short = (header + "".join(rest)).encode()
    assert "rows" in bench.check_structure("paper_grid", 0, status, stdout, short)
    renamed = payload.replace(b"matched_count", b"matched", 1)
    assert "header" in bench.check_structure("paper_grid", 0, status, stdout, renamed)
    assert "exit" in bench.check_structure("paper_grid", 0, 1, stdout, payload)


def test_every_op_has_a_recorded_digest(cli, tmp_path, monkeypatch):
    digests = bench.load_digests()
    for workload, spec in bench.WORKLOADS.items():
        assert sorted(map(int, digests[workload])) == list(range(bench.RECORDED_SEEDS))
        assert all(len(d) == spec["window"] for d in digests[workload].values())
    assert bench.input_seed(bench.RECORDED_SEEDS + 4) == 4

    # Op window + 1 repeats the inputs of op 1 under its own file name.
    monkeypatch.chdir(tmp_path)
    bench.write_inputs("paper_grid", 4, tmp_path)
    window = bench.WORKLOADS["paper_grid"]["window"]
    status, stdout = bench.run_op(cli.main, bench.op_argv("paper_grid", 4, window + 1))
    payload = bench.op_payload("paper_grid", window + 1, tmp_path)
    assert bench.check_op("paper_grid", window + 1, status, stdout, payload,
                          digests["paper_grid"]["4"][1]) is None


def test_gate_rejects_wrong_check_verdict():
    ok = "category 0: stable\n"
    assert bench.check_structure("oracle_check", 0, 0, ok, b"") is None
    assert bench.check_structure("oracle_check", 0, 0, "category 0: 1 blocking pair(s)\n",
                                 b"")
    assert bench.check_structure("oracle_check", 1, 0, ok, b"")  # op 1 is optimality


def test_tracing_keeps_outputs_and_counts_repeat(cli, tmp_path, monkeypatch):
    for workload in ("paper_grid", "oracle_check"):
        runs = []
        for name in ("plain", "traced", "traced_again"):
            workdir = tmp_path / f"{workload}-{name}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            tracer = None if name == "plain" else Tracer()
            outputs = _run_window(cli, workload, workdir, 6, tracer)
            counts = {layer: {k: v for k, v in record.items() if k != "self_ns"}
                      for layer, record in tracer.layers.items()} if tracer else None
            runs.append((outputs, counts))
        (plain, _), (traced, counts), (again, counts_again) = runs
        assert plain == traced == again
        assert all(status == 0 for status, _, _ in plain)
        assert counts == counts_again


def test_metric_names_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    layers = bench.layer_metrics(Tracer(), {}, ops=1, window=1, ops_per_s=1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in layers.items()}
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_setup_samples_span_the_run_and_are_not_op_time():
    def main(argv):
        time.sleep(0.01)
        return 0

    calls = []

    def sample_setup():
        calls.append(time.perf_counter())
        time.sleep(0.05)

    start = time.perf_counter()
    latencies, results, _, elapsed = bench.run_loop(
        main, "oracle_check", 0, 0.4, sample_setup=sample_setup)
    wall = time.perf_counter() - start
    assert len(calls) == bench.SETUP_SAMPLES - 1
    assert calls[0] - start < 0.2 < calls[-1] - start
    assert elapsed == pytest.approx(wall - 0.05 * len(calls), abs=0.03)
    assert len(results) >= bench.WORKLOADS["oracle_check"]["window"]


def test_watchdog_stops_a_hung_child():
    code, seconds = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], dict(os.environ), 0.5
    )
    assert code != 0
    assert seconds < 10

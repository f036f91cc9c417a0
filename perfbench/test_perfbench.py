"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Campaign

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.p50(values) == 50.5
    assert run.p90(values) == pytest.approx(90.1)
    # with 100 samples, ten lie beyond the 90th percentile
    assert sum(v > run.p90(values) for v in values) == 10


def test_digest_ignores_time_ms_only():
    a = b'{"checks": [{"id": "x", "time_ms": 12}]}'
    b = b'{"checks": [{"id": "x", "time_ms": 345}]}'
    c = b'{"checks": [{"id": "y", "time_ms": 12}]}'
    assert run.report_digest(a) == run.report_digest(b)
    assert run.report_digest(a) != run.report_digest(c)


def test_timings_scale_with_reference_speed():
    c = Campaign("x", "kff", {}, 3)
    report = {"checks": [{"id": str(i), "time_ms": 10 * i} for i in range(3)]}
    passes = [[run.Run(c, 4.0, 30.0, 0, report, None, None)]]
    slow = run.Timing([0.4], [2 * run.REFERENCE_S])  # host at half speed
    m = run.end_to_end(passes, slow)
    assert m["wall_s"][0] == 2.0 and m["setup_s"][0] == 0.2
    assert m["check_ms_p50"][0] == 5.0
    assert m["peak_rss_mb"][0] == 30.0


def test_crashed_campaign_counts_all_its_checks_as_failed(tmp_path):
    # p = 3 divides |S3'| = 3: run_annihilate_check raises outside any
    # check, so the process dies without writing a report
    crash = Campaign("crash", "annihilate-check",
                     {"cases": [["S3", 3]], "trials": 4}, 4)
    ok = Campaign("kff", "kff", {"q_max": 3, "d_max": 1, "r_max": 2}, 4)
    runs = [run.run_campaign(c, 0, tmp_path, traced=False) for c in (crash, ok)]
    assert runs[0].exit_code != 0 and runs[0].report is None
    attempted, failed, problems = run.check_runs([runs])
    assert (attempted, failed) == (8, 4)
    assert any(p.startswith("crash: no report") for p in problems)
    assert not any(p.startswith("kff") for p in problems)


def test_traced_counts_repeat_and_reports_match(tmp_path):
    c = Campaign("gross", "gross-check", {"f_max": 6, "r_max": 2, "S": [7]}, 12)
    passes = [[run.run_campaign(c, 0, tmp_path, traced=t)] for t in (False, True, True)]
    _, failed, problems = run.check_runs(passes)
    assert failed == 0 and problems == []
    assert run.check_trace_counts(passes[1:]) == []
    calls = passes[1][0].trace["calls"]
    assert calls["lseries.l_value_exact"] > 0
    assert run.missing_targets(passes[1:]) == []


def test_self_check_rejects_a_stale_binding():
    # skip the rebinding step: cli and fitting still hold the originals
    # they imported by name, and install() must refuse to trace
    code = ("import layertrace; layertrace.Tracer._rebind = lambda self: None; "
            "layertrace.Tracer().install()")
    done = subprocess.run([sys.executable, "-c", code], env=run._child_env(),
                          cwd=Path(run.HERE), capture_output=True, text=True)
    assert done.returncode != 0
    assert "unwrapped trace targets" in done.stderr
    assert "equivlk.cli.adjoint_and_norm" in done.stderr


def test_metric_names_match_benchmark_json():
    fake = {"calls": {}, "incl_s": {}, "self_s": {}, "extra": {},
            "campaign_s": 1.0, "report_s": 0.1}
    c = Campaign("x", "kff", {}, 1)
    traced = [[run.Run(c, 2.0, 1.0, 0, None, None, fake)]] * 2
    untraced = [run.Run(c, 1.0, 1.0, 0, None, None, None)]
    layer = run.per_layer(untraced, traced)
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {k: u for k, (_, u) in layer.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    report = {"checks": [{"id": str(i), "time_ms": i} for i in range(3)]}
    e2e = run.end_to_end([[run.Run(c, 1.0, 1.0, 0, report, None, None)]],
                         run.Timing([0.2], [run.REFERENCE_S]))
    assert {k: u for k, (_, u) in e2e.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_seeded(name):
    make = WORKLOADS[name]
    assert make(5) == make(5)
    assert sum(c.expected for c in make(5)) >= 100

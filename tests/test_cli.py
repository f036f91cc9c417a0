import json
import re

import pytest

from equivlk.cli import SUBCOMMANDS, Checks, main, make_report


def run_report(subcommand, config, seed=0, bits=128):
    checks = SUBCOMMANDS[subcommand](config, seed, bits)
    return make_report(subcommand, seed, bits, config, checks)


def strip_times(text):
    return re.sub(r'"time_ms": \d+', '"time_ms": 0', text)


def test_all_subcommands_registered():
    assert sorted(SUBCOMMANDS) == [
        "adjoint-verify", "annihilate-check", "char-table",
        "denominator-probe", "fitt", "gross-check", "kff", "lvalue",
        "nrd", "pi-ratio", "stickelberger", "verify-fe"]


def test_char_table_report():
    rep = run_report("char-table", {"group": "S3"})
    assert rep["summary"] == {"total": 1, "pass": 1, "fail": 0, "info": 0}
    payload = rep["checks"][0]["witness"]
    assert sorted(c["degree"] for c in payload["characters"]) == [1, 1, 2]


def test_adjoint_small_campaign():
    rep = run_report("adjoint-verify", {"groups": ["C3", "S3"], "n_max": 2,
                                        "trials": 6}, seed=2)
    assert rep["summary"]["fail"] == 0
    assert rep["summary"]["total"] == 6


def test_nrd_campaign():
    rep = run_report("nrd", {"group": "S3", "n": 1, "trials": 4}, seed=1)
    assert rep["summary"]["fail"] == 0


def test_pi_ratio_report_content():
    rep = run_report("pi-ratio", {"r": [2], "n_max": 1})
    by_id = {r["id"]: r for r in rep["checks"]}
    assert by_id["pi-ratio/r2-complex-np1-nm0"]["witness"]["rational"] == "-1/8"
    assert rep["summary"]["fail"] == 0


def test_kff_report():
    rep = run_report("kff", {"q_max": 4, "d_max": 2, "r_max": 2})
    assert rep["summary"]["fail"] == 0
    assert all(r["verdict"] == "pass" for r in rep["checks"])


def test_stickelberger_report():
    rep = run_report("stickelberger", {"f_max": 7, "r_max": 2})
    assert rep["summary"]["fail"] == 0


def test_gross_report():
    rep = run_report("gross-check", {"f_max": 8, "r_max": 2})
    assert rep["summary"]["fail"] == 0


def test_reports_sorted_and_reproducible():
    cfg = {"groups": ["S3"], "n_max": 2, "trials": 5}
    rep1 = run_report("adjoint-verify", cfg, seed=9)
    rep2 = run_report("adjoint-verify", cfg, seed=9)
    ids = [r["id"] for r in rep1["checks"]]
    assert ids == sorted(ids)
    assert strip_times(json.dumps(rep1, sort_keys=True)) == \
        strip_times(json.dumps(rep2, sort_keys=True))
    rep3 = run_report("adjoint-verify", cfg, seed=10)
    assert strip_times(json.dumps(rep1, sort_keys=True)) != \
        strip_times(json.dumps(rep3, sort_keys=True))


def test_kff_rejects_a_false_annihilator(monkeypatch):
    # x - 1 does not kill K_1(F_9) = Z/8, where x acts as 3; the verdict
    # comes from the Smith form, the witness stays {order, invariant_factors}
    from equivlk import stickelberger

    monkeypatch.setattr(stickelberger, "easy_annihilators",
                        lambda q, d, r: [[-1, 1]])
    rep = run_report("kff", {"q_max": 3, "d_max": 2, "r_max": 1})
    by_id = {r["id"]: r for r in rep["checks"]}
    assert by_id["kff/q3-d2-r1"]["verdict"] == "fail"
    assert by_id["kff/q3-d2-r1"]["witness"] == {"order": 8,
                                                "invariant_factors": [8]}


def test_main_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_max": 3, "d_max": 2, "r_max": 1}))
    out = tmp_path / "report.json"
    code = main(["kff", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["subcommand"] == "kff"
    assert report["summary"]["fail"] == 0


def test_pi_ratio_runs_at_cli_bits(tmp_path, monkeypatch):
    from equivlk import lseries

    used = []
    check = lseries.pi_power_ratio_check

    def spy(*args, bits, **kwargs):
        used.append(bits)
        return check(*args, bits=bits, **kwargs)

    monkeypatch.setattr(lseries, "pi_power_ratio_check", spy)
    out = tmp_path / "report.json"
    assert main(["pi-ratio", "--bits", "80", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bits"] == 80
    assert {r["inputs"]["bits"] for r in report["checks"]} == {80}
    assert used and set(used) == {80}


@pytest.mark.parametrize("subcommand", ["char-table", "nrd", "fitt"])
def test_group_campaigns_default_to_s3(subcommand, tmp_path):
    out = tmp_path / "report.json"
    assert main([subcommand, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {"group": "S3"}


@pytest.mark.parametrize("subcommand", ["char-table", "nrd", "fitt"])
def test_unknown_group_is_a_failed_record(subcommand, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "Nope"}))
    out = tmp_path / "report.json"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [r["id"] for r in report["checks"]] == [f"{subcommand}/group-Nope"]
    assert report["checks"][0]["witness"] == {
        "error": "unknown group name 'NOPE'", "type": "ValueError"}
    assert report["summary"] == {"total": 1, "pass": 0, "fail": 1, "info": 0}


@pytest.mark.parametrize("subcommand", ["char-table", "nrd", "fitt"])
def test_missing_group_is_a_failed_record(subcommand, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "report.json"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [r["id"] for r in report["checks"]] == [f"{subcommand}/group-null"]
    assert report["checks"][0]["witness"] == {
        "error": "config names no group", "type": "ValueError"}
    assert report["summary"] == {"total": 1, "pass": 0, "fail": 1, "info": 0}


@pytest.mark.parametrize("config", [{"mode": "abelian", "group": "S3"},
                                    {"mode": "abelian"}])
def test_unknown_fitt_mode_is_a_failed_record(config, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["fitt", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [r["id"] for r in report["checks"]] == ["fitt/mode-abelian"]
    assert report["checks"][0]["witness"] == {
        "error": "unknown fitt mode 'abelian'", "type": "ValueError"}
    assert report["summary"] == {"total": 1, "pass": 0, "fail": 1, "info": 0}


def test_annihilate_bad_case_is_a_failed_record(tmp_path):
    # p = 3 divides |S3'| = 3: that case fails, the good case still runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": [["S3", 3], ["S3", 5]], "trials": 3,
                               "b_max": 1}))
    out = tmp_path / "report.json"
    assert main(["annihilate-check", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    fail = [r for r in report["checks"] if r["verdict"] == "fail"]
    assert [r["id"] for r in fail] == ["annihilate/case-S3-p3"]
    assert fail[0]["witness"]["type"] == "ValueError"
    assert report["summary"] == {"total": 4, "pass": 3, "fail": 1, "info": 0}


def run_main(tmp_path, subcommand, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_adjoint_bad_group_is_a_failed_record(tmp_path):
    code, report = run_main(tmp_path, "adjoint-verify", {"groups": ["Nope"], "trials": 4})
    assert code == 1
    assert [r["id"] for r in report["checks"]] == ["adjoint/group-Nope"]
    assert report["checks"][0]["witness"] == {
        "error": "unknown group name 'NOPE'", "type": "ValueError"}
    # the good groups are still sampled
    code, report = run_main(tmp_path, "adjoint-verify",
                            {"groups": ["C2", "Nope"], "n_max": 1, "trials": 3})
    assert code == 1
    assert report["summary"] == {"total": 4, "pass": 3, "fail": 1, "info": 0}


def test_denominator_bad_group_is_a_failed_record(tmp_path):
    code, report = run_main(tmp_path, "denominator-probe", {
        "integral_cases": [["Nope", 5]], "witness_cases": [], "trials": 1})
    assert code == 1
    by_id = {r["id"]: r for r in report["checks"]}
    assert by_id["denominator/integral-Nope-p5"]["verdict"] == "fail"
    assert by_id["denominator/integral-Nope-p5"]["witness"]["type"] == "ValueError"
    assert by_id["denominator/fixture-00-S3-p3"]["verdict"] == "pass"


def test_fitt_abelian_bad_group_is_a_failed_record(tmp_path):
    code, report = run_main(tmp_path, "fitt", {"mode": "abelian-agreement",
                                               "groups": [[1]]})
    assert code == 1
    assert [r["id"] for r in report["checks"]] == ['fitt-abelian/group-{"abelian": [1]}']
    assert report["checks"][0]["witness"] == {
        "error": "all invariants must be >= 2", "type": "ValueError"}


@pytest.mark.parametrize("subcommand,config,problem", [
    ("verify-fe", {"f_max": "7"}, "f_max must be an integer in 1..1000, got '7'"),
    ("verify-fe", {"f_max": 0}, "f_max must be an integer in 1..1000, got 0"),
    ("verify-fe", {"f_max": 5, "s": [1]},
     "s must be a non-empty list of integers >= 2, got [1]"),
    ("lvalue", {"f_max": 1001}, "f_max must be an integer in 1..1000, got 1001"),
    ("lvalue", {"f_max": 5, "s": []}, "s must be a non-empty list of integers >= 2, got []"),
    ("lvalue", {"f_max": 5, "s": 3}, "s must be a non-empty list of integers >= 2, got 3"),
    ("gross-check", {"f_max": True}, "f_max must be an integer in 1..1000, got True"),
    ("stickelberger", {"f_max": -1}, "f_max must be an integer in 1..1000, got -1"),
    ("gross-check", {"f_max": 3, "r_max": "2"}, "r_max must be an integer >= 1, got '2'"),
    ("gross-check", {"f_max": 3, "r_max": 0}, "r_max must be an integer >= 1, got 0"),
    ("gross-check", {"f_max": 3, "S": [5, 9]}, "S must be a list of primes, got [5, 9]"),
    ("stickelberger", {"f_max": 3, "S": 7}, "S must be a list of primes, got 7"),
    ("verify-fe", {"f_max": 3, "tol_log2": "x"}, "tol_log2 must be an integer, got 'x'"),
    ("lvalue", {"f_max": 3, "tol_log2": -99.5}, "tol_log2 must be an integer, got -99.5"),
    ("kff", {"q_max": "3"}, "q_max must be an integer, got '3'"),
    ("kff", {"d_max": 2.0}, "d_max must be an integer, got 2.0"),
    ("kff", {"r_max": None}, "r_max must be an integer >= 1, got None"),
    # r > 1 is the paper's range; an empty grid or no smoothing c checks nothing
    ("pi-ratio", {"r": [1]}, "r must be a non-empty list of integers >= 2, got [1]"),
    ("pi-ratio", {"n_max": 0}, "n_max must be an integer >= 1, got 0"),
    ("stickelberger", {"f_max": 5, "count_c": -1}, "count_c must be an integer >= 1, got -1"),
])
def test_bad_lvalue_config_is_one_failed_record(subcommand, config, problem, tmp_path):
    code, report = run_main(tmp_path, subcommand, config)
    assert code == 1
    assert [r["id"] for r in report["checks"]] == [f"{subcommand}/config"]
    assert report["checks"][0]["witness"] == {"error": problem, "type": "ValueError"}
    assert report["summary"] == {"total": 1, "pass": 0, "fail": 1, "info": 0}


def test_time_ms_is_an_integer(tmp_path):
    # perfbench zeroes '"time_ms": <digits>' before hashing a report, so a
    # float time_ms would leave its fractional digits in the digest
    for subcommand, config in [("kff", {"q_max": 3, "d_max": 2, "r_max": 1}),
                               ("pi-ratio", {"r": [2], "n_max": 1}),
                               ("gross-check", {"f_max": 6, "r_max": 1}),
                               ("gross-check", {"f_max": 0})]:
        _, report = run_main(tmp_path, subcommand, config)
        assert report["checks"], subcommand
        assert all(type(r["time_ms"]) is int for r in report["checks"]), subcommand


def test_main_table_rendering(capsys):
    code = main(["pi-ratio", "--table"])
    assert code == 0
    text = capsys.readouterr().out
    assert "pi-ratio/r2-real-np1-nm0" in text and "pass" in text


def test_failed_check_carries_witness():
    # a deliberately failing fixture: claims integrality where there is none
    cfg = {"integral_cases": [], "witness_cases": [], "trials": 1,
           "fixtures": [{"group": "S3", "p": 5, "data": [[[1, 0, 0, 0, 0, 0]]]}]}
    rep = run_report("denominator-probe", cfg)
    fail = [r for r in rep["checks"] if r["verdict"] == "fail"]
    assert len(fail) == 1 and "witness" in fail[0]


def test_raising_check_records_exception_type():
    def boom():
        raise ValueError("no such case")

    checks = Checks()
    checks.timed("demo/raises", {}, boom)
    rec = checks.records[0]
    assert rec["verdict"] == "fail"
    assert rec["witness"] == {"error": "no such case", "type": "ValueError"}


def test_unknown_verdict_is_a_failed_record():
    checks = Checks()
    checks.timed("demo/maybe", {}, lambda: ("maybe", {"detail": 1}))
    rec = checks.records[0]
    assert rec["verdict"] == "fail"
    assert rec["witness"] == {"error": "unknown verdict 'maybe'",
                              "type": "ValueError"}
    assert make_report("demo", 0, 128, {}, checks)["summary"] == {
        "total": 1, "pass": 0, "fail": 1, "info": 0}

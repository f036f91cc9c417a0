"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Each criterion runs through exactly one harness subcommand invocation, at
the precisions and tolerances stated in its check ids.
"""

import json
import re

from equivlk.cli import SUBCOMMANDS, make_report


def run(subcommand, config, seed=0, bits=128):
    checks = SUBCOMMANDS[subcommand](config, seed, bits)
    return make_report(subcommand, seed, bits, config, checks)


def report_line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")


def test_criterion_01_adjoint_identity():
    # 200 seeded H over {C2, C3, C6, S3, D4, Q8}, n <= 3: H*H = HH* = Nrd(H)
    # exactly, zero tolerance
    rep = run("adjoint-verify", {"groups": ["C2", "C3", "C6", "S3", "D4", "Q8"],
                                 "n_max": 3, "trials": 200}, seed=1)
    ok = rep["summary"]["fail"] == 0 and rep["summary"]["total"] == 200
    report_line(1, "adjoint-identity", ok, f"{rep['summary']['pass']}/200 exact")
    assert ok


def test_criterion_02_denominator_criterion():
    # (S3,5), (D4,3), (Q8,3): 100 sampled adjoints p-integral; (S3,3):
    # witness search over 500 samples is report-only; recorded witness
    # replayed as a fixed regression fixture
    rep = run("denominator-probe", {
        "integral_cases": [["S3", 5], ["D4", 3], ["Q8", 3]],
        "witness_cases": [["S3", 3]],
        "trials": 100, "witness_trials": 500, "n_max": 2,
        "fixtures": [{"group": "S3", "p": 3, "data": [[[9, -7, -7, 6, -7, 8]]]}],
    }, seed=1)
    by_id = {r["id"]: r for r in rep["checks"]}
    integral_ok = all(by_id[f"denominator/integral-{g}-p{p}"]["verdict"] == "pass"
                      for g, p in [("S3", 5), ("D4", 3), ("Q8", 3)])
    witness_rec = by_id["denominator/witness-S3-p3"]
    fixture_ok = by_id["denominator/fixture-00-S3-p3"]["verdict"] == "pass"
    ok = integral_ok and fixture_ok and rep["summary"]["fail"] == 0
    found = witness_rec["witness"].get("witness_H") is not None \
        if "witness" in witness_rec else False
    report_line(2, "denominator-criterion", ok,
                f"integral 3x100 clean, witness found={found}, fixture replayed")
    assert ok


def test_criterion_03_fitting_annihilation():
    # 100 seeded square presentations, p prime to |G'|, cokernel <= p^8:
    # every Fitting generator annihilates the brute-force cokernel
    rep = run("annihilate-check", {"cases": [["S3", 5], ["D4", 3], ["Q8", 3]],
                                   "trials": 100, "max_order_exp": 8,
                                   "prec": 9, "b_max": 2}, seed=1)
    ok = rep["summary"]["fail"] == 0 and rep["summary"]["total"] == 100
    report_line(3, "fitting-annihilation", ok,
                f"{rep['summary']['pass']}/100 presentations")
    assert ok


def test_criterion_04_abelian_fitting_agreement():
    # abelian G: reduced-norm Fitting generator equals the commutative
    # determinant exactly, and the ideals agree at p-adic precision 12
    rep = run("fitt", {"mode": "abelian-agreement",
                       "groups": [[2], [3], [4], [2, 2], [5], [6], [2, 4]],
                       "trials": 100, "p": 3, "prec": 12}, seed=1)
    ok = rep["summary"]["fail"] == 0 and rep["summary"]["total"] == 100
    report_line(4, "abelian-fitting-agreement", ok,
                f"{rep['summary']['pass']}/100 presentations, prec 12")
    assert ok


def test_criterion_05_functional_equation():
    # all primitive chi, conductor <= 20, s in {2,3,4}, 128-bit precision:
    # |Lambda(s,chi) - W(chi) f^(1/2-s) Lambda(1-s, chi-bar)| < 2^-100
    rep = run("verify-fe", {"f_max": 20, "s": [2, 3, 4], "tol_log2": -100},
              bits=128)
    ok = rep["summary"]["fail"] == 0
    report_line(5, "functional-equation", ok,
                f"{rep['summary']['pass']}/{rep['summary']['total']} residuals < 2^-100")
    assert ok


def test_criterion_06_exact_vs_numeric_lvalues():
    # FE-transported numeric L(1-s, chi) matches -B_{s,chi}/s to < 2^-100,
    # plus L(-1, zeta) = -1/12 and L(-2, chi_4) = -1/2 exactly
    rep = run("lvalue", {"f_max": 20, "s": [2, 3, 4], "tol_log2": -100},
              bits=128)
    by_id = {r["id"]: r for r in rep["checks"]}
    exact_ok = (by_id["lvalue/exact-zeta-at-minus-1"]["verdict"] == "pass"
                and by_id["lvalue/exact-chi4-at-minus-2"]["verdict"] == "pass")
    ok = rep["summary"]["fail"] == 0 and exact_ok
    report_line(6, "exact-vs-numeric-lvalues", ok,
                f"{rep['summary']['pass']}/{rep['summary']['total']} incl. exact classics")
    assert ok


def test_criterion_07_pi_power_ratios():
    # r in {2,3}, all (place, n+, n-) with n+ + n- <= 2: ratio over the
    # predicted pi power is rational, denominator <= 10^4, at 96 bits
    rep = run("pi-ratio", {"r": [2, 3], "n_max": 2, "bits": 96,
                           "max_den": 10 ** 4}, bits=96)
    ok = rep["summary"]["fail"] == 0
    report_line(7, "pi-power-ratios", ok,
                f"{rep['summary']['pass']}/{rep['summary']['total']} rational")
    assert ok


def test_criterion_08_gross_equivariance():
    # exact Galois equivariance of L(1-r, chi) for all f <= 30, r <= 5
    rep = run("gross-check", {"f_max": 30, "r_max": 5})
    ok = rep["summary"]["fail"] == 0 and rep["summary"]["total"] == 150
    report_line(8, "gross-equivariance", ok,
                f"{rep['summary']['pass']}/150 (f,r) pairs exact")
    assert ok


def test_criterion_09_stickelberger_integrality():
    # (c^r - sigma_c) theta_S(1-r) in Z[G] exactly, f <= 25, r <= 3,
    # >= 5 sampled c per case
    rep = run("stickelberger", {"f_max": 25, "r_max": 3, "count_c": 5})
    ok = rep["summary"]["fail"] == 0 and rep["summary"]["total"] == 75
    report_line(9, "stickelberger-integrality", ok,
                f"{rep['summary']['pass']}/75 cases, 5 c's each")
    assert ok


def test_criterion_10_kgroup_orders():
    # |Z[C_d]/(sigma - q^r)| = q^(rd) - 1 via Smith normal form,
    # q <= 9, d <= 4, r <= 3
    rep = run("kff", {"q_max": 9, "d_max": 4, "r_max": 3})
    ok = rep["summary"]["fail"] == 0 and rep["summary"]["total"] == 84
    report_line(10, "kgroup-orders", ok,
                f"{rep['summary']['pass']}/84 (q,d,r) triples")
    assert ok


def test_criterion_11_reproducibility():
    # same seed + config: byte-identical reports modulo time_ms
    def strip(rep):
        return re.sub(r'"time_ms": \d+', '"time_ms": 0',
                      json.dumps(rep, sort_keys=True))

    ok = True
    for sub, cfg in [
        ("adjoint-verify", {"groups": ["S3", "Q8"], "n_max": 2, "trials": 20}),
        ("annihilate-check", {"cases": [["S3", 5]], "trials": 10}),
        ("stickelberger", {"f_max": 8, "r_max": 2}),
    ]:
        a = strip(run(sub, cfg, seed=42))
        b = strip(run(sub, cfg, seed=42))
        ok = ok and a == b
    report_line(11, "reproducibility", ok, "3 campaigns byte-identical")
    assert ok

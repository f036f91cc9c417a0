"""equivlk command line: verification campaigns with JSON reports.

Every subcommand runs a batch of checks and emits a Report:

    {"subcommand", "seed", "bits", "config", "config_digest",
     "checks": [{"id", "inputs", "verdict", "witness"?, "time_ms"}, ...],
     "summary": {"total", "pass", "fail", "info"}}

Verdicts are "pass", "fail" or "info" (report-only findings).  The exit
code is 0 iff no check fails.  With a fixed seed and config the report is
byte-identical across runs except for the time_ms fields.

At module level this imports the standard library, `arith` and one name of
`group_algebra` (see below).  Each runner imports the layers it uses on its
first line, before any check is timed, so a subcommand loads only its own
layers (the exact L-value campaigns never load mpmath) and no import cost
lands in time_ms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from .arith import is_prime_power, pval
# Bound by name at import: the benchmark's tracer test
# (perfbench/test_perfbench.py) uses this binding as its example of a by-name
# import that the tracer must rebind.  It loads group_algebra, groups, cyclo
# and snf with the CLI; the other layers load on first use.
from .group_algebra import adjoint_and_norm

DEFAULT_SEED = 0
DEFAULT_BITS = 128
VERDICTS = ("pass", "fail", "info")


# ---------------------------------------------------------------------------
# report plumbing


class Checks:
    def __init__(self):
        self.records = []

    def add(self, check_id: str, inputs: dict, verdict: str, witness=None,
            elapsed_ms: int = 0):
        rec = {"id": check_id, "inputs": inputs, "verdict": verdict,
               "time_ms": elapsed_ms}
        if witness is not None:
            rec["witness"] = witness
        self.records.append(rec)

    def timed(self, check_id: str, inputs: dict, fn):
        """Run fn() -> (verdict, witness) and record with timing.  A check
        that raises, or returns a verdict outside VERDICTS, is recorded as
        failed."""
        t0 = time.perf_counter()
        try:
            verdict, witness = fn()
            if verdict not in VERDICTS:
                raise ValueError(f"unknown verdict {verdict!r}")
        except Exception as exc:  # a crashed check is a failed check
            verdict, witness = "fail", _error(exc)
        ms = int((time.perf_counter() - t0) * 1000)
        self.add(check_id, inputs, verdict, witness, ms)


def _error(exc: Exception) -> dict:
    return {"error": str(exc), "type": type(exc).__name__}


def _digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def make_report(subcommand: str, seed: int, bits: int, config: dict,
                checks: Checks) -> dict:
    records = sorted(checks.records, key=lambda r: r["id"])
    counts = dict.fromkeys(VERDICTS, 0)
    for r in records:
        counts[r["verdict"]] += 1
    return {
        "subcommand": subcommand,
        "seed": seed,
        "bits": bits,
        "config": config,
        "config_digest": _digest(config),
        "checks": records,
        "summary": {"total": len(records), **counts},
    }


def _num(x, digits: int = 36) -> str:
    import mpmath as mp

    return mp.nstr(mp.mpmathify(x), digits)


def _rand_matrix_data(rng: random.Random, n_rows: int, n_cols: int, order: int):
    return [[[rng.randint(-9, 9) for _ in range(order)] for _ in range(n_cols)]
            for _ in range(n_rows)]


def _group_of(config_entry):
    from .groups import group_from_json, named_group

    if config_entry is None:
        raise ValueError("config names no group")
    if isinstance(config_entry, str):
        return named_group(config_entry)
    return group_from_json(config_entry)


def _group_label(config_entry) -> str:
    if isinstance(config_entry, str):
        return config_entry
    return json.dumps(config_entry, sort_keys=True)


def _campaign_group(checks: Checks, prefix: str, config_entry):
    """The group of a one-group campaign, or None after recording a failed
    check <prefix>/group-<label> when it cannot be built."""
    try:
        return _group_of(config_entry)
    except Exception as exc:
        label = _group_label(config_entry)
        checks.add(f"{prefix}/group-{label}", {"group": label}, "fail", _error(exc))
        return None


# ---------------------------------------------------------------------------
# subcommands


def run_char_table(config, seed, bits):
    checks = Checks()
    G = _campaign_group(checks, "char-table", config.get("group"))
    if G is None:
        return checks
    label = _group_label(config["group"])

    def table_check():
        table = G.character_table()
        classes, _ = G.conjugacy_classes()
        payload = {
            "classes": [{"size": len(c), "representative": c[0]} for c in classes],
            "characters": [{"degree": chi.degree,
                            "values": [v.to_json() for v in chi.values]}
                           for chi in table],
        }
        ok = sum(chi.degree ** 2 for chi in table) == G.order
        return ("pass" if ok else "fail"), payload

    checks.timed(f"char-table/{label}", {"group": label, "order": G.order},
                 table_check)
    return checks


def run_nrd(config, seed, bits):
    from .group_algebra import GroupRingMatrix, reduced_norm

    checks = Checks()
    G = _campaign_group(checks, "nrd", config.get("group"))
    if G is None:
        return checks
    label = _group_label(config["group"])
    n = config.get("n", 2)
    trials = config.get("trials", 10)
    rng = random.Random(seed)
    for i in range(trials):
        data_a = _rand_matrix_data(rng, n, n, G.order)
        data_b = _rand_matrix_data(rng, n, n, G.order)

        def check(data_a=data_a, data_b=data_b):
            A = GroupRingMatrix.from_rational_entries(G, data_a)
            B = GroupRingMatrix.from_rational_entries(G, data_b)
            na, nb, nab = reduced_norm(A), reduced_norm(B), reduced_norm(A * B)
            ok = all(x * y == z for x, y, z in zip(na.values, nb.values, nab.values))
            witness = {"nrd_A": na.to_json(), "nrd_B": nb.to_json()}
            if not ok:
                witness.update({"A": data_a, "B": data_b, "nrd_AB": nab.to_json()})
            return ("pass" if ok else "fail"), witness

        checks.timed(f"nrd/{label}-trial-{i:03d}",
                     {"group": label, "n": n, "trial": i}, check)
    return checks


def run_adjoint_verify(config, seed, bits):
    from .group_algebra import GroupRingMatrix, central_recompose

    checks = Checks()
    group_names = config.get("groups", ["C2", "C3", "C6", "S3", "D4", "Q8"])
    n_max = config.get("n_max", 3)
    trials = config.get("trials", 200)
    rng = random.Random(seed)
    # a group that cannot be built is a failed record; only the good groups
    # are sampled
    groups = [(_group_label(g), G) for g in group_names
              if (G := _campaign_group(checks, "adjoint", g)) is not None]
    for i in range(trials if groups else 0):
        label, G = groups[rng.randrange(len(groups))]
        n = rng.randint(1, n_max)
        data = _rand_matrix_data(rng, n, n, G.order)

        def check(G=G, n=n, data=data):
            H = GroupRingMatrix.from_rational_entries(G, data)
            Hstar, nrd = adjoint_and_norm(H)
            target = GroupRingMatrix.identity(G, n).scale_element(central_recompose(nrd))
            ok = H * Hstar == target and Hstar * H == target
            witness = None if ok else {"H": data, "nrd": nrd.to_json()}
            return ("pass" if ok else "fail"), witness

        checks.timed(f"adjoint/trial-{i:03d}-{label}-n{n}",
                     {"group": label, "n": n, "trial": i}, check)
    return checks


def run_fitt(config, seed, bits):
    mode = config.get("mode", "invariant")
    if mode == "abelian-agreement":
        return _run_fitt_abelian(config, seed)
    from . import fitting

    checks = Checks()
    if mode != "invariant":
        checks.add(f"fitt/mode-{mode}", {"mode": mode}, "fail",
                   _error(ValueError(f"unknown fitt mode {mode!r}")))
        return checks
    G = _campaign_group(checks, "fitt", config.get("group"))
    if G is None:
        return checks
    label = _group_label(config["group"])
    p = config.get("p", 5)
    a = config.get("a", 2)
    b = config.get("b", 1)
    trials = config.get("trials", 5)
    rng = random.Random(seed)
    for i in range(trials):
        data = _rand_matrix_data(rng, a, b, G.order)

        def check(data=data):
            pres = fitting.Presentation.from_integer_data(G, data)
            fitt = fitting.fitting_invariant(pres)
            coker = fitting.cokernel_module(pres, p)
            witness = {"relations": data, "fitt": fitt.to_json(),
                       "cokernel_p_part": coker}
            return "pass", witness

        checks.timed(f"fitt/{label}-p{p}-trial-{i:03d}",
                     {"group": label, "p": p, "a": a, "b": b, "trial": i}, check)
    return checks


def _run_fitt_abelian(config, seed):
    from . import fitting
    from .group_algebra import (GroupRingMatrix, central_recompose,
                                commutative_ideal_lattice)

    checks = Checks()
    invariant_lists = config.get("groups", [[2], [3], [4], [2, 2], [5], [6], [2, 4]])
    trials = config.get("trials", 100)
    p = config.get("p", 3)
    prec = config.get("prec", 12)
    rng = random.Random(seed)
    groups = [(str(inv), G) for inv in invariant_lists
              if (G := _campaign_group(checks, "fitt-abelian", {"abelian": inv})) is not None]
    for i in range(trials if groups else 0):
        label, G = groups[rng.randrange(len(groups))]
        b = rng.randint(1, 2)
        data = _rand_matrix_data(rng, b, b, G.order)

        def check(G=G, b=b, data=data):
            M = GroupRingMatrix.from_rational_entries(G, data)
            pres = fitting.Presentation(G, M)
            fitt = fitting.fitting_invariant(pres)
            nrd_gen = central_recompose(fitt.generators[0])
            det_gen = fitting.commutative_determinant(M)
            exact_equal = nrd_gen == det_gen
            lat_nrd = commutative_ideal_lattice(G, [nrd_gen], p, prec)
            lat_det = commutative_ideal_lattice(G, [det_gen], p, prec)
            ok = exact_equal and lat_nrd == lat_det
            witness = None if ok else {"relations": data}
            return ("pass" if ok else "fail"), witness

        checks.timed(f"fitt-abelian/trial-{i:03d}-{label}-b{b}",
                     {"group": label, "b": b, "p": p, "prec": prec, "trial": i},
                     check)
    return checks


def run_annihilate_check(config, seed, bits):
    from . import fitting

    checks = Checks()
    cases = config.get("cases", [["S3", 5], ["D4", 3], ["Q8", 3]])
    trials = config.get("trials", 100)
    max_order_exp = config.get("max_order_exp", 8)
    prec = config.get("prec", 9)
    b_max = config.get("b_max", 2)
    rng = random.Random(seed)
    # a bad case becomes a failed record before sampling starts; only the
    # good cases are sampled
    groups = []
    for name, p in cases:
        try:
            G = _group_of(name)
            if not fitting.denominator_trivial(G, p):
                raise ValueError(f"case ({name}, {p}) has p | |G'|")
        except Exception as exc:
            checks.add(f"annihilate/case-{name}-p{p}", {"group": name, "p": p},
                       "fail", _error(exc))
            continue
        groups.append((name, G, p))
    accepted = 0
    attempts = 0
    while groups and accepted < trials and attempts < 20 * trials:
        attempts += 1
        label, G, p = groups[rng.randrange(len(groups))]
        b = rng.randint(1, b_max)
        data = _rand_matrix_data(rng, b, b, G.order)
        pres = fitting.Presentation.from_integer_data(G, data)
        parts = fitting.cokernel_module(pres, p)
        if any(x == 0 for x in parts):
            continue
        order_exp = sum(pval(x, p) for x in parts)
        if order_exp > max_order_exp:
            continue
        i = accepted
        accepted += 1

        def check(pres=pres, p=p, data=data, parts=parts):
            results = fitting.annihilation_check(pres, p, prec)
            ok = all(r["annihilates"] and r["h_exponent"] == 0 for r in results)
            witness = {"cokernel_p_part": parts}
            if not ok:
                witness.update({"relations": data, "results": results})
            return ("pass" if ok else "fail"), witness

        checks.timed(f"annihilate/trial-{i:03d}-{label}-p{p}-b{b}",
                     {"group": label, "p": p, "b": b, "trial": i}, check)
    if groups and accepted < trials:
        checks.add("annihilate/sampling", {"accepted": accepted, "wanted": trials},
                   "fail", {"error": "not enough finite small cokernels found"})
    return checks


def run_denominator_probe(config, seed, bits):
    from . import fitting
    from .group_algebra import GroupRingMatrix

    checks = Checks()
    integral_cases = config.get("integral_cases", [["S3", 5], ["D4", 3], ["Q8", 3]])
    witness_cases = config.get("witness_cases", [["S3", 3]])
    trials = config.get("trials", 100)
    witness_trials = config.get("witness_trials", 500)
    n_max = config.get("n_max", 2)
    fixtures = config.get("fixtures", [
        {"group": "S3", "p": 3, "data": [[[9, -7, -7, 6, -7, 8]]]},
    ])
    rng = random.Random(seed)

    # each group is built inside its check, so a bad one is a failed record
    for name, p in integral_cases:
        def check(name=name, p=p):
            G = _group_of(name)
            if not fitting.denominator_trivial(G, p):
                return "fail", {"error": "expected p prime to |G'|"}
            for t in range(trials):
                n = rng.randint(1, n_max)
                data = _rand_matrix_data(rng, n, n, G.order)
                H = GroupRingMatrix.from_rational_entries(G, data)
                v = fitting.adjoint_integrality_probe(H, p)
                if v < 0:
                    return "fail", {"H": data, "min_valuation": v, "trial": t}
            return "pass", {"trials": trials, "min_valuation_seen": ">=0"}

        checks.timed(f"denominator/integral-{name}-p{p}",
                     {"group": name, "p": p, "trials": trials}, check)

    for name, p in witness_cases:
        def check(name=name, p=p):
            G = _group_of(name)
            if fitting.denominator_trivial(G, p):
                return "fail", {"error": "expected p to divide |G'|"}
            for t in range(witness_trials):
                n = rng.randint(1, n_max)
                data = _rand_matrix_data(rng, n, n, G.order)
                H = GroupRingMatrix.from_rational_entries(G, data)
                v = fitting.adjoint_integrality_probe(H, p)
                if v < 0:
                    return "info", {"witness_H": data, "min_valuation": v,
                                    "found_at_trial": t}
            return "info", {"witness": None, "trials": witness_trials}

        checks.timed(f"denominator/witness-{name}-p{p}",
                     {"group": name, "p": p, "trials": witness_trials}, check)

    for k, fx in enumerate(fixtures):
        def check(fx=fx):
            H = GroupRingMatrix.from_rational_entries(_group_of(fx["group"]), fx["data"])
            v = fitting.adjoint_integrality_probe(H, fx["p"])
            ok = v < 0
            return ("pass" if ok else "fail"), {"min_valuation": v, "H": fx["data"]}

        checks.timed(f"denominator/fixture-{k:02d}-{fx['group']}-p{fx['p']}",
                     {"group": fx["group"], "p": fx["p"]}, check)
    return checks


def _bad_lvalue_config(subcommand: str, f_max, s_list=None):
    """Checks holding one failed <subcommand>/config record when f_max is not
    an integer in 1..MAX_MODULUS, or s_list (if given) is not a non-empty
    list of integers >= 2, the points r > 1 of the conjecture; else None."""
    from .dirichlet import MAX_MODULUS

    if type(f_max) is not int or not 1 <= f_max <= MAX_MODULUS:
        problem = f"f_max must be an integer in 1..{MAX_MODULUS}, got {f_max!r}"
    elif s_list is not None and (type(s_list) is not list or not s_list or any(
            type(s) is not int or s < 2 for s in s_list)):
        problem = f"s must be a non-empty list of integers >= 2, got {s_list!r}"
    else:
        return None
    inputs = {"f_max": f_max} if s_list is None else {"f_max": f_max, "s": s_list}
    checks = Checks()
    checks.add(f"{subcommand}/config", inputs, "fail", _error(ValueError(problem)))
    return checks


def _primitive_grid(f_max: int):
    from .dirichlet import enumerate_characters

    out = []
    for f in range(1, f_max + 1):
        if f % 4 == 2:
            continue  # no primitive characters for these moduli
        for chi in enumerate_characters(f):
            if chi.is_primitive:
                out.append(chi)
    return out


def run_lvalue(config, seed, bits):
    import mpmath as mp

    from . import lseries
    from .dirichlet import DirichletChar, enumerate_characters, l_value_exact
    from .numeric import embed_complex

    f_max = config.get("f_max", 20)
    s_list = config.get("s", [2, 3, 4])
    bad = _bad_lvalue_config("lvalue", f_max, s_list)
    if bad is not None:
        return bad
    checks = Checks()
    tol = mp.mpf(2) ** config.get("tol_log2", -100)

    def zeta_check():
        v = l_value_exact(DirichletChar.trivial(1), -1)
        ok = v.is_rational and v.to_fraction() == Fraction(-1, 12)
        return ("pass" if ok else "fail"), {"value": str(v.to_fraction())}

    checks.timed("lvalue/exact-zeta-at-minus-1", {"s": -1}, zeta_check)

    def chi4_check():
        chi4 = next(c for c in enumerate_characters(4) if c.is_odd)
        v = l_value_exact(chi4, -2)
        ok = v.is_rational and v.to_fraction() == Fraction(-1, 2)
        return ("pass" if ok else "fail"), {"value": str(v.to_fraction())}

    checks.timed("lvalue/exact-chi4-at-minus-2", {"s": -2}, chi4_check)

    for chi in _primitive_grid(f_max):
        for s in s_list:
            def check(chi=chi, s=s):
                exact = l_value_exact(chi, 1 - s)
                ex = embed_complex(exact, bits + 32)
                tv = lseries.l_value_via_fe(chi, 1 - s, bits)
                err = abs(ex - tv)
                ok = err < tol
                return ("pass" if ok else "fail"), {
                    "exact": exact.to_json(),
                    "transported": _num(tv),
                    "abs_error_log2": _log2_str(err)}

            checks.timed(f"lvalue/f{chi.modulus:02d}-chi{list(chi.exps)}-s{s}",
                         {"modulus": chi.modulus, "exponents": list(chi.exps),
                          "s": s, "bits": bits}, check)
    return checks


def _log2_str(x) -> str:
    import mpmath as mp

    if x == 0:
        return "-inf"
    return mp.nstr(mp.log(abs(x), 2), 8)


def run_verify_fe(config, seed, bits):
    import mpmath as mp

    from . import lseries

    f_max = config.get("f_max", 20)
    s_list = config.get("s", [2, 3, 4])
    bad = _bad_lvalue_config("verify-fe", f_max, s_list)
    if bad is not None:
        return bad
    checks = Checks()
    tol = mp.mpf(2) ** config.get("tol_log2", -100)
    for chi in _primitive_grid(f_max):
        for s in s_list:
            def check(chi=chi, s=s):
                res = lseries.fe_residual(chi, s, bits)
                ok = res < tol
                return ("pass" if ok else "fail"), {"residual_log2": _log2_str(res)}

            checks.timed(f"fe/f{chi.modulus:02d}-chi{list(chi.exps)}-s{s}",
                         {"modulus": chi.modulus, "exponents": list(chi.exps),
                          "s": s, "bits": bits}, check)
    return checks


def run_pi_ratio(config, seed, bits):
    from . import lseries

    checks = Checks()
    r_list = config.get("r", [2, 3])
    n_max = config.get("n_max", 2)
    max_den = config.get("max_den", 10 ** 4)
    combos = []
    for n in range(1, n_max + 1):
        combos.append(("complex", n, 0))
    for np_ in range(0, n_max + 1):
        for nm in range(0, n_max + 1):
            if 1 <= np_ + nm <= n_max:
                combos.append(("real", np_, nm))
    for r in r_list:
        for place, np_, nm in combos:
            def check(r=r, place=place, np_=np_, nm=nm):
                k, rat = lseries.pi_power_ratio_check(place, r, np_, nm,
                                                      bits=bits, max_den=max_den)
                ok = rat is not None
                witness = {"pi_exponent": k,
                           "rational": str(rat) if rat is not None else None}
                return ("pass" if ok else "fail"), witness

            checks.timed(f"pi-ratio/r{r}-{place}-np{np_}-nm{nm}",
                         {"r": r, "place": place, "n_plus": np_, "n_minus": nm,
                          "bits": bits}, check)
    return checks


def run_gross_check(config, seed, bits):
    from .dirichlet import gross_equivariance_check

    f_max = config.get("f_max", 30)
    bad = _bad_lvalue_config("gross-check", f_max)
    if bad is not None:
        return bad
    checks = Checks()
    r_max = config.get("r_max", 5)
    S = tuple(config.get("S", []))
    for f in range(1, f_max + 1):
        for r in range(1, r_max + 1):
            def check(f=f, r=r):
                failures = gross_equivariance_check(f, r, S)
                ok = not failures
                return ("pass" if ok else "fail"), (
                    None if ok else {"failures": failures})

            checks.timed(f"gross/f{f:02d}-r{r}",
                         {"modulus": f, "r": r, "s_primes": list(S)}, check)
    return checks


def run_stickelberger(config, seed, bits):
    from . import stickelberger

    f_max = config.get("f_max", 25)
    bad = _bad_lvalue_config("stickelberger", f_max)
    if bad is not None:
        return bad
    checks = Checks()
    r_max = config.get("r_max", 3)
    count_c = config.get("count_c", 5)
    S = tuple(config.get("S", []))
    for f in range(1, f_max + 1):
        for r in range(1, r_max + 1):
            def check(f=f, r=r):
                theta, results = stickelberger.integrality_check(
                    f, r, S, count=count_c)
                ok = all(good for _, good, _ in results)
                witness = {"c_values": [c for c, _, _ in results]}
                if not ok:
                    witness["failures"] = [
                        {"c": c, "element": {str(a): str(v) for a, v in el.items()}}
                        for c, good, el in results if not good]
                return ("pass" if ok else "fail"), witness

            checks.timed(f"stickelberger/f{f:02d}-r{r}",
                         {"modulus": f, "r": r, "s_primes": list(S),
                          "count_c": count_c}, check)
    return checks


def run_kff(config, seed, bits):
    from . import stickelberger

    checks = Checks()
    q_max = config.get("q_max", 9)
    d_max = config.get("d_max", 4)
    r_max = config.get("r_max", 3)
    prime_powers = [q for q in range(2, q_max + 1) if is_prime_power(q)]
    for q in prime_powers:
        for d in range(1, d_max + 1):
            for r in range(1, r_max + 1):
                def check(q=q, d=d, r=r):
                    info = stickelberger.kgroup_finite_field(q, d, r)
                    ok = all(stickelberger.kgroup_annihilates(g, info)
                             for g in stickelberger.easy_annihilators(q, d, r))
                    return ("pass" if ok else "fail"), {
                        "order": info["order"],
                        "invariant_factors": info["invariant_factors"]}

                checks.timed(f"kff/q{q}-d{d}-r{r}", {"q": q, "d": d, "r": r}, check)
    return checks


SUBCOMMANDS = {
    "char-table": run_char_table,
    "nrd": run_nrd,
    "adjoint-verify": run_adjoint_verify,
    "fitt": run_fitt,
    "annihilate-check": run_annihilate_check,
    "denominator-probe": run_denominator_probe,
    "lvalue": run_lvalue,
    "verify-fe": run_verify_fe,
    "pi-ratio": run_pi_ratio,
    "gross-check": run_gross_check,
    "stickelberger": run_stickelberger,
    "kff": run_kff,
}

# subcommands whose config must name a group; without --config they run on S3
_NEEDS_CONFIG = {"char-table", "nrd", "fitt"}


def render_table(report: dict) -> str:
    lines = [f"{report['subcommand']}  seed={report['seed']}  "
             f"digest={report['config_digest'][:12]}"]
    width = max((len(r["id"]) for r in report["checks"]), default=10)
    for r in report["checks"]:
        lines.append(f"  {r['id']:<{width}}  {r['verdict']:<4}  {r['time_ms']:>6} ms")
    s = report["summary"]
    lines.append(f"  total={s['total']} pass={s['pass']} fail={s['fail']} "
                 f"info={s['info']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equivlk",
        description="exact equivariant L-value and Fitting-invariant checks")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--bits", type=int, default=None)
    parser.add_argument("--table", action="store_true",
                        help="human-readable rendering instead of JSON")
    parser.add_argument("--out", help="write the report to this file")
    args = parser.parse_args(argv)

    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    else:
        config = {"group": "S3"} if args.subcommand in _NEEDS_CONFIG else {}

    seed = args.seed if args.seed is not None else config.get("seed", DEFAULT_SEED)
    bits = args.bits if args.bits is not None else config.get("bits", DEFAULT_BITS)

    checks = SUBCOMMANDS[args.subcommand](config, seed, bits)
    report = make_report(args.subcommand, seed, bits, config, checks)

    if args.table:
        text = render_table(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["summary"]["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

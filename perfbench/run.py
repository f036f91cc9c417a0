"""equivlk benchmark: time to a verified campaign report.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
Each campaign of the workload (see workloads.py) runs as a user runs it, in
a fresh interpreter, one at a time:

    python3 -m equivlk.cli <subcommand> --config C --seed N --out R

``--trace 0`` repeats the workload until T seconds have passed, at least
twice, and prints the end-to-end metrics.  Each pass first times
``import equivlk.cli`` in a fresh interpreter, and each campaign follows a
run of the REFERENCE program that calibrates the timings (see below).
``--trace 1`` runs the workload once untraced and twice under
perfbench/layertrace.py and prints the per-layer metrics.

Every run checks every report: exit code 0, the expected number of checks,
no failed check, and the same sha256 of the report bytes with time_ms
zeroed in every pass, traced or not.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 if a check failed and 2
if the checkout has no ``src/equivlk``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Campaign

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2
CAMPAIGN_TIMEOUT_S = 120
# no new pass starts after this many seconds, so a run ends within 180 s
PASS_DEADLINE_S = 100

TIME_MS = re.compile(rb'"time_ms": \d+')

# The host's speed, as one process sees it, drifts by a quarter over tens of
# seconds.  A fixed pure-Python program that uses no equivlk code, run in a
# fresh interpreter before every campaign, measures that drift; the timing
# metrics are scaled by REFERENCE_S / (its median time in the run), so they
# read in seconds at the speed where REFERENCE takes REFERENCE_S.
REFERENCE = """
from fractions import Fraction
acc = {}
for k in range(15):
    a = [Fraction(i + k, i + 2) for i in range(30)]
    b = [Fraction(k - i, 2 * i + 3) for i in range(30)]
    conv = [Fraction(0)] * 59
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    acc[tuple(conv[:3])] = sum(conv)
"""
REFERENCE_S = 0.15

# per-layer metric stem -> tracer key, and whether its inclusive time is
# reported (as <stem>.s) besides its call count (<stem>.calls)
LAYER_TARGETS = (
    ("cyclo.add", "cyclo.CycloNumber.__add__", False),
    ("cyclo.mul", "cyclo.CycloNumber.__mul__", False),
    ("cyclo.inverse", "cyclo.CycloNumber.inverse", False),
    ("cyclo.galois", "cyclo.CycloNumber.galois", False),
    ("cyclo.new", "cyclo.CycloNumber.__init__", False),
    ("groups.character_table", "groups.FiniteGroup.character_table", True),
    ("groups.irreducible_representation",
     "groups.FiniteGroup.irreducible_representation", True),
    ("group_algebra.apply_irrep", "group_algebra.apply_irrep", True),
    ("group_algebra.charpoly_exact", "group_algebra.charpoly_exact", True),
    ("group_algebra.adjoint_and_norm", "group_algebra.adjoint_and_norm", True),
    ("group_algebra.reduced_norm", "group_algebra.reduced_norm", True),
    ("group_algebra.scale_element", "group_algebra.GroupRingMatrix.scale_element", True),
    ("group_algebra.central_recompose", "group_algebra.central_recompose", True),
    ("group_algebra.commutative_ideal_lattice",
     "group_algebra.commutative_ideal_lattice", True),
    ("group_algebra.matmul", "group_algebra.GroupRingMatrix.__mul__", False),
    ("fitting.fitting_invariant", "fitting.fitting_invariant", True),
    ("fitting.cokernel_module", "fitting.cokernel_module", True),
    ("fitting.annihilation_check", "fitting.annihilation_check", True),
    ("fitting.adjoint_integrality_probe", "fitting.adjoint_integrality_probe", True),
    ("snf.smith_normal_form", "snf.smith_normal_form", True),
    ("snf.hermite_normal_form", "snf.hermite_normal_form", True),
    ("snf.kernel_mod", "snf.kernel_mod", True),
    ("dirichlet.enumerate_characters", "dirichlet.enumerate_characters", True),
    ("dirichlet.value", "dirichlet.DirichletChar.value", False),
    ("lseries.gen_bernoulli", "lseries.gen_bernoulli", True),
    ("lseries.l_value_exact", "lseries.l_value_exact", True),
    ("stickelberger.stickelberger_element", "stickelberger.stickelberger_element", True),
    ("stickelberger.integrality_check", "stickelberger.integrality_check", True),
    ("lseries.gauss_sum", "lseries.gauss_sum", True),
    ("lseries.l_value_numeric", "lseries.l_value_numeric", True),
    ("lseries.completed_lambda", "lseries.completed_lambda", True),
    ("lseries.root_number", "lseries.root_number", True),
    ("lseries.fe_residual", "lseries.fe_residual", True),
    ("lseries.l_value_via_fe", "lseries.l_value_via_fe", True),
    ("mpmath.zeta", "mpmath.zeta", True),
    ("mpmath.gamma", "mpmath.gamma", False),
    ("numeric.embed_complex", "numeric.embed_complex", True),
    ("numeric.detect_rational", "numeric.detect_rational", True),
)
SELF_LAYERS = ("cli", "groups", "group_algebra", "fitting", "snf", "cyclo",
               "dirichlet", "lseries", "numeric", "stickelberger", "mpmath")


@dataclass
class Run:
    """One campaign process."""

    campaign: Campaign
    wall_s: float
    rss_mb: float
    exit_code: int
    report: dict | None
    digest: str | None
    trace: dict | None


# ---------------------------------------------------------------------------
# processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(argv: list[str]) -> tuple[float, float, int]:
    """Run argv to completion: (wall seconds, peak RSS in MB, exit code)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL)
    killer = threading.Timer(CAMPAIGN_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def _fresh_python(code: str, isolated: bool = False) -> tuple[float, str]:
    """Run `python3 -c code`: (monotonic time of the launch, standard output)."""
    argv = [sys.executable, *(["-I"] if isolated else []), "-c", code]
    t0 = time.monotonic()
    done = subprocess.run(argv, env=_child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True,
                          timeout=CAMPAIGN_TIMEOUT_S)
    return t0, done.stdout


def setup_time() -> float:
    """Fresh interpreter start until `import equivlk.cli` returns.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading
    after the import minus the parent's reading before the launch is the
    set-up time, without interpreter teardown.
    """
    t0, out = _fresh_python(
        "import time; import equivlk.cli; print(repr(time.monotonic()))")
    return float(out) - t0


def reference_time() -> float:
    """Launch-to-exit time of REFERENCE in a fresh isolated interpreter."""
    t0, _ = _fresh_python(REFERENCE, isolated=True)
    return time.monotonic() - t0


def report_digest(raw: bytes) -> str:
    """sha256 of the report bytes with every time_ms zeroed."""
    return hashlib.sha256(TIME_MS.sub(b'"time_ms": 0', raw)).hexdigest()


def run_campaign(c: Campaign, seed: int, workdir: Path, traced: bool) -> Run:
    config = workdir / f"{c.name}.config.json"
    out = workdir / f"{c.name}.report.json"
    trace_out = workdir / f"{c.name}.trace.json"
    for stale in (out, trace_out):
        stale.unlink(missing_ok=True)
    config.write_text(json.dumps(c.config))
    cli_args = [c.subcommand, "--config", str(config), "--seed", str(seed),
                "--out", str(out)]
    if traced:
        argv = [sys.executable, str(HERE / "layertrace.py"),
                "--trace-out", str(trace_out), "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "equivlk.cli", *cli_args]
    wall, rss, code = _launch(argv)
    report = digest = trace = None
    if out.exists():
        raw = out.read_bytes()
        digest = report_digest(raw)
        try:
            report = json.loads(raw)
        except ValueError:
            pass  # counted as no report
    if traced and trace_out.exists():
        trace = json.loads(trace_out.read_text())
    return Run(c, wall, rss, code, report, digest, trace)


def run_pass(campaigns, seed, workdir, traced) -> list[Run]:
    return [run_campaign(c, seed, workdir, traced) for c in campaigns]


@dataclass
class Timing:
    """Set-up and reference samples of an untraced run."""

    setup: list[float]
    reference: list[float]

    @property
    def scale(self) -> float:
        return REFERENCE_S / p50(self.reference)


def timed_pass(campaigns, seed, workdir, timing: Timing) -> list[Run]:
    """One set-up sample, then each campaign after a reference sample."""
    timing.setup.append(setup_time())
    runs = []
    for c in campaigns:
        timing.reference.append(reference_time())
        runs.append(run_campaign(c, seed, workdir, traced=False))
    return runs


# ---------------------------------------------------------------------------
# correctness


def check_runs(passes: list[list[Run]]) -> tuple[int, int, list[str]]:
    """(attempted checks, failed checks, problems) over all passes.

    A check counts as failed if its verdict is fail or if it is missing
    from the report, including every check of a campaign that crashed or
    wrote no report.
    """
    attempted = failed = 0
    problems = []
    digests: dict[str, str] = {}
    for runs in passes:
        for run in runs:
            c = run.campaign
            attempted += c.expected
            if run.exit_code != 0:
                problems.append(f"{c.name}: exit code {run.exit_code}")
            if run.report is None:
                problems.append(f"{c.name}: no report")
                failed += c.expected
                continue
            summary = run.report["summary"]
            fails = sum(r["verdict"] == "fail" for r in run.report["checks"])
            missing = max(0, c.expected - len(run.report["checks"]))
            failed += fails + missing
            if summary["total"] != c.expected:
                problems.append(f"{c.name}: {summary['total']} checks, "
                                f"expected {c.expected}")
            if fails:
                problems.append(f"{c.name}: {fails} failed checks")
            if digests.setdefault(c.name, run.digest) != run.digest:
                problems.append(f"{c.name}: report bytes differ between passes")
    return attempted, failed, problems


def check_trace_counts(traced: list[list[Run]]) -> list[str]:
    """Call counts must repeat exactly between traced passes."""
    problems = []
    for runs in traced:
        problems += [f"{r.campaign.name}: traced run wrote no trace"
                     for r in runs if r.trace is None]
    if problems:
        return problems
    first = [(r.trace["calls"], r.trace["extra"]) for r in traced[0]]
    for runs in traced[1:]:
        for run, expect in zip(runs, first):
            if (run.trace["calls"], run.trace["extra"]) != expect:
                problems.append(f"{run.campaign.name}: call counts differ "
                                "between traced passes")
    return problems


# ---------------------------------------------------------------------------
# metrics


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """90th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def check_times_ms(passes: list[list[Run]]) -> list[float]:
    """Per-check time_ms, averaged over the passes."""
    acc: dict[tuple[str, str], list[int]] = {}
    for runs in passes:
        for run in runs:
            if run.report is None:
                continue
            for rec in run.report["checks"]:
                acc.setdefault((run.campaign.name, rec["id"]), []).append(rec["time_ms"])
    return [statistics.fmean(v) for v in acc.values()]


def end_to_end(passes: list[list[Run]], timing: Timing) -> dict:
    """Timings scaled to the reference speed; memory as measured."""
    checks = check_times_ms(passes)
    k = timing.scale
    return {
        "wall_s": (k * p50([sum(r.wall_s for r in runs) for runs in passes]), "s"),
        "setup_s": (k * p50(timing.setup), "s"),
        "check_ms_p50": (k * p50(checks), "ms"),
        "check_ms_p90": (k * p90(checks), "ms"),
        "peak_rss_mb": (max(r.rss_mb for runs in passes for r in runs), "MB"),
    }


def per_layer(untraced: list[Run], traced: list[list[Run]]) -> dict:
    def total(runs, part, key):
        return sum(r.trace[part].get(key, 0) for r in runs)

    def mean_over_passes(part, key):
        return statistics.fmean(total(runs, part, key) for runs in traced)

    counts = traced[0]
    out = {}
    for stem, key, timed in LAYER_TARGETS:
        out[f"{stem}.calls"] = (total(counts, "calls", key), "count")
        if timed:
            out[f"{stem}.s"] = (mean_over_passes("incl_s", key), "s")
    out["cyclo.normalize.calls"] = (total(counts, "extra", "cyclo.normalize.calls"),
                                    "count")
    zeta_calls = out["mpmath.zeta.calls"][0]
    prec_sum = total(counts, "extra", "mpmath.zeta.prec_bits_sum")
    out["mpmath.zeta.prec_bits_mean"] = (prec_sum / zeta_calls if zeta_calls else 0.0,
                                         "bits")
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (mean_over_passes("self_s", layer), "s")
    out["cli.campaign.s"] = (statistics.fmean(
        sum(r.trace["campaign_s"] for r in runs) for runs in traced), "s")
    out["cli.report.s"] = (statistics.fmean(
        sum(r.trace["report_s"] for r in runs) for runs in traced), "s")
    traced_wall = p50([sum(r.wall_s for r in runs) for runs in traced])
    out["trace_overhead"] = (traced_wall / sum(r.wall_s for r in untraced), "ratio")
    return out


def missing_targets(traced: list[list[Run]]) -> list[str]:
    """Named targets the tracer found nowhere in the program."""
    wrapped = set()
    for r in traced[0]:
        wrapped.update(r.trace["targets"])
    return [key for _, key, _ in LAYER_TARGETS if key not in wrapped]


# ---------------------------------------------------------------------------
# entry point


def environment_stamp() -> str:
    code = "import mpmath.libmp; print(mpmath.libmp.BACKEND)"
    backend = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True).stdout.strip()
    return (f"python={platform.python_version()} mpmath_backend={backend or '?'} "
            f"nproc={os.cpu_count()}")


def print_campaigns(passes: list[list[Run]]):
    for i, run in enumerate(passes[0]):
        walls = [runs[i].wall_s for runs in passes]
        print(f"campaign {run.campaign.name:<14} {run.campaign.subcommand:<18} "
              f"checks={run.campaign.expected:<4} wall_s_p50={p50(walls):.3f} "
              f"digest={run.digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "equivlk" / "cli.py").is_file():
        print(f"no equivlk sources under {SRC}", file=sys.stderr)
        return 2
    campaigns = WORKLOADS[args.workload](args.seed)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"{environment_stamp()}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        start = time.monotonic()
        if args.trace:
            untraced = run_pass(campaigns, args.seed, workdir, traced=False)
            traced = [run_pass(campaigns, args.seed, workdir, traced=True)
                      for _ in range(2)]
            passes = [untraced, *traced]
        else:
            setup_time()  # fill the bytecode cache
            timing = Timing([], [])
            passes = []
            while (len(passes) < MIN_PASSES
                   or time.monotonic() - start < min(args.seconds, PASS_DEADLINE_S)):
                passes.append(timed_pass(campaigns, args.seed, workdir, timing))
        measured_s = time.monotonic() - start

    attempted, failed, problems = check_runs(passes)
    if args.trace:
        problems += check_trace_counts(traced)
    print_campaigns([untraced] if args.trace else passes)
    print(f"passes={len(passes)} measured_s={measured_s:.1f} "
          f"checks_per_pass={sum(c.expected for c in campaigns)} "
          f"failed={failed} attempted={attempted}")
    print(f"failed_frac = {failed / attempted:.6g} ratio")
    metrics = {}
    if not problems:
        if args.trace:
            for key in missing_targets(traced):
                print(f"warning: trace target {key} not found; its metrics read 0",
                      file=sys.stderr)
            metrics = per_layer(untraced, traced)
        else:
            metrics = end_to_end(passes, timing)
            print(f"check_ms samples={len(check_times_ms(passes))} "
                  f"setup samples={len(timing.setup)}")
            print(f"reference_s = {p50(timing.reference):.6g} s "
                  f"(median of {len(timing.reference)}; scale {timing.scale:.4f})")
            for name, (value, unit) in list(metrics.items())[:4]:
                print(f"{name}_unscaled = {value / timing.scale:.6g} {unit}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

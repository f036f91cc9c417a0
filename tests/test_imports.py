"""Each subcommand loads only the layers it uses.

Every case runs in a fresh interpreter and reads sys.modules there: the
exact campaigns must never load mpmath or the numeric layers, and the CLI
module itself loads nothing of equivlk but arith and the group-ring core
that its one by-name import, group_algebra.adjoint_and_norm, brings along.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equivlk

SRC = str(Path(equivlk.__file__).resolve().parent.parent)

NUMERIC = {"mpmath", "equivlk.lseries", "equivlk.numeric"}
CLI = {"equivlk", "equivlk.cli", "equivlk.arith", "equivlk.cyclo",
       "equivlk.groups", "equivlk.group_algebra", "equivlk.snf"}
GROUP_RING = CLI | {"equivlk.fitting"}

# tiny configs that pass
EXACT_CAMPAIGNS = {
    "stickelberger": {"f_max": 5, "r_max": 2, "S": [7]},
    "gross-check": {"f_max": 5, "r_max": 2, "S": [7]},
    "kff": {"q_max": 3, "d_max": 2, "r_max": 1},
}
GROUP_CAMPAIGNS = {
    "char-table": {"group": "S3"},
    "nrd": {"group": "S3", "n": 1, "trials": 1},
    "adjoint-verify": {"groups": ["S3"], "n_max": 1, "trials": 1},
    "fitt": {"group": "S3", "trials": 1},
    "fitt-abelian": {"mode": "abelian-agreement", "groups": [[2]], "trials": 1},
    "annihilate-check": {"cases": [["S3", 5]], "trials": 1, "b_max": 1},
    "denominator-probe": {"integral_cases": [["S3", 5]], "witness_cases": [],
                          "trials": 1, "n_max": 1},
}


def loaded_after(code: str, *args: str) -> set[str]:
    """The equivlk and mpmath modules loaded once `code` has run in a fresh
    interpreter; the code sees `args` as sys.argv[1:]."""
    probe = code + (
        "\nimport sys, json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'mpmath'"
        " or m.split('.')[0] == 'equivlk')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def campaign_modules(tmp_path, subcommand, config) -> set[str]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    code = ("import sys\n"
            "from equivlk.cli import main\n"
            "assert main(sys.argv[1:]) == 0")
    return loaded_after(code, subcommand, "--config", str(cfg), "--out", str(out))


def test_cli_module_loads_only_the_group_ring_core():
    assert loaded_after("import equivlk.cli") == CLI


def test_exact_layers_load_no_mpmath():
    loaded = loaded_after("import equivlk.dirichlet, equivlk.stickelberger")
    assert "equivlk.stickelberger" in loaded
    assert not loaded & NUMERIC


@pytest.mark.parametrize("subcommand", sorted(EXACT_CAMPAIGNS))
def test_exact_campaigns_load_no_numeric_layer(subcommand, tmp_path):
    loaded = campaign_modules(tmp_path, subcommand, EXACT_CAMPAIGNS[subcommand])
    assert "equivlk.dirichlet" in loaded
    assert not loaded & NUMERIC


@pytest.mark.parametrize("name", sorted(GROUP_CAMPAIGNS))
def test_group_campaigns_load_only_group_ring_layers(name, tmp_path):
    subcommand = "fitt" if name == "fitt-abelian" else name
    loaded = campaign_modules(tmp_path, subcommand, GROUP_CAMPAIGNS[name])
    assert "equivlk.groups" in loaded
    assert loaded <= GROUP_RING

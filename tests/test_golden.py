"""Golden reports of the group-ring and L-value campaigns.

Each entry is the sha256 of a report written by the CLI, with every
time_ms zeroed, at a small fixed config.  The group-ring digests were
recorded with the reduced norms and adjoints computed through explicit
irreducible representations; the Newton's-identities route must reproduce
those reports byte for byte.  The L-value digests were recorded with the
conductor descent solved by Gauss-Jordan elimination, the Hurwitz vectors
taken over every a in 1..f and every root of unity embedded afresh; they
pin the noise-level witnesses (residual_log2, abs_error_log2, transported)
bit for bit.
"""

import hashlib
import json
import re

import pytest

from equivlk.cli import main

GOLDEN = [
    ("adjoint-verify", {"groups": ["C2", "S3", "Q8", "A4"], "n_max": 2, "trials": 8}, 7,
     "5621e71e9c093d34f28cff9911a6909909152113c28b399cfa58be8ba0a74480"),
    ("nrd", {"group": "D4", "n": 2, "trials": 3}, 3,
     "9b12db87d53f6c6d010ea15db575962d183c67ae74be3e7eb70685e5f7f168ce"),
    ("nrd", {"group": "S4", "n": 1, "trials": 2}, 5,
     "239183f0b03940d8e5f0f3888e8d028ce392aa965916072939b92587e864259b"),
    ("fitt", {"group": "S3", "p": 3, "a": 2, "b": 1, "trials": 3}, 1,
     "9738690680051386c8be882cc3d56a1824f7b1b630656310d5d3dedd623f4253"),
    ("fitt", {"mode": "abelian-agreement", "groups": [[2], [3], [2, 2]], "trials": 6}, 2,
     "237b0da475f601cbad682c148733297572da52693d26f087c1397d7d19c5453a"),
    ("annihilate-check", {"cases": [["S3", 5], ["Q8", 3]], "trials": 4, "b_max": 1}, 4,
     "8bd0734ac6ecb749afc11c0fea408eaf2d50cd5246e241c137ab4af81ede3b36"),
    ("denominator-probe", {"integral_cases": [["S3", 5]], "witness_cases": [["S3", 3]],
                           "trials": 3, "witness_trials": 10, "n_max": 1}, 6,
     "ca11612eb10a4540f8246c7ef582ccf07e73f2b24b1dabcf1ccc6a7b5e965985"),
    ("verify-fe", {"f_max": 8, "s": [2, 3]}, 3,
     "17b03fd422f6968d7af20d1cd5914759942f50717eef0ab84af6be371ccec7a8"),
    ("lvalue", {"f_max": 9, "s": [2, 3]}, 4,
     "21e63a8c066cac09a911f93ec4063b8ac9026528b41ac638310898eea5cb34ac"),
    ("gross-check", {"f_max": 12, "r_max": 2, "S": [5]}, 5,
     "ca5fbf21f37d9e4094f0722d1afa571a55e26a9a9b12a3e7b01b6c0c56378b2d"),
    ("stickelberger", {"f_max": 10, "r_max": 2, "count_c": 3, "S": [7]}, 6,
     "bc63db99d0ba12c1ebbfa8857f05ce4c8405d96cdfb5261ff4a2006703b879fd"),
    ("pi-ratio", {"r": [2, 3], "n_max": 2, "bits": 96}, 7,
     "86cd9416f80e8df31d851649240e9d9654066a12ddecfdedf0cb23f3fca469aa"),
]


@pytest.mark.parametrize("subcommand,config,seed,digest", GOLDEN,
                         ids=[f"{g[0]}-{i}" for i, g in enumerate(GOLDEN)])
def test_report_digest(subcommand, config, seed, digest, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main([subcommand, "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == 0
    raw = re.sub(rb'"time_ms": \d+', b'"time_ms": 0', out.read_bytes())
    assert hashlib.sha256(raw).hexdigest() == digest

"""Frozen command output: sha256 of stdout and of stderr, plus the exit code.

Each digest keeps the first 16 hex digits.  The cases run every command
that prints a verdict or a report on the six benchmark scenario files,
and the two sweeps the benchmark runs.  A change to the harness or the
command line that moves one byte of what a command prints, or its exit
code, changes a row here.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from schedlab.cli import main

SCENARIOS = Path(__file__).parents[1] / "perfbench" / "scenarios"

# (argv with the scenario's stem in place of its path, exit code,
#  stdout digest, stderr digest)
FROZEN = (
    ("analyze blocking",
     0, "20a7561981d90f23", "e3b0c44298fc1c14"),
    ("simulate blocking --runs 2",
     0, "1e9c4c6385ed90bf", "e3b0c44298fc1c14"),
    ("attack blocking",
     0, "214ae6cf2716b38a", "e3b0c44298fc1c14"),
    ("report blocking --runs 2",
     0, "0414a6b5d740305b", "e3b0c44298fc1c14"),
    ("analyze guarded",
     1, "9dc967524c28e0ce", "e3b0c44298fc1c14"),
    ("simulate guarded --runs 2",
     0, "ba61de0e156fbe77", "e3b0c44298fc1c14"),
    ("attack guarded",
     0, "11dd81649501794d", "e3b0c44298fc1c14"),
    ("report guarded --runs 2",
     0, "d4b1b2b5f02d159c", "e3b0c44298fc1c14"),
    ("analyze hidden",
     0, "4ad35d453cb13ae0", "e3b0c44298fc1c14"),
    ("simulate hidden --runs 2",
     0, "9796d89085a7169a", "e3b0c44298fc1c14"),
    ("attack hidden",
     0, "1a2bf1f2350e161a", "e3b0c44298fc1c14"),
    ("report hidden --runs 2",
     0, "ea1c2f6aa9c310bc", "e3b0c44298fc1c14"),
    ("analyze trio",
     0, "a5f96d72c8ed13a3", "e3b0c44298fc1c14"),
    ("simulate trio --runs 2",
     0, "dee2cc77abcd5f4b", "e3b0c44298fc1c14"),
    ("attack trio",
     0, "7acea5a85b2b1c56", "e3b0c44298fc1c14"),
    ("report trio --runs 2",
     0, "b68671ee3ddacecf", "e3b0c44298fc1c14"),
    ("analyze veiled",
     0, "dfecd4b1ccfdf4d3", "e3b0c44298fc1c14"),
    ("simulate veiled --runs 2",
     0, "88824ff2591c2bfb", "e3b0c44298fc1c14"),
    ("attack veiled",
     0, "c75a5bee3e4bb457", "e3b0c44298fc1c14"),
    ("report veiled --runs 2",
     0, "63c5965e587db832", "e3b0c44298fc1c14"),
    ("analyze watch",
     0, "dfff90faab4e0513", "e3b0c44298fc1c14"),
    ("simulate watch --runs 2",
     0, "b632cf9df8e6a988", "e3b0c44298fc1c14"),
    ("attack watch",
     0, "f88e4858f68e265f", "e3b0c44298fc1c14"),
    ("report watch --runs 2",
     0, "70a2034b9e180293", "e3b0c44298fc1c14"),
    ("sweep guarded --key security.flush_cost --values 0:3",
     0, "892ef963dc4c5f77", "e3b0c44298fc1c14"),
    ("sweep trio --key restart.period --values 5,10,20,40,80",
     0, "9d11870173a1b82f", "e3b0c44298fc1c14"),
)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(command):
    name, stem, *rest = command.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([name, str(SCENARIOS / f"{stem}.scn"), *rest])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command,code,out_digest,err_digest", FROZEN,
                         ids=[row[0] for row in FROZEN])
def test_command_output_is_frozen(command, code, out_digest, err_digest):
    got_code, out, err = run(command)
    assert (got_code, digest(out), digest(err)) == (code, out_digest,
                                                    err_digest)

"""Golden CLI outputs: every written file and stdout, byte for byte.

Each case runs ``hyperfield.cli.main`` in a temporary directory and
compares the file it writes and its stdout with ``tests/golden/``.
Refactors of the package must leave these bytes unchanged.  To
regenerate the files after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from hyperfield.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# a small lattice with complex rho1, rho4 and a nonzero sigma
SMALL = {
    "m": 1.3, "gamma": 0.4, "N": 3, "delta_k": 0.5, "stagger": True,
    "rho": [[1.0, 0.2, -0.1, 0.3], [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0], [0.4, -0.5, 0.2, 0.1]],
    "sigma": [[0.1, 0.0, 0.0, 0.0]] * 4,
}
# evolve/asymptotic lattice: 2 modes, truncation order 2
TINY = {"m": 1.1, "gamma": 0.3, "N": 1, "delta_k": 0.7, "stagger": True,
        "truncation_order": 2}

VERBS = ("omega-omega", "pi-pi", "omega-pi",
         "w-omega-omega", "w-pi-pi", "w-omega-pi")
SWEEP = ["--x-min", "0.3", "--x-max", "4.5", "--steps", "5"]

# name -> (config or None, argv after the config, output file)
CASES = {}
for _verb in VERBS:
    CASES[f"commutator_{_verb}_default"] = (
        None, ["commutator", "--which", _verb, *SWEEP], "out.csv")
    CASES[f"commutator_{_verb}_small"] = (
        SMALL, ["commutator", "--which", _verb, *SWEEP], "out.csv")
for _verb in ("omega-pi", "pi-pi", "w-pi-pi"):
    CASES[f"commutator_{_verb}_flags"] = (
        SMALL, ["commutator", "--which", _verb, "--m", "1.7", "--gamma", "0.3",
                *SWEEP], "out.csv")
CASES["evolve_infinite"] = (
    TINY, ["evolve", "--t", "0.3", "--geometry", "infinite"], "out.json")
CASES["evolve_finite"] = (
    TINY, ["evolve", "--t", "0.3", "--order", "1", "--geometry", "finite",
           "--L1", "-1", "--L2", "1.5"], "out.json")
CASES["asymptotic_finite"] = (
    TINY, ["asymptotic", "--geometry", "finite", "--L1", "-0.5",
           "--L2", "2"], "out.json")
CASES["asymptotic_infinite"] = (
    TINY, ["asymptotic", "--geometry", "infinite", "--t-values", "0,1,10"],
    "out.json")


def run_case(name: str, workdir: Path) -> tuple[bytes, bytes]:
    """Run one case in workdir; return (output file bytes, stdout bytes)."""
    config, argv, out = CASES[name]
    prefix = []
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config))
        prefix = ["--config", "config.json"]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([*prefix, *argv, "--output", out])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    return (workdir / out).read_bytes(), stdout.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    data, stdout = run_case(name, tmp_path)
    suffix = Path(CASES[name][2]).suffix
    assert data == (GOLDEN / f"{name}{suffix}").read_bytes()
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            data, stdout = run_case(case, Path(tmp))
        suffix = Path(CASES[case][2]).suffix
        (GOLDEN / f"{case}{suffix}").write_bytes(data)
        (GOLDEN / f"{case}.stdout").write_bytes(stdout)
        print(f"wrote {case}", file=sys.stderr)

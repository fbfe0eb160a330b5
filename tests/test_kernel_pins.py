"""Kernel values pinned bit for bit: float.hex of every component.

The goldens cover the CLI's dx sweeps only.  These pins add the M sweeps
(fig2, fig6b, fig7b), every figure's dx sweep, both sectors of the closed
forms and the delta route, and the quadrature oracles on both sides of
M^2, on a table whose rho1 and rho4 are complex, so a changed bracket or a
reordered float operation shows.  The pins live in golden/kernel_pins.json;
to rewrite them after a deliberate change of values, run

    PYTHONPATH=src python tests/test_kernel_pins.py
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from hyperfield.commutators import (QuadratureSpec, commutator_omega_pi_closed,
                                    commutator_omega_pi_quadrature,
                                    delta_commutator, figure_data,
                                    weighted_commutators, weighted_quadrature)
from hyperfield.modes import FieldParams
from hyperfield.operators import CommutationTable
from hyperfield.ring import Bicomplex

PINS = Path(__file__).resolve().parent / "golden" / "kernel_pins.json"

TABLE = CommutationTable(
    rho=(Bicomplex(1.0, 0.2, -0.1, 0.3), Bicomplex.zero(), Bicomplex.zero(),
         Bicomplex(0.4, -0.5, 0.2, 0.1)),
    delta_k=0.5, N=3, stagger=True)
PARAMS = FieldParams(m=1.3, gamma=0.4)

FIGURES = {
    "fig1": (0.05, 30.0, 7), "fig1_negative_dx": (-3.0, -0.5, 4),
    "fig2": (0.2, 4.0, 7, 1.3), "fig6": (0.1, 30.0, 7),
    "fig6b": (0.3, 5.0, 7, 0.8), "fig7": (0.1, 30.0, 7),
    "fig7b": (0.3, 5.0, 7, 2.0)}
DX = (-2.5, 0.01, 1.0, 17.0)


def _hex(value: Bicomplex) -> list[str]:
    return [float(c).hex() for c in value]


@functools.cache
def compute() -> dict:
    """Every pinned value, as lists of float.hex strings."""
    spec = QuadratureSpec()
    out = {}
    for name, grid in FIGURES.items():
        rows = figure_data(name.split("_")[0], grid, PARAMS, TABLE)
        out[name] = [[float(c).hex() for c in row] for row in rows]
    out["closed omega_pi"] = [
        _hex(commutator_omega_pi_closed(dx, PARAMS, TABLE)) for dx in DX]
    for which in ("omega_omega", "pi_pi"):
        out[f"closed weighted {which}"] = [
            _hex(weighted_commutators(which, dx, PARAMS, TABLE).value_at(dx))
            for dx in DX]
    for which in ("omega_omega", "pi_pi", "omega_pi"):
        out[f"delta {which}"] = [
            _hex(delta_commutator(which, dx, PARAMS, TABLE)) for dx in DX]
    out["oracle omega_pi"] = [
        _hex(commutator_omega_pi_quadrature(dx, PARAMS, spec, TABLE))
        for dx in (0.05, -1.0, 4.0, 12.0)]
    massless = FieldParams(m=0.0, gamma=2.0)    # M^2 = -1: the Y1 leg
    out["oracle omega_pi M^2 < 0"] = [
        _hex(commutator_omega_pi_quadrature(dx, massless, spec, TABLE))
        for dx in (0.5, -3.0, 20.0)]
    for which in ("omega_omega", "pi_pi"):
        out[f"oracle weighted {which}"] = [
            _hex(weighted_quadrature(which, dx, PARAMS, spec, TABLE))
            for dx in (0.05, -1.0, 12.0)]
    return out


EXPECTED = ({} if __name__ == "__main__"
            else json.loads(PINS.read_text(encoding="utf-8")))


def test_pins_cover_every_figure():
    assert {name.split("_")[0] for name in FIGURES} == {
        "fig1", "fig2", "fig6", "fig6b", "fig7", "fig7b"}
    assert set(EXPECTED) == set(compute())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_kernel_values_are_bit_identical(name):
    assert compute()[name] == EXPECTED[name]


if __name__ == "__main__":
    entries = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in compute().items())
    PINS.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    print(f"wrote {PINS}", file=sys.stderr)

"""The four workloads: seeded inputs, one pass over them, and its checks.

A workload has three steps, all run in the process that times the pass:

    inputs = wl.draw(rng, workdir)     # fresh seeded inputs, not timed
    outputs = wl.run(inputs)           # the timed pass
    verdicts = wl.check(inputs, outputs)   # not timed

Each verdict is (operation, status, detail) with status OK, FAILED (the
call raised, or a known-faulty oracle point disagreed) or WRONG (a call
returned a wrong answer).  Every hyperfield function is reached through
its module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import oracles as orc

from hyperfield import cli, verification
from hyperfield import commutators as fc
from hyperfield import observables as ob
from hyperfield import operators as op
from hyperfield.modes import FieldParams
from hyperfield.ring import Bicomplex

OK, FAILED, WRONG = "ok", "failed", "wrong"


def _call(fn, *args, **kwargs):
    """Result of fn, or the exception it raised (kept as the output)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the verdict records it as a failed operation
        return exc


def _cli(argv: list[str]):
    """Run hyperfield.cli.main in-process.

    Returns (exit code, captured stdout and stderr), or the exception
    main raised.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = _call(cli.main, argv)
    return code if isinstance(code, Exception) else (code, out.getvalue())


def _secs(b: Bicomplex):
    return orc.sectors(b.x, b.y, b.u, b.v)


def _verdict(name: str, value, reason_fn):
    """FAILED if value is an exception, else WRONG/OK by reason_fn(value)."""
    if isinstance(value, BaseException):
        return (name, FAILED, f"raised {type(value).__name__}: {value}")
    reason = reason_fn(value)
    return (name, WRONG, reason) if reason else (name, OK, "")


def _table_rho(table):
    return _secs(table.rho[0]), _secs(table.rho[3])


# -- verify ------------------------------------------------------------------

class Verify:
    """verification.run_all() with the default tables: 12 criteria."""

    name = "verify"
    CRITERIA = 12

    def draw(self, rng, workdir):
        return None

    def run(self, inputs):
        return verification.run_all()

    def check(self, inputs, reports):
        if len(reports) != self.CRITERIA:
            return [(f"criterion_{i + 1}", WRONG,
                     f"{len(reports)} reports, expected {self.CRITERIA}")
                    for i in range(self.CRITERIA)]
        out = []
        for i, rep in enumerate(reports, start=1):
            name = f"criterion_{i}"
            if rep.get("id") != i:
                out.append((name, WRONG, f"report id {rep.get('id')}"))
            elif rep.get("passed") is not True:
                out.append((name, WRONG, rep.get("detail", "")))
            else:
                out.append((name, OK, ""))
        return out


# -- lattice -----------------------------------------------------------------

class Lattice:
    """lattice_commutator on 17-, 33- and 65-mode generic_table lattices."""

    name = "lattice"
    DK = 0.1
    BRACKETS = ("omega_omega", "pi_pi", "omega_pi")
    # (N, which, weighted): all six at 17 modes, the three weighted
    # brackets at 33 modes, the unweighted [Omega, Pi] at 65 modes
    OPS = ([(8, w, f) for w in BRACKETS for f in (False, True)]
           + [(16, w, True) for w in BRACKETS]
           + [(32, "omega_pi", False)])

    def __init__(self):
        self.tables = {n: op.generic_table(N=n, delta_k=self.DK)
                       for n in sorted({n for n, _w, _f in self.OPS})}

    def draw(self, rng, workdir):
        draws = []
        for n, which, weighted in self.OPS:
            m = rng.uniform(0.5, 2.0)
            gamma = rng.uniform(0.0, 1.5 * m)
            draws.append((n, which, weighted, m, gamma, rng.uniform(-2.0, 2.0),
                          rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)))
        return draws

    def run(self, draws):
        return [_call(fc.lattice_commutator, which, x, xp, t,
                      FieldParams(m=m, gamma=gamma), self.tables[n], weighted)
                for n, which, weighted, m, gamma, x, xp, t in draws]

    def check(self, draws, values):
        out = []
        for d, value in zip(draws, values):
            n, which, weighted, m, gamma, x, xp, _t = d
            table = self.tables[n]
            want, scale = orc.contraction(
                which, weighted, x - xp, m, gamma,
                orc.momenta(n, self.DK, False), self.DK, *_table_rho(table))
            name = f"{which}{'_w' if weighted else ''}@{2 * n + 1}"
            out.append(_verdict(name, value, lambda v: orc.check_close(
                _secs(v), want, scale, orc.LATTICE_TOL, name)))
        return out


# -- vacuum ------------------------------------------------------------------

class Vacuum:
    """Finite-interval <H>, infinite-line <Q>, and the evolve/asymptotic verbs."""

    name = "vacuum"
    DK = 0.1
    H_MODES = (16, 32)
    Q_MODES = 32
    CLI_N = 8          # 16 modes, 32 labels per sector
    ORDER = 3

    def __init__(self):
        self.tables = {n: op.CommutationTable(delta_k=self.DK, N=n // 2,
                                              stagger=True)
                       for n in set(self.H_MODES) | {self.Q_MODES}}

    def draw(self, rng, workdir):
        def z(lo, hi):
            return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))

        def b():
            return Bicomplex(*(rng.uniform(-1.0, 1.0) for _ in range(4)))

        m = rng.uniform(0.8, 1.5)
        gamma = rng.uniform(0.1, 1.0)
        l1, l2 = rng.uniform(-2.0, -0.5), rng.uniform(0.5, 2.0)
        inp = {
            "m": m, "gamma": gamma, "params": FieldParams(m=m, gamma=gamma),
            "geom": ob.GeometrySpec("finite_interval", l1, l2),
            "L1": l1, "L2": l2, "t": rng.uniform(0.02, 0.2),
            "constrained": op.VacuumRules.constrained_rules(z(-1, 1), z(-1, 1)),
            "generic": op.VacuumRules.generic(b(), b()),
            "evolved": os.path.join(workdir, "evolved.json"),
            "asymptotic": os.path.join(workdir, "asymptotic.json"),
            "config": os.path.join(workdir, "config.json"),
        }
        with open(inp["config"], "w", encoding="utf-8") as fh:
            json.dump({"N": self.CLI_N, "delta_k": self.DK, "stagger": True,
                       "m": m, "gamma": gamma}, fh)
        return inp

    def run(self, inp):
        p = inp["params"]
        out = {}
        for n in self.H_MODES:
            table = self.tables[n]
            h = _call(ob.hamiltonian_poly, p, inp["geom"], table)
            for rules in ("constrained", "generic"):
                out[f"H{n}_{rules}"] = (h if isinstance(h, Exception) else
                                        _call(op.vev, h, inp[rules], table))
        for rules in ("constrained", "generic"):
            out[f"Q{self.Q_MODES}_{rules}"] = _call(
                ob.vev_Q, p, self.tables[self.Q_MODES], inp[rules])
        cfg = ["--config", inp["config"]]
        out["evolve"] = _cli(cfg + ["evolve", "--t", repr(inp["t"]),
                                    "--order", str(self.ORDER),
                                    "--geometry", "infinite",
                                    "--output", inp["evolved"]])
        out["asymptotic"] = _cli(cfg + ["asymptotic", "--geometry", "finite",
                                        "--order", str(self.ORDER),
                                        "--L1", repr(inp["L1"]),
                                        "--L2", repr(inp["L2"]),
                                        "--output", inp["asymptotic"]])
        return out

    def check(self, inp, out):
        verdicts = []
        for key in [f"H{n}" for n in self.H_MODES] + [f"Q{self.Q_MODES}"]:
            c, g = out[f"{key}_constrained"], out[f"{key}_generic"]
            bad = next((v for v in (c, g) if isinstance(v, BaseException)), None)
            for rules in ("constrained", "generic"):
                verdicts.append(_verdict(
                    f"vev_{key}_{rules}", bad or out[f"{key}_{rules}"],
                    lambda _v: orc.check_vev_pair(c.norm(), g.norm(), key)))
        m, gamma = inp["m"], inp["gamma"]
        length = inp["L2"] - inp["L1"]
        z_ev, z_as = {}, {}
        for i in range(-self.CLI_N, self.CLI_N):
            k = (i + 0.5) * self.DK
            h = orc.h_gamma_diag(k, m, gamma)
            # evolve, infinite line: i t conj(2 pi dk h_gamma(k, k))
            z_ev[i] = 1j * inp["t"] * (2.0 * math.pi * self.DK * h).conjugate()
            # asymptotic, finite interval: (L2 - L1) dk (w / |k|) conj(h)
            z_as[i] = (length * self.DK * float(orc.omega(k, m, gamma))
                       / abs(k) * h.conjugate())
        verdicts.append(_verdict("cli_evolve", out["evolve"], lambda r: (
            self.check_state(r, inp["evolved"], z_ev, first_order=False))))
        verdicts.append(_verdict("cli_asymptotic", out["asymptotic"], lambda r: (
            self.check_state(r, inp["asymptotic"], z_as, first_order=True))))
        return verdicts

    def check_state(self, result, path, zs, first_order):
        """Exit code, then the state dump read back from disk."""
        code, text = result
        if code != 0:
            return f"exit code {code}: {text.strip()[-200:]}"
        try:
            with open(path, encoding="utf-8") as fh:
                amps = json.load(fh)["amplitudes"]
        except (OSError, ValueError, KeyError) as exc:
            return f"cannot read state dump {path}: {exc}"
        return check_state_dump(amps, zs, self.ORDER, first_order)


def check_state_dump(amps: dict, zs: dict, order: int, first_order: bool):
    """Check a state dump {label: [x, y, u, v]} against its label weights.

    zs[i] is the weight of both labels (flags 0 and 1) at lattice index i
    in each sector.  The ket count must be the multiset count, each
    sector's amplitudes must sum to the truncated exponential of the
    sector's total weight, and (first_order) each single-label ket must
    carry its weight in its own sector and nothing in the other.
    """
    want = orc.ket_count(2 * len(zs), order)
    if len(amps) != want:
        return f"{len(amps)} kets, expected {want}"
    plus = minus = 0j
    for comps in amps.values():
        p, mi = orc.sectors(*comps)
        plus += p
        minus += mi
    total, scale = orc.truncated_exp(2.0 * sum(zs.values()), order)
    reason = orc.check_close((plus, minus), (total, total), scale,
                             orc.SUM_TOL, "sector sums")
    if reason or not first_order:
        return reason
    for label, comps in amps.items():
        if label == "vacuum" or ";" in label:
            continue
        tag, rest = label.split(":")
        i = int(rest.split(",")[0])
        z = zs[i]
        want_s = (z, 0j) if tag == "2ba" else (0j, z)
        reason = orc.check_close(orc.sectors(*comps), want_s, abs(z),
                                 orc.AMP_TOL, f"first-order ket {label}")
        if reason:
            return reason
    return None


# -- sweeps ------------------------------------------------------------------

class Sweeps:
    """Closed forms, quadrature oracle, figure sweeps and the commutator verb."""

    name = "sweeps"
    KINDS = ("omega_pi", "w_omega_omega", "w_pi_pi")
    POINTS = 16                     # per kind, M dx in [0.5, 5]
    WIDE = (0.05, 0.1, 15.0, 20.0, 25.0)   # M dx outside the oracle's grid
    # figure -> Bessel kernel; fig2/6b/7b sweep M at a fixed dx
    FIGS = {"fig1": "omega_pi", "fig2": "omega_pi", "fig6": "w_omega_omega",
            "fig6b": "w_omega_omega", "fig7": "w_pi_pi", "fig7b": "w_pi_pi"}
    FIG_ROWS = 8
    # verb -> a Bessel kernel, or (bracket, weighted) of a lattice delta sum
    VERBS = {"omega-omega": ("omega_omega", False), "pi-pi": ("pi_pi", False),
             "omega-pi": "omega_pi", "w-omega-omega": "w_omega_omega",
             "w-pi-pi": "w_pi_pi", "w-omega-pi": ("omega_pi", True)}
    CLI_STEPS = 16
    # the CLI's default lattice: N = 16, delta_k = 0.1, staggered
    CLI_N, CLI_DK = 16, 0.1

    def __init__(self):
        self.table = op.generic_table()
        self.spec = fc.QuadratureSpec()

    def draw(self, rng, workdir):
        def params():
            m = rng.uniform(0.5, 2.0)
            gamma = rng.uniform(0.0, m)
            return m, gamma

        points = []
        for kind in self.KINDS:
            for _ in range(self.POINTS):
                m, gamma = params()
                mmod = math.sqrt(m * m - gamma * gamma / 4.0)
                points.append((kind, m, gamma, rng.uniform(0.5, 5.0) / mmod))
        figs = []
        for fig in self.FIGS:
            m, gamma = params()
            if fig in ("fig1", "fig6", "fig7"):
                grid = (rng.uniform(0.05, 0.5), rng.uniform(8.0, 30.0),
                        self.FIG_ROWS)
            else:
                grid = (rng.uniform(0.2, 0.5), rng.uniform(3.0, 6.0),
                        self.FIG_ROWS, rng.uniform(0.5, 2.0))
            figs.append((fig, grid, m, gamma))
        verbs = []
        for verb in self.VERBS:
            m, gamma = params()
            verbs.append((verb, m, gamma, rng.uniform(0.1, 0.5),
                          rng.uniform(5.0, 10.0),
                          os.path.join(workdir, f"{verb}.csv")))
        return {"points": points, "figs": figs, "verbs": verbs}

    def _closed(self, kind, dx, p):
        if kind == "omega_pi":
            return fc.commutator_omega_pi_closed(dx, p, self.table)
        return fc.weighted_commutators(kind[2:], dx, p, self.table).value_at(dx)

    def _oracle(self, kind, dx, p):
        if kind == "omega_pi":
            return fc.commutator_omega_pi_quadrature(dx, p, self.spec, self.table)
        return fc.weighted_quadrature(kind[2:], dx, p, self.spec, self.table)

    def run(self, inp):
        out = {"closed": [], "oracle": [], "wide": [], "figs": [], "verbs": []}
        for kind, m, gamma, dx in inp["points"]:
            p = FieldParams(m=m, gamma=gamma)
            out["closed"].append(_call(self._closed, kind, dx, p))
            out["oracle"].append(_call(self._oracle, kind, dx, p))
        unit = FieldParams(m=1.0)
        for dx in self.WIDE:
            out["wide"].append(_call(self._oracle, "omega_pi", dx, unit))
        for fig, grid, m, gamma in inp["figs"]:
            out["figs"].append(_call(fc.figure_data, fig, grid,
                                     FieldParams(m=m, gamma=gamma), self.table))
        for verb, m, gamma, lo, hi, path in inp["verbs"]:
            out["verbs"].append(_cli([
                "commutator", "--which", verb, "--m", repr(m),
                "--gamma", repr(gamma), "--x-min", repr(lo), "--x-max", repr(hi),
                "--steps", str(self.CLI_STEPS), "--output", path]))
        return out

    def check(self, inp, out):
        verdicts = []
        rho = _table_rho(self.table)
        for (kind, m, gamma, dx), closed, oracle in zip(
                inp["points"], out["closed"], out["oracle"]):
            mmod = math.sqrt(m * m - gamma * gamma / 4.0)
            want = self.expected(kind, dx, mmod, rho)
            scale = max(abs(w) for w in want)
            verdicts.append(_verdict(f"closed_{kind}", closed, lambda v: (
                orc.check_close(_secs(v), want, scale, orc.CLOSED_TOL,
                                f"closed {kind} at M dx {mmod * dx:.3g}"))))
            verdicts.append(_verdict(f"oracle_{kind}", oracle, lambda v: (
                orc.check_close(_secs(v), want, scale, orc.ORACLE_TOL,
                                f"oracle {kind} at M dx {mmod * dx:.3g}"))))
        for dx, value in zip(self.WIDE, out["wide"]):
            want = self.expected("omega_pi", dx, 1.0, rho)
            name, status, detail = _verdict(
                f"oracle_wide@{dx:g}", value, lambda v: orc.check_close(
                    _secs(v), want, max(abs(w) for w in want),
                    orc.ORACLE_TOL, f"oracle at M dx {dx:g}"))
            # a known fault: disagreement counts as a failed operation
            verdicts.append((name, FAILED if status != OK else OK, detail))
        for (fig, grid, m, gamma), rows in zip(inp["figs"], out["figs"]):
            verdicts.append(_verdict(fig, rows, lambda r: self.check_figure(
                fig, grid, m, gamma, r)))
        for (verb, m, gamma, lo, hi, path), result in zip(inp["verbs"],
                                                          out["verbs"]):
            verdicts.append(_verdict(f"cli_{verb}", result, lambda r: (
                self.check_verb(verb, m, gamma, lo, hi, path, r))))
        return verdicts

    @staticmethod
    def expected(kind, dx, mmod, rho):
        """Both sectors of a Bessel kernel: bracket times the mpmath value."""
        diff, summ = orc.brackets(*rho)
        b = summ if kind == "omega_pi" else diff
        val = orc.smooth_kernel(kind, dx, mmod)
        return (b[0] * val, b[1] * val)

    def check_figure(self, fig, grid, m, gamma, rows):
        kind = self.FIGS[fig]
        rho = _table_rho(self.table)
        lo, hi, steps = grid[0], grid[1], grid[2]
        if len(rows) != steps:
            return f"{fig}: {len(rows)} rows, expected {steps}"
        mmod = math.sqrt(m * m - gamma * gamma / 4.0)
        for i, (x, re, im) in enumerate(rows):
            want_x = lo + (hi - lo) * i / max(steps - 1, 1)
            if abs(x - want_x) > 1e-12 * abs(want_x):
                return f"{fig}: abscissa {x} at row {i}, expected {want_x}"
            # rows carry the plus sector
            want = (self.expected(kind, grid[3], x, rho) if len(grid) > 3
                    else self.expected(kind, x, mmod, rho))[0]
            reason = orc.check_close((complex(re, im),), (want,), abs(want),
                                     orc.CLOSED_TOL, f"{fig} row {i}")
            if reason:
                return reason
        return None

    def check_verb(self, verb, m, gamma, lo, hi, path, result):
        code, text = result
        if code != 0:
            return f"exit code {code}: {text.strip()[-200:]}"
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            return f"cannot read {path}: {exc}"
        if not lines or lines[0] != "x,re,im":
            return f"{path}: bad header"
        rows = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]
        if len(rows) != self.CLI_STEPS:
            return f"{verb}: {len(rows)} rows, expected {self.CLI_STEPS}"
        mmod = math.sqrt(m * m - gamma * gamma / 4.0)
        rho = ((1 + 0j, 1 + 0j), (0j, 0j))   # the CLI's default rho table
        k = orc.momenta(self.CLI_N, self.CLI_DK, True)
        for i, (x, re, im) in enumerate(rows):
            want_x = lo + (hi - lo) * i / (self.CLI_STEPS - 1)
            if abs(x - want_x) > 1e-11 * abs(want_x):
                return f"{verb}: abscissa {x} at row {i}, expected {want_x}"
            kernel = self.VERBS[verb]
            if isinstance(kernel, str):
                want = self.expected(kernel, x, mmod, rho)[0]
                scale = abs(want)
            else:
                sec, scale = orc.contraction(*kernel, x, m, gamma, k,
                                             self.CLI_DK, *rho)
                want = sec[0]
            reason = orc.check_close((complex(re, im),), (want,), scale,
                                     orc.CSV_TOL, f"{verb} row {i}")
            if reason:
                return reason
        return None


WORKLOADS = {wl.name: wl for wl in (Verify, Lattice, Vacuum, Sweeps)}

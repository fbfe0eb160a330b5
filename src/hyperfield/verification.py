"""Acceptance suite: every criterion as a callable returning a report dict.

Each criterion measures named checks (name, measured, bound, relation)
and hands them to _report, which derives "passed" and "detail" from them
and keeps them as "checks"; a report also carries "id", "name" and
"tolerance".  run_all() executes the suite, adds each criterion's wall
time as "seconds", and is shared by the pytest acceptance module and the
`hyperfield verify` command, so there is a single source of truth for the
pass/fail logic and the tolerances.
"""

from __future__ import annotations

import inspect
import math
import operator
import random
import time
import traceback

from . import commutators as fc
from . import states as st
from .modes import FieldParams, eom_residual, field_value, make_mode, omega
from .observables import (GeometrySpec, charge_poly, h_gamma, hamiltonian_poly,
                          hamiltonian_terms)
from .operators import (CommutationTable, VacuumRules, generic_table,
                        normal_order, vev)
from .ring import Bicomplex, idempotents_exact
from .states import (asymptotic_state_finite, asymptotic_state_infinite,
                     evolve_vacuum, norm_preservation, project_view,
                     schmidt_rank)

RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
             ">": operator.gt, "==": operator.eq}


def _report(cid: int, name: str, tolerance: str, checks) -> dict:
    """Report from (name, measured, bound, relation) checks.

    It passes when it has checks and each holds as `measured relation
    bound`; the detail lists every check and marks the failing ones.
    """
    records = [{"name": n, "measured": m, "bound": b, "relation": rel,
                "passed": bool(RELATIONS[rel](m, b))} for n, m, b, rel in checks]
    detail = "; ".join(f"{'' if c['passed'] else 'FAILED '}{c['name']} "
                       f"{c['measured']:.3g} {c['relation']} {c['bound']:.3g}"
                       for c in records)
    return {"id": cid, "name": name, "tolerance": tolerance,
            "passed": bool(records) and all(c["passed"] for c in records),
            "detail": detail, "checks": records}


def report_line(report: dict) -> str:
    """The one line `hyperfield verify` and the pytest gate print per report.

    It ends with the worst measured / bound over the `<=` and `<` checks
    with a positive bound, when the report has any.
    """
    took = f"; {report['seconds']:.2f} s" if "seconds" in report else ""
    margins = [c["measured"] / c["bound"] for c in report.get("checks", ())
               if c["relation"] in ("<=", "<") and c["bound"] > 0]
    worst = f"; worst measured/bound {max(margins):.3g}" if margins else ""
    return (f"[{'PASS' if report['passed'] else 'FAIL'}] criterion "
            f"{report['id']:>2} {report['name']} (tolerance: "
            f"{report['tolerance']}{took}) -- {report['detail']}{worst}")


def _rises(values) -> int:
    """Steps of a sequence that fail to decrease strictly."""
    return sum(not a > b for a, b in zip(values, values[1:]))


# -- 1: exact ring suite: integer arithmetic on draws scaled by lcm(1..9) -----

def _random_rational_element(rng: random.Random) -> Bicomplex:
    """Four rationals n/d (n in [-9, 9], d in [1, 9]), each scaled by 2520.

    2520 = lcm(1..9), so each component is the int n * (2520 // d); the
    numerator is drawn before the denominator.
    """
    def q() -> int:
        return rng.randint(-9, 9) * (2520 // rng.randint(1, 9))
    return Bicomplex(q(), q(), q(), q())


def _sectors_exact(a: Bicomplex):
    x, y, u, v = a
    return (x + u, y + v, x - u, y - v)


def ring_property_suite(n_checks: int = 10_000, seed: int = 7,
                        mul_fn=operator.mul) -> dict:
    """Randomized ring-axiom suite in exact integer arithmetic.

    Each triple is drawn as rationals and scaled by lcm(1..9) = 2520 (see
    _random_rational_element).  Every property checked per triple is
    homogeneous of equal degree on both sides, so the scaling keeps each
    verdict.  The idempotent check (jp * jp == jp) is not homogeneous; it
    runs once, on idempotents_exact() in Fraction.

    Returns {"checks": int, "failures": [names], "seconds": float}.  The
    mul_fn hook, which sees each distinct product once, serves tests: it
    lets them exercise the failure path with a broken product.
    """
    rng = random.Random(seed)
    jp, jm = idempotents_exact()
    failures: list[str] = []
    checks = 0
    t0 = time.perf_counter()
    idempotents_ok = (mul_fn(jp, jp) == jp and mul_fn(jm, jm) == jm
                      and mul_fn(jp, jm).is_zero()
                      and (jp + jm) == Bicomplex(1, 0, 0, 0))

    def tally(name: str, ok: bool):
        nonlocal checks
        checks += 1
        if not ok and name not in failures:
            failures.append(name)

    while checks < n_checks:
        a = _random_rational_element(rng)
        b = _random_rational_element(rng)
        c = _random_rational_element(rng)
        ab, a_conj = mul_fn(a, b), a.conj()
        tally("mul_associative", mul_fn(ab, c) == mul_fn(a, mul_fn(b, c)))
        tally("mul_commutative", ab == mul_fn(b, a))
        tally("distributive", mul_fn(a, b + c) == ab + mul_fn(a, c))
        tally("conj_multiplicative", ab.conj() == mul_fn(a_conj, b.conj()))
        tally("conj_involutive", a_conj.conj() == a)
        m = mul_fn(a, a_conj)
        tally("modulus_in_real_ij_subring", m.y == 0 and m.u == 0)
        tally("idempotent_algebra", idempotents_ok)
        pr, pi, mr, mi = _sectors_exact(ab)
        ar, ai, amr, ami = _sectors_exact(a)
        br, bi, bmr, bmi = _sectors_exact(b)
        tally("sector_isomorphism",
              pr == ar * br - ai * bi and pi == ar * bi + ai * br
              and mr == amr * bmr - ami * bmi and mi == amr * bmi + ami * bmr)
    return {"checks": checks, "failures": failures,
            "seconds": time.perf_counter() - t0}


def criterion_1_ring_suite() -> dict:
    rep = ring_property_suite(10_000)
    return _report(1, "ring axioms, conjugation, idempotents (exact rational)",
                   "exact; runtime < 5 s",
                   [("failing properties", len(rep["failures"]), 0, "=="),
                    ("seconds", rep["seconds"], 5.0, "<")])


# -- 2: dispersion / equation of motion -------------------------------------

def criterion_2_dispersion_eom() -> dict:
    rng = random.Random(11)
    worst = 0.0
    gamma_mismatches = 0
    for _ in range(1000):
        m = rng.uniform(0.1, 3.0)
        gamma = rng.uniform(0.0, 2.5)
        p = FieldParams(m=m, gamma=gamma)
        kmin = math.sqrt(max(0.0, -p.m2_mod))
        k = rng.choice((-1, 1)) * rng.uniform(kmin + 1e-6, kmin + 4.0)
        branch = rng.choice(("plus", "minus"))
        ca = Bicomplex(rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0)
        cb = Bicomplex(rng.uniform(-1, 1), rng.uniform(-1, 1), 0, 0)
        mode = make_mode(branch, k, p, ca, cb)
        # the damped plus sector and the anti-damped minus sector
        if mode.Gamma != (-gamma / 2.0 if branch == "plus" else gamma / 2.0):
            gamma_mismatches += 1
        x, t = rng.uniform(-2, 2), rng.uniform(0, 2)
        res = eom_residual(mode, p, x, t)
        scale = field_value([mode], x, t).norm() * (1.0 + mode.omega ** 2
                                                    + k * k + m * m)
        worst = max(worst, res.norm() / max(scale, 1e-30))
    return _report(2, "mode solutions solve the equations of motion",
                   "residual <= 1e-10 relative; Gamma = -/+ gamma/2 exact",
                   [("worst relative residual of 1000 modes", worst, 1e-10,
                     "<="),
                    ("modes with inexact Gamma", gamma_mismatches, 0, "==")])


# -- 3: damping-factor cancellation ------------------------------------------

# rho of a sigma-free table that tells the brackets apart, which the default
# and generic tables cannot: B_diff = (0.8, 0, 0, -0.4), B_sum = (1.2, 0, 0, 0.2).
# Criterion 3 runs on it at both staggers, plus the table the caller passes
BRACKET_RHO = (Bicomplex(0.9, 0.2, 0.1, -0.3), Bicomplex(0.4, -0.1, 0.2, 0.3),
               Bicomplex(0.5, 0.1, 0.0, 0.2), Bicomplex(0.3, -0.2, 0.1, 0.1))


def criterion_3_commutator_invariance(table: CommutationTable | None = None) -> dict:
    # the delta route has no t and no damping factor, so the operator engine
    # equal to it at a (t, gamma) is free of damping factors there.  The
    # difference is scaled by the sum of the contraction's term magnitudes,
    # which cannot vanish as the commutator does (B_diff = 0 at rho1 = rho4);
    # [Omega, Pi] is contracted with the weighted measure, where it is a delta
    lattices = [CommutationTable(rho=BRACKET_RHO, delta_k=0.25, N=4,
                                 stagger=stagger) for stagger in (False, True)]
    lattices += [table] if table is not None else []
    checks = []
    for which in ("omega_omega", "pi_pi", "omega_pi"):
        errors = []
        for lattice in lattices:
            for n, (t, gamma) in enumerate(((0.0, 0.0), (1.0, 0.0), (10.0, 0.0),
                                            (0.0, 2.0), (10.0, 2.0), (1.0, 1.0))):
                x, xp = ((0.3, 1.1), (-0.4, 2.1))[n % 2]
                p = FieldParams(m=1.5, gamma=gamma)
                terms = list(fc._contraction_terms(which, x, xp, t, p, lattice,
                                                   which == "omega_pi"))
                route = fc.delta_commutator(which, xp - x, p, lattice)
                errors.append((sum(terms, Bicomplex.zero()) - route).norm()
                              / max(sum(term.norm() for term in terms), 1e-30))
        name = "weighted omega_pi" if which == "omega_pi" else which
        checks.append((f"{name} delta route vs engine", max(errors), 1e-12,
                       "<="))
    return _report(3, "equal-time commutators free of damping factors",
                   "ring equality of the operator engine with the damping-free "
                   "delta route at t in {0,1,10}, gamma in {0,1,2} (1e-12 of "
                   "the sum of term magnitudes)", checks)


# -- 4: closed form vs quadrature oracle -------------------------------------

def criterion_4_bessel_oracle() -> dict:
    table = generic_table()
    lo, hi = fc.Z_TRUSTED[0] * 1.001, fc.Z_TRUSTED[1] / 1.001
    zs = [lo * (hi / lo) ** (n / 19.0) for n in range(20)]
    t0 = time.perf_counter()
    checks = []
    for name, kernel in fc.KERNELS.items():
        if kernel.profile is None:
            continue
        # K rows at M = 3 with gamma > 0; the Y1 row at m = 0, M = i gamma/2
        worst = 0.0
        for p in ([FieldParams(m=3.25, gamma=2.5)] if kernel.side > 0 else
                  [FieldParams(m=0.0, gamma=g) for g in (0.5, 2.0)]):
            value_at, r = kernel.bind(p, table), math.sqrt(abs(p.m2_mod))
            for z in zs:
                closed = value_at(z / r)
                quad = kernel.oracle(z / r, p, table)
                worst = max(worst, (closed - quad).norm() / closed.norm())
        checks.append((f"{name} worst relative error", worst, 1e-11, "<="))
    return _report(4, "Bessel closed forms match the quadrature oracle",
                   "<= 1e-11 relative for every Bessel row at 20 log-spaced "
                   "sqrt(|M^2|) |dx| across [0.01, 30]: K rows at M = 3, "
                   "the Y1 row at m = 0, gamma in {0.5, 2}; < 60 s",
                   checks + [("seconds", time.perf_counter() - t0, 60.0, "<")])


# -- 5: limits ----------------------------------------------------------------

def criterion_5_limits() -> dict:
    table = generic_table()
    rows = [k for k in fc.KERNELS.values() if k.profile and k.side > 0]
    # large-separation tails at M dx = 30
    tail = max(k.bind(FieldParams(m=1.0), table)(30.0).norm() for k in rows)
    # monotone decay beyond M dx = 5 (mass increasing, dx fixed)
    rises = sum(_rises([k.bind(FieldParams(m=float(mm)), table)(1.0).norm()
                        for mm in range(5, 16)]) for k in rows)
    return _report(5, "asymptotic limits of the commutators",
                   "tails < 1e-8 at M dx = 30; monotone decay beyond "
                   "M dx = 5",
                   [("largest tail at M dx = 30", tail, 1e-8, "<"),
                    ("non-decreasing steps over M = 5..15", rises, 0, "==")])


# -- 6: factor-5 provenance ---------------------------------------------------

def criterion_6_factor_five() -> dict:
    rng = random.Random(13)
    worst = worst_eta = 0.0
    for _ in range(1000):
        m = rng.uniform(0.05, 3.0)
        gamma = rng.uniform(0.0, 1.9 * m)
        p = FieldParams(m=m, gamma=gamma)
        k = rng.uniform(-5.0, 5.0)
        w = omega(k, p)
        hg = h_gamma(k, k, p)
        worst = max(worst, abs(hg.real - 2.5 * w * w) / max(abs(hg.real), 1e-30))
        # the asymptotic kernel against its closed form, from omega alone
        eta = (2.5 * w ** 3 - 1j * gamma * w * w) / abs(k)
        worst_eta = max(worst_eta, abs(st.eta_k(k, p) - eta) / abs(eta))
    return _report(6, "diagonal Hamiltonian weight has real part (5/2) w^2",
                   "<= 1e-12 relative over 1000 random samples, for the "
                   "real part and for eta_k = (5/2) w^3/|k| - i gamma w^2/|k|",
                   [("worst relative deviation", worst, 1e-12, "<="),
                    ("worst eta_k relative deviation", worst_eta, 1e-12,
                     "<=")])


# -- 7: v.e.v. cancellation ---------------------------------------------------

def criterion_7_vev_cancellation(table: CommutationTable | None = None) -> dict:
    table = table or CommutationTable(delta_k=0.1, N=16, stagger=True)  # 32 modes
    p = FieldParams(m=1.0, gamma=0.5)
    h = hamiltonian_poly(p, GeometrySpec("infinite_line"), table)
    q = charge_poly(p, table)
    rules_c = VacuumRules.constrained_rules(0.8 - 0.3j, 0.2 + 1.1j)
    rules_u = VacuumRules.generic(Bicomplex(0.3, 0.4, 0.1, -0.2),
                                  Bicomplex(-0.1, 0.8, 0.3, 0.05))
    vh, vq, vh_u, vq_u = (vev(poly, rules, table)
                          for rules in (rules_c, rules_u) for poly in (h, q))
    # each scale is the largest normal-ordered coefficient: the constrained
    # <H> and <Q> are round-off of it (at most 2.3e-16 of it on five
    # tables), and it follows rho and delta_k as the residue does, which
    # the generic eigenvalues' <H> does not
    h_max, q_max, h_res, q_res = (
        normal_order(poly, table).max_norm()
        for poly in (h, q, h - h.adjoint(), q + q.adjoint()))
    return _report(7, "vacuum energy and charge cancel under the constraints",
                   "zero to 1e-14 of the largest normal-ordered coefficient "
                   "when constrained; nonzero for generic eigenvalues; "
                   "H = H+ and Q = -Q+ to 1e-12 of that coefficient",
                   [("constrained |<H>|", vh.norm(), 1e-14 * h_max, "<="),
                    ("constrained |<Q>|", vq.norm(), 1e-14 * q_max, "<="),
                    ("generic |<H>|", vh_u.norm(), 1e-6, ">"),
                    ("generic |<Q>|", vq_u.norm(), 1e-6, ">"),
                    ("|H - H+| / max |H|", h_res / h_max, 1e-12, "<="),
                    ("|Q + Q+| / max |Q|", q_res / q_max, 1e-12, "<=")])


def _states_lattice(n_max: int = 4) -> CommutationTable:
    """Desk-scale lattice for the state-expansion criteria 8-11.

    n_max bounds the site count so truncated bases stay small; the
    lattice staggers to avoid the k = 0 pole.  No state function reads
    rho or sigma, so the table keeps the default ones.
    """
    return CommutationTable(delta_k=0.2, N=n_max, stagger=True)


# -- 8: unitarity / alignment -------------------------------------------------

def _pair_sums(name: str, state: st.StateVector, z: list) -> tuple:
    """Check that per sector the n-pair amplitudes sum to (sum z)^n / n!
    to 1e-12 of (sum |z|)^n / n!, z the label weights (two per pair)."""
    s, a = 2.0 * sum(z), 2.0 * sum(map(abs, z))
    return (f"{name} n-pair amplitude sums", max(abs(math.factorial(n) * sum(
        part(amp) for key, amp in state.amplitudes.items()
        if len(key) == n and key[0][0] == tag) - s ** n) / a ** n
        for tag, part in ((st.TAG_MIRROR, Bicomplex.plus),
                          (st.TAG_SYSTEM, Bicomplex.minus))
        for n in range(1, state.truncation_order + 1)), 1e-12, "<=")


def criterion_8_alignment() -> dict:
    table = _states_lattice()
    p = FieldParams(m=1.0, gamma=0.5)
    geom = GeometrySpec("infinite_line")
    # exponent scale: sum of per-pair weights at t chosen so t * scale <= 0.1
    scale = sum(abs(w) for _i, _j, w in hamiltonian_terms(p, geom, table))
    t = 0.1 / scale
    checks = [("norm deviation at order 4",
               norm_preservation(t, 4, p, geom, table), 1e-4, "<=")]
    # pair weights written out here: i t conj(w), and L dk eta_k from omega
    checks.append(_pair_sums("evolve_vacuum", evolve_vacuum(t, 2, p, geom, table), [
        1j * t * w.conjugate() for *_, w in hamiltonian_terms(p, geom, table, t)]))
    ws = [(k, omega(k, p)) for k in map(table.momentum, table.momentum_indices())]
    checks.append(_pair_sums("asymptotic_state_finite", asymptotic_state_finite(
        2, p, -1.0, 2.0, table), [3.0 * table.delta_k * (
            2.5 * w ** 3 - 1j * p.gamma * w * w) / abs(k) for k, w in ws]))
    return _report(8, "evolved vacuum stays aligned and normalized",
                   "truncated norm deviation <= 1e-4 at order 4, "
                   "t*scale <= 0.1; n-pair sums to 1e-12",
                   checks)


# -- 9: entanglement witness --------------------------------------------------

def criterion_9_entanglement() -> dict:
    table = _states_lattice(n_max=2)  # 4 modes
    geom = GeometrySpec("infinite_line")
    part = {table.momentum_indices()[0]}
    checks = []
    for gamma in (0.5, 0.0):
        p = FieldParams(m=1.0, gamma=gamma)
        state = asymptotic_state_finite(1, p, -1.0, 2.0, table)
        checks.append((f"rank(gamma={gamma:g})", schmidt_rank(state, part), 2,
                       ">="))
    p = FieldParams(m=1.0, gamma=0.5)
    rank_t0 = schmidt_rank(evolve_vacuum(0.0, 2, p, geom, table), part)
    checks.append(("rank(t=0)", rank_t0, 1, "=="))
    return _report(9, "asymptotic states are momentum-entangled",
                   "Schmidt rank >= 2 at order 1 (gamma > 0 and gamma = 0); "
                   "rank 1 at t = 0", checks)


# -- 10: cyclostationarity ----------------------------------------------------

def criterion_10_cyclostationarity() -> dict:
    table = _states_lattice()
    ts = [0.0, 1.0, 10.0, 50.0, 100.0]
    diag0 = asymptotic_state_infinite(ts, FieldParams(m=1.0, gamma=0.0), table)
    diagg = asymptotic_state_infinite([1.0, 5.0], FieldParams(m=1.0, gamma=0.7), table)
    checks = [("non-cyclostationary t > 0 at gamma=0",
               sum(not d["is_cyclostationary"] for d in diag0 if d["t"] > 0),
               0, "==")]
    checks += [(f"|growth rate - predicted| at t={d['t']:g}",
                abs(d["modulus_growth_rate"] - d["predicted_growth_rate"]),
                0.01 * d["predicted_growth_rate"], "<=") for d in diagg]
    return _report(10, "infinite geometry: oscillation vs divergence",
                   "modulus drift < 1e-12 on t in [0, 100] at gamma = 0; "
                   "growth rate within 1% of gamma * lattice sum at gamma > 0",
                   checks)


# -- 11: projection views -----------------------------------------------------

def criterion_11_projections() -> dict:
    table = _states_lattice(n_max=2)
    p = FieldParams(m=1.0, gamma=0.5)
    state = asymptotic_state_finite(2, p, -1.0, 2.0, table)
    pv = project_view(state, "plus")
    mv = project_view(state, "minus")
    plus, minus = pv.excited_support(), mv.excited_support()
    rec = (pv + mv).amplitudes
    amps = state.amplitudes
    return _report(11, "sector projections split and recompose the state",
                   "disjoint excited supports with the right species tags; "
                   "exact recomposition",
                   [("plus-view kets with other tags",
                     sum({l[0] for l in key} != {st.TAG_MIRROR} for key in plus),
                     0, "=="),
                    ("minus-view kets with other tags",
                     sum({l[0] for l in key} != {st.TAG_SYSTEM} for key in minus),
                     0, "=="),
                    ("kets excited in both views", len(plus & minus), 0, "<="),
                    ("kets in only one of state and recomposition",
                     len(set(rec) ^ set(amps)), 0, "=="),
                    ("worst recomposition error",
                     max(((rec[k] - amps[k]).norm() for k in amps if k in rec),
                         default=0.0), 0.0, "<=")])


# -- 12: figure shape regression ----------------------------------------------

def criterion_12_figures() -> dict:
    table = generic_table()
    p = FieldParams(m=1.0, gamma=0.0)

    rows = fc.figure_data("fig1", (0.05, 30.0, 120), p, table)
    mags = [math.hypot(r, i) for _x, r, i in rows]
    checks = [("fig1 non-decreasing steps", _rises(mags), 0, "=="),
              ("fig1 |value| at dx = 0.05", mags[0], 100.0 * mags[10], ">="),
              ("fig1 tail", mags[-1], 1e-8, "<")]

    rows2 = fc.figure_data("fig2", (0.2, 4.0, 160, 1.0), p, table)
    vals = [complex(r, i) for _x, r, i in rows2]
    jumps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    scale = max(abs(v) for v in vals)
    checks += [("fig2 non-finite values", sum(
                    not (math.isfinite(v.real) and math.isfinite(v.imag))
                    for v in vals), 0, "=="),
               ("fig2 largest jump", max(jumps), 0.1 * scale, "<=")]

    for fig in ("fig6", "fig7"):
        rows3 = fc.figure_data(fig, (0.1, 30.0, 100), p, table)
        mags3 = [math.hypot(r, i) for _x, r, i in rows3]
        checks += [(f"{fig} non-decreasing steps", _rises(mags3), 0, "=="),
                   (f"{fig} tail", mags3[-1], 1e-8, "<")]
    return _report(12, "figure sweeps reproduce the captioned shapes",
                   "divergence at dx -> 0, decay at dx -> inf, continuity in M",
                   checks)


CRITERIA = [
    criterion_1_ring_suite,
    criterion_2_dispersion_eom,
    criterion_3_commutator_invariance,
    criterion_4_bessel_oracle,
    criterion_5_limits,
    criterion_6_factor_five,
    criterion_7_vev_cancellation,
    criterion_8_alignment,
    criterion_9_entanglement,
    criterion_10_cyclostationarity,
    criterion_11_projections,
    criterion_12_figures,
]


def run_all(table: CommutationTable | None = None) -> list[dict]:
    """Run every acceptance criterion, timed; table goes to the two that
    take one: criterion 3 adds it to its lattices, 7 runs on it instead."""
    reports = []
    for fn in CRITERIA:
        cid = int(fn.__name__.split("_")[1])
        takes_table = "table" in inspect.signature(fn).parameters
        t0 = time.perf_counter()
        try:
            report = fn(table) if table is not None and takes_table else fn()
        except Exception as exc:  # a raising criterion is a failing criterion
            report = dict(_report(cid, fn.__name__, "n/a", []),
                          detail=f"raised {type(exc).__name__}: {exc}",
                          traceback=traceback.format_exc())
        report["seconds"] = time.perf_counter() - t0
        reports.append(report)
    return reports

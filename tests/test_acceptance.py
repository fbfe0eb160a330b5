"""Acceptance gate: every criterion runs at its stated tolerance.

One run of hyperfield.verification.run_all (the same code path the
`hyperfield verify` command uses) feeds a test per criterion, which prints
its report line.  The guard tests check that every report is derived from
its check records, and that seeded defects fail through them.
"""

import dataclasses
import inspect
import math

import pytest

from hyperfield import commutators as fc
from hyperfield import observables, states
from hyperfield import verification as vf
from hyperfield.modes import omega
from hyperfield.observables import h_gamma
from hyperfield.operators import CommutationTable, OperatorPoly, VacuumRules
from hyperfield.ring import Bicomplex, in_sector

from algebra_reference import merged_pair


@pytest.fixture(scope="module")
def reports():
    return vf.run_all()


@pytest.mark.parametrize("index", range(len(vf.CRITERIA)),
                         ids=[fn.__name__ for fn in vf.CRITERIA])
def test_criterion_passes(reports, index):
    print(vf.report_line(reports[index]))
    assert reports[index]["passed"], reports[index]["detail"]


def test_all_criteria_via_runner(reports):
    assert len(reports) == 12
    assert all(r["passed"] for r in reports)


def _assert_derived(report: dict):
    """passed and detail follow from the check records and nothing else."""
    checks = report["checks"]
    assert checks, report
    for c in checks:
        assert c["relation"] in vf.RELATIONS, c
        assert c["passed"] == vf.RELATIONS[c["relation"]](c["measured"],
                                                          c["bound"])
        if not c["passed"]:
            assert f"FAILED {c['name']} " in report["detail"]
    assert report["passed"] == all(c["passed"] for c in checks)


@pytest.mark.parametrize("index", range(len(vf.CRITERIA)),
                         ids=[fn.__name__ for fn in vf.CRITERIA])
def test_report_is_derived_from_its_checks(reports, index):
    report = reports[index]
    assert report["id"] == index + 1
    assert report["seconds"] >= 0.0
    _assert_derived(report)


def test_check_names_are_unique_within_each_report(reports):
    # the seeded-defect tests name the checks they expect to fail
    for report in reports:
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)), report["detail"]


def test_perturbed_h_gamma_fails_criterion_6(monkeypatch):
    h_gamma = vf.h_gamma
    monkeypatch.setattr(vf, "h_gamma", lambda k, kp, p: h_gamma(k, kp, p)
                        + 1e-9 * h_gamma(k, kp, p).real)
    report = vf.criterion_6_factor_five()
    _assert_derived(report)
    assert not report["passed"]
    assert "FAILED worst relative deviation" in report["detail"]


def test_tripled_unconjugated_eta_k_fails_criterion_6(monkeypatch):
    def seeded(k, params):
        return 3.0 * (omega(k, params) / abs(k)) * h_gamma(k, k, params)
    monkeypatch.setattr(states, "eta_k", seeded)
    report = vf.criterion_6_factor_five()
    _assert_derived(report)
    assert not report["passed"]
    assert "FAILED worst eta_k relative deviation" in report["detail"]
    assert "FAILED worst relative deviation" not in report["detail"]


def test_swapped_vev_eigenvalues_fail_criterion_7(monkeypatch):
    vev = vf.vev
    monkeypatch.setattr(vf, "vev", lambda poly, rules, table: vev(
        poly, VacuumRules(rules.lambda2, rules.lambda1, False), table))
    report = vf.criterion_7_vev_cancellation()
    _assert_derived(report)
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "constrained |<H>|": False, "constrained |<Q>|": False,
        "generic |<H>|": True, "generic |<Q>|": True,
        "|H - H+| / max |H|": True, "|Q + Q+| / max |Q|": True}


def _unconjugated_hc(params, geom, table, t=0.0):
    """H whose h.c. half carries w where it should carry conj(w)."""
    h = OperatorPoly.zero()
    for i, j, w in observables.hamiltonian_terms(params, geom, table, t):
        h = (h + merged_pair(("a1", "b1"), i, j, in_sector(True, w))
             + merged_pair(("b2", "a2"), j, i, in_sector(False, w))
             + merged_pair(("a1", "b1"), i, j, in_sector(False, w), True)
             + merged_pair(("b2", "a2"), j, i, in_sector(True, w), True))
    return h


def _flipped_daggered_charge(params, table):
    """Q with the sign of its daggered block flipped."""
    q = observables.charge_poly(params, table)
    return OperatorPoly({word: -c if word[0].dagger else c
                         for word, c in q.terms.items()})


@pytest.mark.parametrize("builder, defect, failing", [
    ("hamiltonian_poly", _unconjugated_hc, "|H - H+| / max |H|"),
    ("charge_poly", _flipped_daggered_charge, "|Q + Q+| / max |Q|")],
    ids=["unconjugated_hc", "flipped_daggered_charge"])
def test_non_hermitian_operator_fails_criterion_7(monkeypatch, builder,
                                                  defect, failing):
    monkeypatch.setattr(vf, builder, defect)
    report = vf.criterion_7_vev_cancellation()
    _assert_derived(report)
    assert not report["passed"]
    residual = {c["name"]: c["measured"] for c in report["checks"]}[failing]
    assert residual > 0.1
    assert f"FAILED {failing} " in report["detail"]


def _seeded_expansion(monkeypatch, rewrite):
    """states._expansion_kets with each amplitude rewritten."""
    walk = states._expansion_kets
    monkeypatch.setattr(states, "_expansion_kets", lambda weights, order: (
        (label, key, rewrite(key, amp))
        for label, key, amp in walk(weights, order)))


def _unconjugated_double_weight(monkeypatch):
    def seeded(t, order, params, geom, table):
        pairs = {(i, j): 2j * t * w for i, j, w
                 in states.hamiltonian_terms(params, geom, table, t)}
        return states.StateVector(pairs, order)
    monkeypatch.setattr(vf, "evolve_vacuum", seeded)


def _without_multiplicity(monkeypatch):
    _seeded_expansion(monkeypatch, lambda key, amp: amp * Bicomplex(float(
        math.prod(math.factorial(key.count(p)) for p in set(key)))))


def _swapped_sectors(monkeypatch):
    _seeded_expansion(monkeypatch,
                      lambda key, amp: Bicomplex(amp.x, amp.y, -amp.u, -amp.v))


def _tripled_unconjugated_eta_k(monkeypatch):
    monkeypatch.setattr(states, "eta_k", lambda k, params: 3.0 * (
        omega(k, params) / abs(k)) * h_gamma(k, k, params))


@pytest.mark.parametrize("seed_defect, failing", [
    (_unconjugated_double_weight, ["evolve_vacuum"]),
    (_without_multiplicity, ["evolve_vacuum", "asymptotic_state_finite"]),
    (_swapped_sectors, ["evolve_vacuum", "asymptotic_state_finite"]),
    (_tripled_unconjugated_eta_k, ["asymptotic_state_finite"])],
    ids=["pair_weight_2j_t_w", "no_division_by_mult", "swapped_sectors",
         "tripled_unconjugated_eta_k"])
def test_state_defect_fails_criterion_8(monkeypatch, seed_defect, failing):
    seed_defect(monkeypatch)
    report = vf.criterion_8_alignment()
    _assert_derived(report)
    assert not report["passed"]
    for name in ("evolve_vacuum", "asymptotic_state_finite"):
        assert ((f"FAILED {name} n-pair amplitude sums" in report["detail"])
                == (name in failing))


def _scaled_k1(monkeypatch):
    k1 = fc._scipy_k1
    monkeypatch.setattr(fc, "_scipy_k1", lambda z: k1(z) * (1.0 + 1e-5))


def _scaled_y1(monkeypatch):
    y1 = fc._scipy_y1
    monkeypatch.setattr(fc, "_scipy_y1", lambda z: y1(z) * (1.0 + 1e-9))


def _sum_for_difference_bracket(monkeypatch):
    monkeypatch.setattr(fc, "difference_bracket", fc.sum_bracket)


def _tripled_difference_bracket(monkeypatch):
    bracket = fc.difference_bracket
    monkeypatch.setattr(fc, "difference_bracket",
                        lambda table: bracket(table) * Bicomplex(3.0))


def _plus_m2_in_pi_pi_weight(monkeypatch):
    # weight(0) = -M^2, so -k^2 - M^2 becomes -k^2 + M^2
    profile = fc.lattice_delta_profile

    def seeded(dx, table, weight=None):
        if weight is None:
            return profile(dx, table)
        return profile(dx, table, lambda k: weight(k) - 2.0 * weight(0.0))
    monkeypatch.setattr(fc, "lattice_delta_profile", seeded)


def _swapped_project_view(monkeypatch):
    view = vf.project_view
    monkeypatch.setattr(vf, "project_view", lambda state, side: view(
        state, "minus" if side == "plus" else "plus"))


def _closed_form_doubled_beyond_10(monkeypatch):
    row = fc.KERNELS["omega-pi"]
    profile = row.profile

    def seeded(r, adx):
        value = profile(r, adx)
        return 2.0 * value if adx > 10.0 else value
    monkeypatch.setitem(fc.KERNELS, "omega-pi", row._replace(profile=seeded))


def _rank_without_left_labels(monkeypatch):
    rank = vf.schmidt_rank
    monkeypatch.setattr(vf, "schmidt_rank",
                        lambda state, partition: rank(state, set()))


def _rank_counting_zero_values(monkeypatch):
    monkeypatch.setattr(vf, "schmidt_rank", lambda state, partition: len(
        states.schmidt_spectrum(state, partition)))


def _edited_diagnostics(monkeypatch, edit):
    """Criterion 10 reads each diagnostics row through edit(row)."""
    diagnose = vf.asymptotic_state_infinite
    monkeypatch.setattr(vf, "asymptotic_state_infinite", lambda *args: [
        edit(d) for d in diagnose(*args)])


def _predicted_rate_2pc_high(monkeypatch):
    _edited_diagnostics(monkeypatch, lambda d: dict(
        d, predicted_growth_rate=1.02 * d["predicted_growth_rate"]))


def _never_cyclostationary(monkeypatch):
    _edited_diagnostics(monkeypatch,
                        lambda d: dict(d, is_cyclostationary=False))


@pytest.mark.parametrize("seed_defect, cid, failing", [
    (_rank_without_left_labels, 9, {"rank(gamma=0.5)", "rank(gamma=0)"}),
    (_rank_counting_zero_values, 9, {"rank(t=0)"}),
    (_scaled_k1, 4, {"omega-pi worst relative error",
                     "w-pi-pi worst relative error"}),
    (_scaled_y1, 4, {"omega-pi-m0 worst relative error"}),
    (_sum_for_difference_bracket, 3, {"omega_omega delta route vs engine",
                                      "pi_pi delta route vs engine"}),
    (_tripled_difference_bracket, 3, {"omega_omega delta route vs engine",
                                      "pi_pi delta route vs engine"}),
    (_plus_m2_in_pi_pi_weight, 3, {"pi_pi delta route vs engine"}),
    (_swapped_project_view, 11, {"plus-view kets with other tags",
                                 "minus-view kets with other tags"}),
    (_closed_form_doubled_beyond_10, 12, {"fig1 non-decreasing steps"}),
    (_predicted_rate_2pc_high, 10, {"|growth rate - predicted| at t=1",
                                    "|growth rate - predicted| at t=5"}),
    (_never_cyclostationary, 10, {"non-cyclostationary t > 0 at gamma=0"})],
    ids=["rank_without_left_labels", "rank_counting_zero_values",
         "k1_scaled_1e-5", "y1_scaled_1e-9", "sum_for_difference_bracket",
         "tripled_difference_bracket", "plus_m2_in_pi_pi_weight",
         "swapped_views", "closed_form_doubled_beyond_dx_10",
         "predicted_rate_2pc_high", "never_cyclostationary"])
def test_seeded_defect_fails_only_its_criterion(monkeypatch, seed_defect,
                                                cid, failing):
    seed_defect(monkeypatch)
    reports = vf.run_all()
    for report in reports:
        _assert_derived(report)
    assert [r["id"] for r in reports if not r["passed"]] == [cid]
    assert {c["name"] for c in reports[cid - 1]["checks"]
            if not c["passed"]} == failing


def test_inexact_gamma_fails_criterion_2(monkeypatch):
    # Gamma one ulp off -/+ gamma/2: too small for the residual to see, but
    # the criterion compares it with -/+ gamma/2 written out on its own
    make_mode = vf.make_mode

    def seeded(*args):
        mode = make_mode(*args)
        return dataclasses.replace(mode,
                                   Gamma=math.nextafter(mode.Gamma, math.inf))
    monkeypatch.setattr(vf, "make_mode", seeded)
    report = vf.criterion_2_dispersion_eom()
    _assert_derived(report)
    assert not report["passed"]
    assert "FAILED modes with inexact Gamma" in report["detail"]
    assert "FAILED worst relative residual" not in report["detail"]


ROUTE_CHECKS = {"omega_omega delta route vs engine",
                "pi_pi delta route vs engine",
                "weighted omega_pi delta route vs engine"}


def test_sigma_table_fails_criterion_3_through_its_checks():
    table = CommutationTable(rho=(Bicomplex.one(),) + (Bicomplex.zero(),) * 3,
                             sigma=(Bicomplex(0.3, 0, 0, 0),) * 4,
                             delta_k=0.1, N=16, stagger=True)
    report = vf.criterion_3_commutator_invariance(table)
    _assert_derived(report)
    assert {c["name"] for c in report["checks"]
            if not c["passed"]} == ROUTE_CHECKS


def test_default_table_passes_criterion_3():
    # rho1 = rho4 = 1: B_diff = 0, so both commutators vanish identically
    report = vf.criterion_3_commutator_invariance(
        CommutationTable(delta_k=0.25, N=5))
    _assert_derived(report)
    assert report["passed"], report["detail"]


@pytest.mark.parametrize("table", [None, CommutationTable(delta_k=0.25, N=5)],
                         ids=["no_table", "default"])
def test_damping_defect_fails_criterion_3(monkeypatch, table):
    # a1's damping rate off by 1e-9 relative.  A defect shared by every
    # ladder scales all terms alike, which the default table's vanishing
    # B_diff hides; one ladder's defect breaks the rho1/rho4 cancellation.
    ladder = fc._ladder_poly

    def seeded(x, t, params, lattice, weighted, entries):
        drift = math.exp(-1e-9 * params.gamma * t / 2.0)

        def skewed(*args):
            return [(s, dagger, sector, c * drift if s == "a1" else c)
                    for s, dagger, sector, c in entries(*args)]
        return ladder(x, t, params, lattice, weighted, skewed)
    monkeypatch.setattr(fc, "_ladder_poly", seeded)
    report = vf.criterion_3_commutator_invariance(table)
    _assert_derived(report)
    assert not any(c["passed"] for c in report["checks"])
    assert {c["name"] for c in report["checks"]} == ROUTE_CHECKS


def test_raising_criterion_fails_without_checks(monkeypatch):
    def criterion_6_seeded():
        raise ArithmeticError("seeded defect")
    monkeypatch.setattr(vf, "CRITERIA", [criterion_6_seeded])
    [report] = vf.run_all()
    assert report["id"] == 6 and report["passed"] is False
    assert report["checks"] == []
    assert report["detail"] == "raised ArithmeticError: seeded defect"
    assert report["traceback"].splitlines()[-1] == (
        "ArithmeticError: seeded defect")
    assert "criterion_6_seeded" in report["traceback"]


def test_table_goes_only_to_criteria_that_take_one(monkeypatch):
    seen = []

    def criterion_1_plain():
        seen.append(None)
        return vf._report(1, "plain", "", [("x", 0, 0, "==")])

    def criterion_2_table(table=None):
        seen.append(table)
        return vf._report(2, "table", "", [("x", 0, 0, "==")])
    monkeypatch.setattr(vf, "CRITERIA", [criterion_1_plain, criterion_2_table])
    assert all(r["passed"] for r in vf.run_all(table="T"))
    assert seen == [None, "T"]


def test_only_criteria_3_and_7_take_a_table():
    # the two whose checks read rho or sigma; the others run on fixed tables
    assert [fn.__name__ for fn in vf.CRITERIA
            if "table" in inspect.signature(fn).parameters] == [
        "criterion_3_commutator_invariance", "criterion_7_vev_cancellation"]


def test_report_line_ends_with_worst_margin():
    # <= and < checks with a positive bound count; >=, == and bound 0 do not
    rep = vf._report(4, "demo", "tol", [("a", 2e-7, 1e-6, "<="),
                                        ("b", 3.0, 4.0, "<"),
                                        ("c", 50.0, 1.0, ">="),
                                        ("d", 7.0, 0.0, "<=")])
    assert vf.report_line(rep).endswith(
        "-- a 2e-07 <= 1e-06; b 3 < 4; c 50 >= 1; FAILED d 7 <= 0; "
        "worst measured/bound 0.75")
    bare = vf._report(9, "demo", "tol", [("rank", 2, 2, ">="),
                                         ("zero", 0.0, 0.0, "<=")])
    assert vf.report_line(bare).endswith("-- rank 2 >= 2; zero 0 <= 0")

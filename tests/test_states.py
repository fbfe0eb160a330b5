import argparse
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import algebra_reference as ref
from hyperfield import cli, states
from hyperfield.errors import (DomainError, PoleAtZeroMomentum,
                               TruncationOrderTooLarge)
from hyperfield.modes import FieldParams, omega
from hyperfield.observables import GeometrySpec, h_gamma, hamiltonian_terms
from hyperfield.operators import CommutationTable
from hyperfield.ring import Bicomplex, J_MINUS, J_PLUS
from hyperfield.states import (StateVector, TAG_MIRROR, TAG_SYSTEM,
                               asymptotic_state_finite,
                               asymptotic_state_infinite, eta_k, evolve_vacuum,
                               norm_preservation, project_view, schmidt_rank)


@pytest.fixture
def table():
    return CommutationTable(delta_k=0.2, N=4, stagger=True)  # 8 modes


@pytest.fixture
def params():
    return FieldParams(m=1.0, gamma=0.5)


GEOM = GeometrySpec("infinite_line")


class TestEvolveVacuum:
    def test_time_zero_is_vacuum(self, params, table):
        s = evolve_vacuum(0.0, 3, params, GEOM, table)
        assert set(s.amplitudes) == {()}
        assert s.amplitudes[()].is_close(Bicomplex.one())

    def test_first_order_amplitudes(self, params, table):
        s = evolve_vacuum(0.7, 1, params, GEOM, table)
        dk = table.delta_k
        for key, amp in s.amplitudes.items():
            if not key:
                continue
            (tag, i, j, _flag), = key
            assert i == j
            k = table.momentum(i)
            z = 1j * 0.7 * (2 * math.pi * dk * h_gamma(k, k, params)).conjugate()
            if tag == TAG_MIRROR:
                assert amp.is_close(J_PLUS * Bicomplex.from_complex(z), 1e-13)
            else:
                assert amp.is_close(J_MINUS * Bicomplex.from_complex(z), 1e-13)

    def test_both_orderings_created(self, params, table):
        s = evolve_vacuum(0.7, 1, params, GEOM, table)
        flags = {key[0][3] for key in s.amplitudes if key}
        assert flags == {0, 1}

    def test_basis_cap(self, params, table, monkeypatch):
        monkeypatch.setattr(states, "BASIS_CAP", 100)
        # 1 + 2 * 16 = 33 kets fit at order 1; order 2 would make 305
        with pytest.raises(TruncationOrderTooLarge,
                           match=r"^basis would exceed cap 100 at order 2$"):
            evolve_vacuum(0.7, 3, params, GEOM, table)

    def test_basis_cap_counts_zero_kets(self, monkeypatch):
        # degree-2 and degree-3 products of these weights underflow to zero:
        # the breadth-first route counted nonzero kets, 29 at most, and
        # passed; every multiset counts now, both sectors at each order:
        # 1 + 2 (4 + 10) = 29 fit at order 2, + 2 * 20 = 69 > 40 at order 3
        monkeypatch.setattr(states, "BASIS_CAP", 40)
        pairs = {(0, 0): complex(1e-200), (1, 1): complex(1e-200)}
        assert len(ref.expand_exponential_breadth_first(pairs, 3)) == 9
        assert len(StateVector(pairs, 2).amplitudes) == 9
        with pytest.raises(TruncationOrderTooLarge,
                           match=r"^basis would exceed cap 40 at order 3$"):
            StateVector(pairs, 3)

    def test_listing_below_order_two_builds_no_extension_table(self, params):
        # 2000 modes, 4000 labels a sector: a table of each label's later
        # labels, 8e6 entries, peaked at 137 MB under tracemalloc even at
        # order 0; the listing alone peaks at 1.8 MB
        table = CommutationTable(delta_k=0.1, N=1000, stagger=True)
        for order, kets in ((0, 1), (1, 8001)):
            state = evolve_vacuum(0.01, order, params, GEOM, table)
            tracemalloc.start()
            try:
                count = sum(1 for _ in state.kets())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert count == kets
            assert peak < 8e6, peak

    def test_riemann_refinement(self, params):
        def total_first_order(dk, n):
            t = CommutationTable(delta_k=dk, N=n, stagger=True)
            s = evolve_vacuum(0.3, 1, params, GEOM, t)
            tot = Bicomplex.zero()
            for key, amp in s.amplitudes.items():
                if key:
                    tot = tot + amp
            return tot
        a = total_first_order(0.2, 10)
        b = total_first_order(0.1, 20)
        assert (a - b).norm() / b.norm() < 0.01


def _vacuum() -> StateVector:
    """The vacuum |0>: the expansion of an empty exponent at order 0."""
    return StateVector({}, 0)


class TestNormPreservation:
    def test_zero_deviation(self, params, table):
        for t, order in ((0.0, 2), (0.5, 3), (2.0, 4)):
            assert norm_preservation(t, order, params, GEOM, table) == 0.0

    def test_sums_the_kets_without_a_map(self, monkeypatch, params, table):
        built = []
        evolve = states.evolve_vacuum

        def spy(*args):
            built.append(evolve(*args))
            return built[-1]

        monkeypatch.setattr(states, "evolve_vacuum", spy)
        # the walk alone, no ket map
        monkeypatch.setattr(StateVector, "amplitudes", property(
            lambda _state: pytest.fail("norm_preservation built the ket map")))
        dev = norm_preservation(0.5, 3, params, GEOM, table)
        monkeypatch.undo()
        state, = built
        assert dev.hex() == states.amplitude_norm_deviation(
            state.amplitudes.values()).hex()

    def test_small_t_order_4(self, params, table):
        scale = sum(abs(w) for _i, _j, w in
                    hamiltonian_terms(params, GEOM, table))
        t = 0.1 / scale
        assert norm_preservation(t, 4, params, GEOM, table) <= 1e-4


class TestEta:
    def test_structure(self, params):
        for k in (0.3, -0.7, 2.0):
            w = omega(k, params)
            e = eta_k(k, params)
            assert e.real == pytest.approx(2.5 * w ** 3 / abs(k), rel=1e-13)
            assert e.imag == pytest.approx(-params.gamma * w * w / abs(k), rel=1e-13)

    def test_gamma_zero_degenerates(self):
        p = FieldParams(m=1.0, gamma=0.0)
        k = 0.9
        e = eta_k(k, p)
        assert e.imag == 0.0
        assert e.real == pytest.approx(2.5 * (k * k + 1.0) ** 1.5 / k, rel=1e-13)

    def test_pole(self, params):
        with pytest.raises(PoleAtZeroMomentum):
            eta_k(0.0, params)


class TestAsymptoticFinite:
    def test_order_zero_is_vacuum(self, params, table):
        s = asymptotic_state_finite(0, params, -1.0, 2.0, table)
        assert set(s.amplitudes) == {()}

    def test_first_order_matches_independent_sum(self, params, table):
        # lattice amplitudes equal the directly evaluated kernel weights
        s = asymptotic_state_finite(1, params, -1.0, 2.0, table)
        length = 3.0
        for key, amp in s.amplitudes.items():
            if not key:
                continue
            (tag, i, j, _flag), = key
            assert i == j
            k = table.momentum(i)
            w = omega(k, params)
            hbar = h_gamma(k, k, params).conjugate()
            z = length * table.delta_k * (w / abs(k)) * hbar
            sector = J_PLUS if tag == TAG_MIRROR else J_MINUS
            assert amp.is_close(sector * Bicomplex.from_complex(z), 1e-12)

    def test_pole_guard(self, params):
        t0 = CommutationTable(delta_k=0.2, N=4, stagger=False)
        with pytest.raises(PoleAtZeroMomentum):
            asymptotic_state_finite(1, params, -1.0, 2.0, t0)

    def test_cross_term_optional(self, params, table):
        base = asymptotic_state_finite(1, params, -1.0, 2.0, table)
        crossed = asymptotic_state_finite(1, params, -1.0, 2.0, table,
                                          include_cross_term=True)
        assert len(crossed.amplitudes) > len(base.amplitudes)


class TestProjections:
    def test_views(self, params, table):
        s = asymptotic_state_finite(2, params, -1.0, 2.0, table)
        pv = project_view(s, "plus")
        mv = project_view(s, "minus")
        assert all({l[0] for l in key} == {TAG_MIRROR} for key in pv if key)
        assert all({l[0] for l in key} == {TAG_SYSTEM} for key in mv if key)
        assert pv.keys() & mv.keys() == {()}
        amps = s.amplitudes
        assert pv.keys() | mv.keys() == amps.keys()
        zero = Bicomplex.zero()
        for key, amp in amps.items():
            assert (pv.get(key, zero) + mv.get(key, zero)).is_close(amp, 0.0)

    def test_vacuum_in_both_views(self, params, table):
        s = asymptotic_state_finite(1, params, -1.0, 2.0, table)
        assert () in project_view(s, "plus")
        assert () in project_view(s, "minus")


class TestSchmidtRank:
    def test_vacuum_rank_one(self):
        assert schmidt_rank(_vacuum(), {0}) == 1

    def test_entangled_asymptotic_states(self, table):
        part = {table.momentum_indices()[0]}
        for gamma in (0.5, 0.0):
            p = FieldParams(m=1.0, gamma=gamma)
            s = asymptotic_state_finite(1, p, -1.0, 2.0, table)
            assert schmidt_rank(s, part) >= 2

    def test_single_momentum_lattice(self):
        # one momentum per half-axis: partition against empty complement
        t1 = CommutationTable(delta_k=0.5, N=1, stagger=True)
        p = FieldParams(m=1.0, gamma=0.3)
        s = asymptotic_state_finite(1, p, -1.0, 1.0, t1)
        all_indices = set(t1.momentum_indices())
        assert schmidt_rank(s, all_indices) == 1

    def test_against_explicit_svd(self, params, table):
        # build the plus-sector amplitude matrix by hand and SVD it
        s = asymptotic_state_finite(1, params, -1.0, 2.0, table)
        part = {table.momentum_indices()[0]}
        split = {}
        for key, amp in s.amplitudes.items():
            left = tuple(p for p in key if p[1] in part)
            right = tuple(p for p in key if p[1] not in part)
            split[(left, right)] = amp.plus()
        lefts = sorted({k[0] for k in split})
        rights = sorted({k[1] for k in split})
        mat = np.zeros((len(lefts), len(rights)), dtype=complex)
        for (l, r), v in split.items():
            mat[lefts.index(l), rights.index(r)] = v
        sv = np.linalg.svd(mat, compute_uv=False)
        assert schmidt_rank(s, part) == int((sv > 1e-10).sum())

    def test_rank_ignores_amplitude_scale(self):
        # the amplitudes grow with L2 - L1; an absolute cutoff counted the
        # round-off singular values of the longer intervals (6, 7, 8)
        t = CommutationTable(delta_k=0.1, N=8, stagger=True)
        p = FieldParams(m=2.0, gamma=1.5)
        part = {t.momentum_indices()[0]}
        ranks = [schmidt_rank(asymptotic_state_finite(3, p, -ell, ell, t), part)
                 for ell in (1.0, 4.0, 8.0, 20.0)]
        assert ranks == [4, 4, 4, 4]

    def test_rank_ignores_row_order(self):
        # singular values 9.2e9 down to 1.0e6, then round-off from 5e-7 down;
        # no row or column order of the ket-by-ket oracle may let the
        # round-off count (the package's degree-block matrix has no rows
        # per ket)
        t = CommutationTable(delta_k=0.1, N=8, stagger=True)
        s = asymptotic_state_finite(3, FieldParams(m=2.0, gamma=1.5),
                                    -20.0, 20.0, t)
        part = {t.momentum_indices()[0]}
        items = list(s.amplitudes.items())
        rng = np.random.default_rng(5)
        for _ in range(4):
            order = rng.permutation(len(items))
            shuffled = dict(items[n] for n in order)
            assert ref.schmidt_rank_dense(shuffled, part) == 4

    def test_overflowing_norm_raises(self):
        # finite amplitudes (largest component 4.0e307) whose singular
        # values overflow; counted against inf, no value was kept, rank 0
        t = CommutationTable(delta_k=0.1, N=2, stagger=True)
        s = asymptotic_state_finite(2, FieldParams(m=1.0, gamma=0.5),
                                    -1e153, 1e153, t)
        assert all(math.isfinite(c) for a in s.amplitudes.values()
                   for c in a.to_tuple())
        with pytest.raises(DomainError):
            schmidt_rank(s, {-2})


# fixed before any comparison: LAPACK's singular values carry an absolute
# error of a few ulps of sigma_1 on either route
SPECTRUM_TOL = 1e-9


def _cuts(table) -> dict:
    """First-index and middle-index partitions, and the half lattice."""
    idx = table.momentum_indices()
    return {"first": {idx[0]}, "middle": {idx[len(idx) // 2]},
            "half": set(idx[:len(idx) // 2])}


def _oracle_cases(builder: str, modes: int):
    """(state, cut) pairs: orders 0-3, gamma 0 and 0.5, and per builder
    t in {0, 1e-6, 0.05, 1} on the infinite line (and at orders 0-2 on a
    4-mode finite interval) or the cross term off and on.  Where a side
    holds 16 labels at order 3 (the 4-mode interval, the 8-mode cross
    term) the oracle's matrix has 1937 rows and takes seconds, so that
    state is left out, or only its half-lattice cut."""
    table = CommutationTable(delta_k=0.2, N=modes // 2, stagger=True)
    line, interval = (GeometrySpec(kind, -1.0, 2.0)
                      for kind in ("infinite_line", "finite_interval"))
    for order, gamma in itertools.product(range(4), (0.0, 0.5)):
        p = FieldParams(m=1.0, gamma=gamma)
        if builder == "evolve":
            geoms = [line] + [interval] * (modes == 4 and order < 3)
            built = [(evolve_vacuum(t, order, p, geom, table), True)
                     for geom in geoms for t in (0.0, 1e-6, 0.05, 1.0)]
        else:
            built = [(asymptotic_state_finite(order, p, -1.0, 2.0, table,
                                              include_cross_term=cross),
                      modes == 4 or not cross or order < 3)
                     for cross in (False, True)]
        for state, half in built:
            for name, cut in _cuts(table).items():
                if half or name != "half":
                    yield state, cut


class TestSchmidtOracle:
    """The degree-block spectrum against the ket-by-ket oracle."""

    @staticmethod
    def assert_matches(state, cut):
        amps = state.amplitudes
        assert schmidt_rank(state, cut) == ref.schmidt_rank_dense(amps, cut)
        got = states.schmidt_spectrum(state, cut)
        want = ref.schmidt_spectrum_dense(amps, cut)
        assert len(want) == 2
        for w in want:  # the one spectrum is each sector's
            # the nonzero values agree; either side's surplus is zeros
            size = max(len(got), len(w))
            g, w = (np.pad(v, (0, size - len(v))) for v in (got, w))
            assert np.abs(g - w).max() <= SPECTRUM_TOL * w[0], (g, w)

    @pytest.mark.parametrize("builder", ["evolve", "asymptotic"])
    @pytest.mark.parametrize("modes", [4, 8])
    def test_matches_dense_oracle(self, builder, modes):
        for state, cut in _oracle_cases(builder, modes):
            self.assert_matches(state, cut)

    def test_vacuum_and_empty_exponent(self):
        for state in (_vacuum(), StateVector({}, 3)):
            assert list(states.schmidt_spectrum(state, {0})) \
                == [1.0] + [0.0] * state.truncation_order
            self.assert_matches(state, {0})


def test_rank_decomposes_degree_blocks_only(monkeypatch):
    # at the ket-by-ket route this state's first-index matrix was 19 x 1359
    svd = states.np.linalg.svd
    shapes = []
    monkeypatch.setattr(states.np.linalg, "svd", lambda mat, **kw: (
        shapes.append(mat.shape) or svd(mat, **kw)))
    table = CommutationTable(delta_k=0.2, N=4, stagger=True)  # 8 modes
    state = asymptotic_state_finite(3, FieldParams(m=1.0, gamma=0.5),
                                    -1.0, 2.0, table)
    for cut in _cuts(table).values():
        assert schmidt_rank(state, cut) == 4
    # one SVD per rank, shared by both sectors
    assert shapes == [(4, 4)] * len(_cuts(table))


class TestAsymptoticInfinite:
    def test_cyclostationary_at_gamma_zero(self, table):
        p = FieldParams(m=1.0, gamma=0.0)
        out = asymptotic_state_infinite([0.0, 1.0, 10.0, 100.0], p, table)
        for d in out:
            assert not d["divergent"]
            if d["t"] > 0:
                assert d["is_cyclostationary"]
                assert abs(d["log_modulus"]) < 1e-12

    def test_growth_rate_matches_lattice_sum(self, table):
        p = FieldParams(m=1.0, gamma=0.7)
        out = asymptotic_state_infinite([1.0, 4.0], p, table)
        expected = p.gamma * 2 * math.pi * table.delta_k * sum(
            omega(table.momentum(i), p) for i in table.momentum_indices())
        for d in out:
            assert d["divergent"]
            assert d["modulus_growth_rate"] == pytest.approx(expected, rel=1e-10)

    def test_growth_rate_before_time_zero(self, table):
        # log_modulus / t is the predicted rate on both sides of t = 0
        p = FieldParams(m=1.0, gamma=0.7)
        for d in asymptotic_state_infinite([-2.0, -1.0], p, table):
            assert d["log_modulus"] < 0.0
            assert d["modulus_growth_rate"] == pytest.approx(
                d["predicted_growth_rate"], rel=1e-12, abs=0.0)

    def test_time_zero_vacuum(self, table):
        p = FieldParams(m=1.0, gamma=0.7)
        d = asymptotic_state_infinite([0.0], p, table)[0]
        assert d["log_modulus"] == 0.0
        assert d["modulus_growth_rate"] == 0.0

    def test_large_time_growth_stays_finite(self, table):
        # gamma > 0: |e^z| overflows a float at t = 1e4, the log modulus not
        p = FieldParams(m=1.0, gamma=0.7)
        d = asymptotic_state_infinite([1e4], p, table)[0]
        assert abs(d["modulus_growth_rate"] - d["predicted_growth_rate"]) \
            <= 0.01 * d["predicted_growth_rate"]
        assert not d["is_cyclostationary"] and d["divergent"]


class TestStateVector:
    def test_norm_of_zero_divisor_kets(self):
        # the excited amplitude pairs with itself to zero
        amps = [Bicomplex.one(), J_PLUS * Bicomplex(0.3, 0.4, 0, 0)]
        assert states.amplitude_norm_deviation(amps) == 0.0

    def test_jsonable_roundtrip_structure(self, params, table):
        s = asymptotic_state_finite(1, params, -1.0, 2.0, table)
        payload = s.to_jsonable()
        assert payload["truncation_order"] == 1
        assert "vacuum" in payload["amplitudes"]
        assert all(len(v) == 4 for v in payload["amplitudes"].values())

    def test_jsonable_keys_in_label_string_order(self, params, table):
        amps = asymptotic_state_finite(2, params, -1.0, 2.0, table,
                                       include_cross_term=True).to_jsonable()
        labels = list(amps["amplitudes"])
        assert labels == sorted(labels)


def _ring_deviation(amps: dict) -> str:
    """float.hex of |<state|state> - 1| summed as ring objects, in the
    map's order: the reference of states.amplitude_norm_deviation."""
    return (ref.inner_ring(amps, amps) - Bicomplex.one()).norm().hex()


def _hexes(amps: dict) -> list:
    """Keys in insertion order with the float.hex of every component."""
    return [(key, tuple(float.hex(c) for c in a.to_tuple()))
            for key, a in amps.items()]


def _in_order_of(state, amps: dict) -> dict:
    """amps reordered as the state's map, or unchanged if their keys differ.

    The package lists an expansion's kets depth-first in label-string
    order, the ring route breadth-first; the same kets must agree bit for
    bit, and a norm summed in the same order must too.
    """
    if set(amps) != set(state.amplitudes):
        return amps
    return {key: amps[key] for key in state.amplitudes}


def _expanded(monkeypatch, build):
    """Run build(); return the (pairs, order) its StateVector was built
    from and the state."""
    seen = []

    def spy(pairs, order):
        seen.append((pairs, order))
        return StateVector(pairs, order)

    monkeypatch.setattr(states, "StateVector", spy)
    state = build()
    (pairs, order), = seen
    return pairs, order, state


STAGGERED = CommutationTable(delta_k=0.2, N=3, stagger=True)
UNSTAGGERED = CommutationTable(delta_k=0.3, N=2, stagger=False)
FINITE = GeometrySpec("finite_interval", -1.1, 0.7)
P_REF = FieldParams(m=1.2, gamma=0.6)


def _evolved(t, table, geom, order=3):
    return lambda: evolve_vacuum(t, order, P_REF, geom, table)


def _asymptotic(cross):
    return lambda: asymptotic_state_finite(3, P_REF, -1.3, 1.7, STAGGERED,
                                           include_cross_term=cross)


class TestAgainstRingRoutes:
    """Closed-form expansion and norm against the Bicomplex routes."""

    @pytest.mark.parametrize("build", [
        _evolved(0.37, STAGGERED, GEOM), _evolved(-0.6, STAGGERED, GEOM),
        _evolved(0.0, STAGGERED, GEOM), _evolved(0.4, UNSTAGGERED, FINITE, 2),
        _evolved(-0.4, UNSTAGGERED, FINITE, 2),
        _evolved(-2.0, STAGGERED, FINITE, 2),
        _asymptotic(False), _asymptotic(True),
    ], ids=["infinite", "t_negative", "t_zero", "unstaggered_finite",
            "unstaggered_t_negative", "staggered_finite", "asymptotic",
            "asymptotic_cross_term"])
    def test_expansion_and_norm_bit_identical(self, monkeypatch, build):
        pairs, order, state = _expanded(monkeypatch, build)
        want = _in_order_of(state, ref.expand_exponential_ring(pairs, order))
        assert _hexes(state.amplitudes) == _hexes(want)
        got = states.amplitude_norm_deviation(state.amplitudes.values())
        assert got.hex() == _ring_deviation(want)

    def test_norm_of_general_amplitudes(self):
        # all four parts nonzero, so the grouping of each product's sums
        # decides its rounding; one-ket maps keep a sum from hiding it
        rng = np.random.default_rng(3)
        keys = [((TAG_MIRROR, i, i, 0),) for i in range(40)]

        def amps(kets):
            return {key: Bicomplex(*map(float, rng.uniform(-2, 2, 4)))
                    for key in keys[:kets]}

        for x in [amps(1) for _ in range(50)] + [amps(40), amps(30)]:
            got = states.amplitude_norm_deviation(x.values())
            assert got.hex() == _ring_deviation(x)

    def test_special_weights(self):
        # signed zeros, subnormals, overflow to inf and inf * 0 = nan
        inf, nan = math.inf, math.nan
        weights = [complex(-0.0, 5e-324), complex(1e308, -0.0),
                   complex(-5e-324, 1e-300), complex(inf, 1.0),
                   complex(nan, 0.0), complex(0.0, -inf),
                   complex(-0.0, -0.0), complex(-2.5, 0.75)]
        for pairs in ({(i, -i): z for i, z in enumerate(weights)},
                      # a zero weight sorts first, so it prefixes the inf
                      # label (0 * inf = nan) and the label at index 2
                      # that repeats 3 and 4 times (mult 6 and 24)
                      {(0, 0): complex(0.0, -0.0), (1, 1): complex(inf, 0.5),
                       (2, 2): complex(-1.5, 0.25)}):
            for order in (1, 2, 3, 4):
                state = StateVector(pairs, order)
                want = _in_order_of(state,
                                    ref.expand_exponential_ring(pairs, order))
                assert _hexes(state.amplitudes) == _hexes(want)
                assert states.amplitude_norm_deviation(
                    state.amplitudes.values()).hex() == _ring_deviation(want)
        zero, nan_ = (TAG_MIRROR, 0, 0, 0), (TAG_MIRROR, 1, 1, 0)
        assert math.isnan(state.amplitudes[(zero, nan_)].x)
        assert ((TAG_SYSTEM, 2, 2, 1),) * 4 in state.amplitudes


# lattices whose label-string order differs from tuple order: negative
# indices sort by their text ("-1," < "-10," < "-2,"), two-digit ones
# included, and the unstaggered lattices hold the index 0
TWO_DIGIT = CommutationTable(delta_k=0.15, N=10, stagger=True)
TWO_DIGIT_ZERO = CommutationTable(delta_k=0.15, N=10, stagger=False)
SMALL = CommutationTable(delta_k=0.2, N=2, stagger=True)
SMALL_ZERO = CommutationTable(delta_k=0.3, N=2, stagger=False)
CROSS = CommutationTable(delta_k=0.2, N=5, stagger=True)

WALK_CASES = {
    "evolve_two_digit": (TWO_DIGIT, lambda order, table: evolve_vacuum(
        0.37, order, P_REF, GEOM, table)),
    "evolve_index_zero": (TWO_DIGIT_ZERO, lambda order, table: evolve_vacuum(
        -0.3, order, P_REF, GEOM, table)),
    "evolve_finite_index_zero": (SMALL_ZERO, lambda order, table: evolve_vacuum(
        0.4, order, P_REF, FINITE, table)),
    "evolve_finite": (SMALL, lambda order, table: evolve_vacuum(
        -2.0, order, P_REF, FINITE, table)),
    "asymptotic_cross_term": (CROSS, lambda order, table: asymptotic_state_finite(
        order, P_REF, -1.3, 1.7, table, include_cross_term=True)),
}


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_walk_matches_breadth_first_map_and_dump(monkeypatch, tmp_path, case,
                                                 order):
    """The depth-first walk in dump order against the breadth-first map:
    the CLI's streamed dump, ket count and norm deviation, then the map
    built from the walk, ket for ket and in dump order."""
    table, build = WALK_CASES[case]
    pairs, _, state = _expanded(monkeypatch, lambda: build(order, table))
    want = ref.expand_exponential_breadth_first(pairs, order)
    assert sorted(pairs, key=lambda p: f"{p[0]},{p[1]},0") != sorted(pairs)

    out = tmp_path / "state.json"
    dev, kets, _, _ = cli._dump_state(state, table, argparse.Namespace(
        output=str(out)), cli.DEFAULT_CONFIG, "evolved", case)
    # by line, so a failure reports the first differing line at once
    assert out.read_text().splitlines(True) == ref.state_dump(
        want, order).splitlines(True)
    assert kets == len(want)

    assert list(state.weights.items()) == sorted(pairs.items())
    assert dict(_hexes(state.amplitudes)) == dict(_hexes(want))
    assert list(state.amplitudes) == sorted(want, key=ref.ket_label)
    assert dev.hex() == states.amplitude_norm_deviation(
        state.amplitudes.values()).hex()

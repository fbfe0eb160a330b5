"""Spans and counters wrapped around hyperfield's public functions from outside.

install() replaces each traced function wherever it is bound: the
attribute of its defining module, every hyperfield module that imported
the name (cli.evolve_vacuum, verification.evolve_vacuum, ...), the
verification.CRITERIA list, and class attributes for methods.  A span is
[name, start, end, parent index], kept in memory; fine-grained calls
(ring dunders, modes.omega, operators.commutator) only bump counters.

Metric conventions (per traced pass):
  <name>.s      self time: span durations minus the time their child
                spans cover
  <name>.calls  number of calls
  verification.criterion_N.s, cli.verb.<verb>.s  inclusive time
  cli.main.s    self time of main and the verbs together: parsing,
                formatting and file writes
  commutators.lattice_commutator.s.modesNN  inclusive seconds per call
                on an NN-mode lattice
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from hyperfield import (cli, commutators, modes, observables, operators, ring,
                        states, verification)

LATTICE_MODES = (17, 33, 65)


def _len_terms(poly):
    return len(poly.terms)


def _len_amps(state):
    return len(state.amplitudes)


# (owner, attribute, span name, count calls, measure of the result)
SPANS = [
    (verification, "ring_property_suite", "ring.suite", True, None),
    (operators.OperatorPoly, "__mul__", "operators.poly_mul", True,
     ("words_out", _len_terms)),
    (operators.OperatorPoly, "__add__", "operators.poly_add", True, None),
    (operators, "normal_order", "operators.normal_order", True,
     ("terms_out", _len_terms)),
    (operators, "vev", "operators.vev", True, None),
    (commutators, "lattice_commutator", "commutators.lattice_commutator",
     True, None),
    (commutators, "field_operator_poly", "commutators.field_poly", True, None),
    (commutators, "momentum_operator_poly", "commutators.field_poly", True, None),
    (commutators, "commutator_omega_pi_quadrature", "commutators.oracle",
     True, None),
    (commutators, "weighted_quadrature", "commutators.oracle", True, None),
    (commutators, "commutator_omega_pi_closed", "commutators.closed", True, None),
    (commutators, "weighted_commutators", "commutators.closed", True, None),
    # K0/K1 evaluations inside the weighted kernels' value_at closures
    (commutators, "bessel_k", "commutators.closed", False, None),
    (commutators, "figure_data", "commutators.figure_data", True, None),
    (commutators, "lattice_delta_profile", "commutators.lattice_delta_profile",
     True, None),
    (observables, "hamiltonian_poly", "observables.hamiltonian_poly", True,
     ("terms", _len_terms)),
    (observables, "charge_poly", "observables.charge_poly", True, None),
    (states, "evolve_vacuum", "states.evolve_vacuum", True, ("kets", _len_amps)),
    (states, "asymptotic_state_finite", "states.asymptotic_state_finite", True,
     ("kets", _len_amps)),
    (states, "norm_preservation", "states.norm_preservation", True, None),
    (states, "schmidt_rank", "states.schmidt_rank", True, None),
    (states.StateVector, "to_jsonable", "states.to_jsonable", True, None),
    (cli, "main", "cli.main", True, None),
    (cli, "cmd_evolve", "cli.verb.evolve", True, None),
    (cli, "cmd_asymptotic", "cli.verb.asymptotic", True, None),
    (cli, "cmd_commutator", "cli.verb.commutator", True, None),
] + [(verification, fn.__name__, f"verification.criterion_{i}", True, None)
     for i, fn in enumerate(verification.CRITERIA, start=1)]

COUNTERS = [
    (ring.Bicomplex, "__mul__", "ring.mul.calls"),
    (ring.Bicomplex, "__rmul__", "ring.mul.calls"),
    (ring.Bicomplex, "__add__", "ring.add.calls"),
    (ring.Bicomplex, "__radd__", "ring.add.calls"),
    (modes, "omega", "modes.omega.calls"),
]


class Tracer:
    """Holds the spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, count_calls, measure):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, \
            time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "operators.normal_order":
                counts["operators.normal_order.terms_in"] += len(args[0].terms)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            if count_calls:
                counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if measure:
                counts[f"{name}.{measure[0]}"] += measure[1](result)
            if name == "commutators.lattice_commutator":
                table = args[5] if len(args) > 5 else kwargs["table"]
                modes_ = len(table.momentum_indices())
                counts[f"{name}.s.modes{modes_}"] += span[2] - span[1]
                counts[f"{name}.calls.modes{modes_}"] += 1
            return result
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rewrite_counter(self, fn):
        """operators.commutator calls made directly inside normal_order."""
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "operators.normal_order":
                counts["operators.normal_order.rewrites"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in [m for n, m in sys.modules.items()
                    if n == "hyperfield" or n.startswith("hyperfield.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
        for i, fn in enumerate(verification.CRITERIA):
            if fn is original:
                self._undo.append((verification.CRITERIA, i, original))
                verification.CRITERIA[i] = wrapper

    def install(self) -> "Tracer":
        for owner, attr, name, count_calls, measure in SPANS:
            self._replace(owner, attr, self._span(getattr(owner, attr), name,
                                                  count_calls, measure))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr, self._counter(getattr(owner, attr), name))
        self._replace(operators, "commutator",
                      self._rewrite_counter(operators.commutator))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the pass, by the conventions above."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, incl = Counter(), Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            incl[name] += end - start
        c = self.counts
        out = {key: float(c[key]) for key in (
            "ring.mul.calls", "ring.add.calls", "modes.omega.calls",
            "operators.poly_mul.calls", "operators.poly_mul.words_out",
            "operators.poly_add.calls", "operators.normal_order.calls",
            "operators.normal_order.terms_in", "operators.normal_order.terms_out",
            "operators.normal_order.rewrites", "operators.vev.calls",
            "commutators.oracle.calls", "commutators.closed.calls",
            "observables.hamiltonian_poly.terms", "states.evolve_vacuum.kets",
            "states.asymptotic_state_finite.kets")}
        for name in ("ring.suite", "operators.poly_mul", "operators.poly_add",
                     "operators.normal_order", "operators.vev",
                     "commutators.field_poly", "commutators.oracle",
                     "commutators.closed", "commutators.figure_data",
                     "commutators.lattice_delta_profile",
                     "observables.hamiltonian_poly", "observables.charge_poly",
                     "states.evolve_vacuum", "states.asymptotic_state_finite",
                     "states.norm_preservation", "states.schmidt_rank",
                     "states.to_jsonable"):
            out[name + ".s"] = float(own[name])
        lc = "commutators.lattice_commutator"
        for n in LATTICE_MODES:
            calls = c[f"{lc}.calls.modes{n}"]
            per_call = c[f"{lc}.s.modes{n}"] / calls if calls else 0.0
            out[f"{lc}.s.modes{n}"] = per_call
        verbs = ("evolve", "asymptotic", "commutator")
        out["cli.main.s"] = float(own["cli.main"] + sum(
            own[f"cli.verb.{v}"] for v in verbs))
        for v in verbs:
            out[f"cli.verb.{v}.s"] = float(incl[f"cli.verb.{v}"])
        for i in range(1, len(verification.CRITERIA) + 1):
            name = f"verification.criterion_{i}"
            out[name + ".s"] = float(incl[name])
        return out

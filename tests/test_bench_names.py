"""Every name the benchmark reaches in hyperfield must still exist.

perfbench/tracer.py replaces (owner, attribute) pairs listed in SPANS and
COUNTERS; if one of them is renamed or deleted, ``perfbench/run.py
--trace 1`` fails at install time.  The tracer is loaded by path, since
perfbench is not a package.

perfbench/workloads.py and perfbench/selftest.py are read as syntax trees,
not imported: every attribute chain rooted at a name imported from
hyperfield must resolve, and every call of such a chain, direct or through
the workloads' ``_call(fn, *args)``, must bind to the callee's signature.
Each measure the tracer takes of a result is applied to a real result of
its function, so a renamed attribute it reads fails here too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from hyperfield import observables, operators, states
from hyperfield.modes import FieldParams
from hyperfield.observables import GeometrySpec
from hyperfield.operators import CommutationTable

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("entry", tracer.SPANS + tracer.COUNTERS,
                         ids=lambda e: f"{getattr(e[0], '__name__', e[0])}.{e[1]}")
def test_traced_name_resolves(entry):
    owner, attr = entry[0], entry[1]
    assert callable(getattr(owner, attr, None)), f"{owner!r} has no {attr}"


MEASURED = [entry for entry in tracer.SPANS if entry[4]]


def _measured_calls() -> dict:
    """Arguments of a 4-mode call of each function whose span measures
    its result, by the attribute the tracer replaces."""
    table = CommutationTable(delta_k=0.2, N=2, stagger=True)
    p = FieldParams(m=1.0, gamma=0.5)
    geom = GeometrySpec("infinite_line")
    h = observables.hamiltonian_poly(p, geom, table)
    q = observables.charge_poly(p, table)
    return {"__mul__": (h, q), "normal_order": (h * q, table),
            "hamiltonian_poly": (p, geom, table),
            "evolve_vacuum": (0.3, 2, p, geom, table),
            "asymptotic_state_finite": (2, p, -1.0, 2.0, table)}


def test_every_measure_has_a_call():
    assert sorted(entry[1] for entry in MEASURED) == sorted(_measured_calls())


@pytest.mark.parametrize("entry", MEASURED,
                         ids=lambda e: f"{e[2]}.{e[4][0]}")
def test_measure_counts_a_real_result(entry):
    owner, attr, _name, _calls, (_metric, measure) = entry
    result = getattr(owner, attr)(*_measured_calls()[attr])
    if isinstance(result, states.StateVector):
        want = sum(1 for _ in result.kets())
    else:
        assert isinstance(result, operators.OperatorPoly)
        want = len(result.terms)
    assert want > 0
    assert measure(result) == want


def _imported(tree) -> dict:
    """Local name -> (module, name) for each `from hyperfield... import`."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "hyperfield"
            for alias in node.names}


def _chain(node, imported):
    """(root, attrs) of a Name.attr... chain on an imported name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in imported:
        return node.id, tuple(attrs)
    return None


def _uses():
    """((file, chain, call), origin) for each hyperfield name the sources use.

    chain is (local root name, attributes), origin the (module, name) the
    root was imported as, and call (positional count, keyword names) for
    a call without * or ** arguments, else None.
    """
    uses = {}
    for name in ("workloads.py", "selftest.py"):
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        imported = _imported(tree)
        for local, origin in imported.items():
            uses[(name, (local, ()), None)] = origin
        inner = {id(n.value) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                chain = _chain(node, imported)
                if chain:
                    uses[(name, chain, None)] = imported[chain[0]]
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "_call" and args:
                func, args = args[0], args[1:]
            chain = _chain(func, imported)
            if chain and not any(isinstance(a, ast.Starred) for a in args) \
                    and all(k.arg for k in node.keywords):
                call = (len(args), tuple(k.arg for k in node.keywords))
                uses[(name, chain, call)] = imported[chain[0]]
    return sorted(uses.items(), key=repr)


def _resolve(origin, attrs):
    module, name = origin
    try:
        obj = importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        obj = getattr(importlib.import_module(module), name)
    for attr in attrs:
        assert hasattr(obj, attr), f"{obj!r} has no {attr}"
        obj = getattr(obj, attr)
    return obj


def _use_id(use) -> str:
    (file, (root, attrs), call), _origin = use
    text = f"{file}:{'.'.join((root,) + attrs)}"
    if call:
        text += f"({', '.join([str(call[0])] + [k + '=' for k in call[1]])})"
    return text


USES = _uses()


@pytest.mark.parametrize("use", USES, ids=_use_id)
def test_benchmark_name_resolves(use):
    (_file, (_root, attrs), call), origin = use
    obj = _resolve(origin, attrs)
    if call:
        positional, keywords = call
        inspect.signature(obj).bind(*[None] * positional,
                                    **dict.fromkeys(keywords))


def test_benchmark_reaches_the_cut_candidates():
    # the scan itself finds what a cut could break
    seen = {(root, attrs) for (_f, (root, attrs), _c), _o in USES}
    assert ("fc", ("figure_data",)) in seen
    assert ("op", ("VacuumRules", "generic")) in seen
    assert ("Bicomplex", ("zero",)) in seen

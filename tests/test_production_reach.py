"""Every name in src/hyperfield has a production reader.

The package has two entry points: the CLI (cli.main) and the acceptance
gate (verification.run_all, CRITERIA and report_line).  A def, method or
module constant in src/hyperfield/*.py is production code when a walk of
the syntax trees from those roots reaches it.  The walk matches by name:
reading an identifier (a loaded name or an attribute) reaches every def,
method and module constant of that name and walks its body; a reached
class also walks its bases, decorators, field defaults and dunders.
Annotations are not walked: a type hint reads nothing at run time.

Three kinds of name are exempt, and each is a root of the walk, so what
it calls counts as reached:
- the names perfbench/ reads (BENCH_NAMES), computed from the tracer's
  SPANS and COUNTERS and from the attribute chains of workloads.py and
  selftest.py, through test_bench_names' helpers;
- PENDING: a name whose gate reader is planned;
- HAND: a short list, each entry with its reason.

A name outside these that the walk does not reach fails the test, and so
does a PENDING or HAND entry that no longer exists or that the other
roots reach without it.
"""

import ast
from pathlib import Path

import test_bench_names as bench

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperfield"

ROOTS = ("main", "run_all", "CRITERIA", "report_line")

PENDING = {
    "noether_residual": "criterion 2's conservation check (ROADMAP.md item "
                        "4) will read it, with the modes field derivatives "
                        "and J_UNIT it calls",
}

HAND = {
    "I_UNIT": "the ring's unit basis {1, i, j, ij} is exported whole",
    "IJ_UNIT": "the ring's unit basis {1, i, j, ij} is exported whole",
    "is_close": "Bicomplex.is_close is the tolerance comparison of about "
                "60 tier-1 call sites",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defs() -> dict:
    """Identifier -> [(qualified name, nodes to walk when it is reached)].

    The names are module-level functions, classes and assignment targets,
    and the functions in class bodies; dunders are reached through their
    class (or, at module level, the package) and are not names of their
    own.
    """
    defs: dict = {}

    def add(name, qualified, nodes):
        defs.setdefault(name, []).append((qualified, nodes))

    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, _FUNCTIONS):
                add(node.name, f"{module}.{node.name}", [node])
            elif isinstance(node, ast.ClassDef):
                walk = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not _is_dunder(item.name):
                        add(item.name, f"{module}.{node.name}.{item.name}",
                            [item])
                    else:
                        walk.append(item)
                add(node.name, f"{module}.{node.name}", walk)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        add(name.id, f"{module}.{name.id}", [node.value])
    return defs


def _reads(node) -> set:
    """Identifiers a node reads: loaded names and attribute names,
    annotations left out."""
    out, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        if isinstance(node, _FUNCTIONS):
            stack += [*node.decorator_list, node.args, *node.body]
        elif isinstance(node, ast.AnnAssign):
            stack += [node.target, node.value]
        elif node is not None and not isinstance(node, ast.arg):
            stack += ast.iter_child_nodes(node)
    return out


DEFS = _defs()


def _reached(roots) -> set:
    """Every identifier the walk from roots reaches, roots included."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for _qualified, nodes in DEFS.get(name, ()):
                for node in nodes:
                    todo += _reads(node) - seen
    return seen


def _bench_names() -> set:
    """The src names perfbench/ reads: each attribute the tracer replaces,
    and each name along a chain that workloads.py or selftest.py use."""
    names = {entry[1] for entry in bench.tracer.SPANS + bench.tracer.COUNTERS}
    for (_file, (_root, attrs), _call), (_module, name) in bench.USES:
        names.update((name, *attrs))
    return names & set(DEFS)


BENCH_NAMES = _bench_names()


def test_every_src_name_is_reached():
    reached = _reached({*ROOTS, *BENCH_NAMES, *PENDING, *HAND})
    unreached = sorted(qualified for name, entries in DEFS.items()
                       if name not in reached for qualified, _ in entries)
    assert not unreached, (
        f"no CLI verb, criterion or exemption reaches {unreached}: give "
        f"each a production reader, move it to tests/, or delete it")


def test_no_exemption_is_stale():
    exempt = {**PENDING, **HAND}
    stale = [name for name in exempt if name not in DEFS]
    stale += [name for name in exempt if name in DEFS and name in _reached(
        {*ROOTS, *BENCH_NAMES, *exempt} - {name})]
    assert not stale, f"exemptions missing or reached without them: {stale}"


def test_the_walk_follows_calls_tables_and_the_bench():
    reached = _reached(ROOTS)
    # main -> cmd_evolve -> _dump_state -> amplitude_norm_deviation
    assert "_conj_sum" in reached
    # the kernel table's rows call the brackets at lookup time
    assert {"KERNELS", "Kernel", "bind", "difference_bracket"} <= reached
    # perfbench alone reads these wrappers
    wrappers = {"lattice_commutator", "commutator_omega_pi_quadrature",
                "vev_Q", "to_jsonable", "QuadratureSpec"}
    assert wrappers <= BENCH_NAMES and not wrappers & reached

"""Command-line front end: figure CSVs, state dumps, property suites.

Verbs: ring-check, commutator, evolve, asymptotic, verify.  A JSON config
(field parameters, lattice, rho table) supplies defaults that flags
override; both pass the same checks.  Exit 0 on success, 1 only when a
property or criterion fails, 2 on a refused input (one error line, no file).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import verification
from .commutators import KERNELS, sweep_grid
from .errors import HyperfieldError
from .modes import FieldParams
from .observables import GeometrySpec
from .operators import CommutationTable
from .ring import Bicomplex
from .states import (amplitude_norm_deviation, asymptotic_state_finite,
                     asymptotic_state_infinite, evolve_vacuum, schmidt_rank)

DEFAULT_CONFIG = {
    "m": 1.0,
    "gamma": 0.5,
    "geometry": {"kind": "infinite_line", "L1": -1.0, "L2": 1.0},
    "rho": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    "sigma": [[0.0, 0.0, 0.0, 0.0]] * 4,
    "delta_k": 0.1,
    "N": 16,
    "stagger": True,
    "truncation_order": 3,
    "output_dir": ".",
}


class ConfigError(HyperfieldError):
    pass


def load_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the --config keys, then by the flags; all checked."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    path = args.config
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        for key, value in user.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    _check_config(cfg)
    _override(cfg, args)
    _check_config(cfg)
    return cfg


def _override(cfg: dict, args: argparse.Namespace) -> None:
    """Write the verb's flags over the config keys they stand for."""
    for flag, key in (("m", "m"), ("gamma", "gamma"),
                      ("order", "truncation_order")):
        if getattr(args, flag, None) is not None:
            cfg[key] = getattr(args, flag)
    geometry = getattr(args, "geometry", None)
    if geometry == "infinite":
        cfg["geometry"] = {"kind": "infinite_line"}
    elif geometry == "finite":
        base = cfg["geometry"]
        cfg["geometry"] = {
            "kind": "finite_interval",
            "L1": args.L1 if args.L1 is not None else base.get("L1", -1.0),
            "L2": args.L2 if args.L2 is not None else base.get("L2", 1.0)}
    if geometry != "finite" and (getattr(args, "L1", None) is not None
                                 or getattr(args, "L2", None) is not None):
        raise ConfigError("--L1/--L2 need --geometry finite")
    if geometry == "finite" and getattr(args, "t_values", None) is not None:
        raise ConfigError("--t-values needs --geometry infinite")


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_count(value, least: int) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= least)


def _check_config(cfg: dict) -> None:
    """Raise ConfigError unless every key has a type and range the verbs take."""
    for key in ("m", "gamma", "delta_k"):
        if not _is_real(cfg[key]):
            raise ConfigError(f"{key} must be a finite number")
    if cfg["m"] < 0 or cfg["gamma"] < 0:
        raise ConfigError("m and gamma must be nonnegative")
    if cfg["delta_k"] <= 0:
        raise ConfigError("config delta_k must be positive")
    for key, least in (("N", 1), ("truncation_order", 0)):
        if not _is_count(cfg[key], least):
            raise ConfigError(f"{key} must be an integer >= {least}")
    if not isinstance(cfg["stagger"], bool):
        raise ConfigError("config stagger must be true or false")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError("config output_dir must be a string")
    for key in ("rho", "sigma"):
        rows = cfg[key]
        if not (isinstance(rows, list) and len(rows) == 4 and all(
                isinstance(row, list) and len(row) == 4
                and all(_is_real(c) for c in row) for row in rows)):
            raise ConfigError(
                f"config {key} must be 4 rows of 4 finite numbers")
    geom = cfg["geometry"]
    if not (isinstance(geom, dict) and "kind" in geom
            and set(geom) <= {"kind", "L1", "L2"}
            and all(_is_real(geom[key]) for key in ("L1", "L2") if key in geom)):
        raise ConfigError("config geometry must be an object with a kind and "
                          "optional finite numbers L1, L2")
    try:
        _geometry(cfg)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc


def _times(text: str) -> list[float]:
    """The comma-separated times of --t-values, each a finite number."""
    try:
        times = [float(v) for v in text.split(",")]
        if all(_is_real(t) for t in times):
            return times
    except ValueError:
        pass
    raise ConfigError(f"--t-values must be comma-separated finite numbers, "
                      f"got {text!r}")


def _params(cfg: dict) -> FieldParams:
    return FieldParams(m=cfg["m"], gamma=cfg["gamma"])


def _table(cfg: dict) -> CommutationTable:
    rho = tuple(Bicomplex(*row) for row in cfg["rho"])
    sigma = tuple(Bicomplex(*row) for row in cfg["sigma"])
    return CommutationTable(rho=rho, sigma=sigma, delta_k=cfg["delta_k"],
                            N=cfg["N"], stagger=cfg["stagger"])


def _geometry(cfg: dict) -> GeometrySpec:
    g = cfg["geometry"]
    return GeometrySpec(g["kind"], g.get("L1", 0.0), g.get("L2", 0.0))


def _warn_lattice_span(cfg: dict) -> None:
    span = 2.0 * cfg["N"] * cfg["delta_k"]
    need = 5.0 * max(cfg["m"], cfg["gamma"])
    if span < need:
        print(f"warning: lattice span 2 N delta_k = {span:.3g} below "
              f"recommended {need:.3g}", file=sys.stderr)


def _write(path: str, chunks) -> None:
    """Stream text chunks to path; large state dumps are never one string."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload) -> None:
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    _write(path, itertools.chain(encoder.iterencode(payload), "\n"))


def _state_chunks(kets, truncation_order: int):
    """json.dump(state.to_jsonable(), fh, indent=2, sort_keys=True) and
    "\n", in chunks.

    kets are the state's (label, key, amplitude) rows, float components,
    as StateVector.kets() lists them: in sort_keys order, so nothing is
    sorted or copied, and one chunk per ket.  Each distinct finite nonzero
    float's text is made once per dump.
    """
    yield '{\n  "amplitudes": {'
    sep = "\n"
    texts: dict = {}
    get = texts.get
    for label, _key, (x, y, u, v) in kets:
        x = get(x) or _float_text(x, texts)
        y = get(y) or _float_text(y, texts)
        u = get(u) or _float_text(u, texts)
        v = get(v) or _float_text(v, texts)
        yield (f"{sep}    {json.encoder.encode_basestring_ascii(label)}: [\n"
               f"      {x},\n      {y},\n      {u},\n      {v}\n    ]")
        sep = ",\n"
    close = "}" if sep == "\n" else "\n  }"
    yield f'{close},\n  "truncation_order": {truncation_order!r}\n}}\n'


def _float_text(c: float, texts: dict) -> str:
    """json.dumps(c), kept in texts if c is finite and nonzero (-0.0 == 0.0)."""
    if c - c != 0.0:  # NaN or Infinity
        return json.dumps(c)
    text = repr(c)
    if c:
        texts[c] = text
    return text


# -- verbs -------------------------------------------------------------------

def _dump_state(state, table, args, cfg: dict, name: str, what: str):
    """Write a state dump after its checks; return (deviation, kets, path,
    rank).

    One walk over state.kets() makes the dump's chunks, held until the
    checks pass, and sums the norm deviation in that order, the order
    norm_preservation sums it in; no ket map or row is kept.
    The state is refused, before anything is written, when the deviation
    is not finite: an amplitude or the norm has overflowed, and the rank's
    SVD cannot take it.  The rank splits each ket at the lattice's first
    momentum index.
    """
    rows, kets = itertools.tee(state.kets())
    writer = _state_chunks(rows, state.truncation_order)
    chunks = [next(writer)]  # the opening, made before any ket is read

    def amplitudes():
        # zip reads each ket first, so the chunk it takes next is that
        # ket's and the tee holds one ket at a time
        for (_label, _key, amp), chunk in zip(kets, writer):
            chunks.append(chunk)
            yield amp

    dev = amplitude_norm_deviation(amplitudes())
    if not math.isfinite(dev):
        raise ConfigError(f"{what} overflows the {name} state")
    count = len(chunks) - 1
    chunks.extend(writer)  # the closing
    _warn_lattice_span(cfg)
    out = args.output or os.path.join(cfg["output_dir"], f"{name}_state.json")
    _write(out, chunks)
    return dev, count, out, schmidt_rank(state, {table.momentum_indices()[0]})


def cmd_ring_check(args, _cfg: dict) -> int:
    if args.checks < 1:
        raise ConfigError("--checks must be >= 1")
    rep = verification.ring_property_suite(n_checks=args.checks, seed=args.seed)
    print(f"ring-check: {rep['checks']} checks in {rep['seconds']:.2f}s")
    if rep["failures"]:
        print("failing properties: " + ", ".join(rep["failures"]))
        return 1
    print("all properties hold")
    return 0


def cmd_commutator(args, cfg: dict) -> int:
    params = _params(cfg)
    table = _table(cfg)
    if args.steps < 1:
        raise ConfigError("empty sweep: --steps must be >= 1")
    if not (_is_real(args.x_min) and _is_real(args.x_max)):
        raise ConfigError("--x-min and --x-max must be finite numbers")
    kernel = KERNELS[args.which]
    value_at = kernel.bind(params, table)
    rows = []
    for dx in sweep_grid(args.x_min, args.x_max, args.steps):
        try:
            val = value_at(dx).plus()
        except OverflowError as exc:  # float ** raises where * gives inf
            raise ConfigError(
                f"the {args.which} sweep overflows squaring k") from exc
        rows.append((dx, val.real, val.imag))
    # a span, M^2 or table entry can overflow though each flag is finite
    if not all(math.isfinite(c) for row in rows for c in row):
        raise ConfigError(f"the {args.which} sweep overflows to non-finite rows")
    if not all(s.is_zero() for s in table.sigma):
        print("warning: commutator kernels are the sigma = 0 forms; the "
              "config's nonzero sigma is ignored", file=sys.stderr)
    if kernel.profile is None:  # a delta-type kernel, sampled on the lattice
        _warn_lattice_span(cfg)
    out = args.output or os.path.join(cfg["output_dir"],
                                      f"commutator_{args.which}.csv")
    _write(out, itertools.chain(["x,re,im\n"], (
        f"{x:.12g},{re:.12g},{im:.12g}\n" for x, re, im in rows)))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_evolve(args, cfg: dict) -> int:
    params = _params(cfg)
    table = _table(cfg)
    if not _is_real(args.t):
        raise ConfigError("--t must be a finite number")
    geom = _geometry(cfg)
    order = cfg["truncation_order"]
    state = evolve_vacuum(args.t, order, params, geom, table)
    dev, kets, out, rank = _dump_state(state, table, args, cfg, "evolved",
                                        f"--t {args.t:g}")
    print(f"t={args.t} order={order} kets={kets} "
          f"norm_deviation={dev:.3e} schmidt_rank={rank}")
    if geom.kind == "infinite_line" and params.gamma > 0:
        diag = asymptotic_state_infinite([max(args.t, 1.0)], params, table)[0]
        print(f"warning: infinite geometry with gamma > 0 diverges at large t "
              f"(growth rate {diag['predicted_growth_rate']:.3g})",
              file=sys.stderr)
    print(f"wrote state to {out}")
    return 0


def cmd_asymptotic(args, cfg: dict) -> int:
    params = _params(cfg)
    table = _table(cfg)
    order = cfg["truncation_order"]
    if args.geometry == "finite":
        L1, L2 = cfg["geometry"]["L1"], cfg["geometry"]["L2"]
        state = asymptotic_state_finite(order, params, L1, L2, table)
        _, kets, out, rank = _dump_state(state, table, args, cfg, "asymptotic",
                                         f"interval [{L1:g}, {L2:g}]")
        print(f"finite [{L1}, {L2}] order={order} kets={kets} "
              f"schmidt_rank={rank}")
        print(f"wrote state to {out}")
        return 0
    t_values = args.t_values or "0,1,10,100"
    diags = asymptotic_state_infinite(_times(t_values), params, table)
    if not all(math.isfinite(d["log_modulus"]) for d in diags):
        raise ConfigError(f"--t-values {t_values} overflow the diagnostics")
    _warn_lattice_span(cfg)
    out = args.output or os.path.join(cfg["output_dir"],
                                      "asymptotic_diagnostics.json")
    _write_json(out, diags)
    for d in diags:
        tag = "cyclostationary" if d["is_cyclostationary"] else (
            "divergent" if d["divergent"] else "stationary")
        print(f"t={d['t']:g}: {tag}, growth rate {d['modulus_growth_rate']:.4g}")
    print(f"wrote diagnostics to {out}")
    return 0


def cmd_verify(args, cfg: dict) -> int:
    table = _table(cfg) if args.config else None
    reports = verification.run_all(table)
    for r in reports:
        print(verification.report_line(r))
    out = args.output or os.path.join(cfg["output_dir"], "verify_report.json")
    _write_json(out, reports)
    print(f"wrote report to {out}")
    if all(r["passed"] for r in reports):
        print("all criteria pass")
        return 0
    print("criteria failed: "
          + ", ".join(str(r["id"]) for r in reports if not r["passed"]))
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperfield",
        description="bicomplex dissipative field toolkit")
    ap.add_argument("--config", help="JSON config file")
    sub = ap.add_subparsers(dest="verb", required=True)

    rc = sub.add_parser("ring-check", help="run the ring property suite")
    rc.add_argument("--checks", type=int, default=10_000,
                    help="number of checks, rounded up to a multiple of 8 "
                         "(eight properties per random triple)")
    rc.add_argument("--seed", type=int, default=7)

    cm = sub.add_parser("commutator", help="sweep a field commutator to CSV")
    cm.add_argument("--which", required=True,
                    choices=[name for name, k in KERNELS.items() if k.verb])
    cm.add_argument("--m", type=float)
    cm.add_argument("--gamma", type=float)
    cm.add_argument("--x-min", type=float, default=0.1)
    cm.add_argument("--x-max", type=float, default=10.0)
    cm.add_argument("--steps", type=int, default=100)

    ev = sub.add_parser("evolve", help="evolve the vacuum and dump the state")
    ev.add_argument("--t", type=float, required=True)
    ev.add_argument("--order", type=int)
    ev.add_argument("--geometry", choices=("finite", "infinite"))
    ev.add_argument("--L1", type=float)
    ev.add_argument("--L2", type=float)

    asy = sub.add_parser("asymptotic", help="asymptotic state or diagnostics")
    asy.add_argument("--geometry", required=True, choices=("finite", "infinite"))
    asy.add_argument("--order", type=int)
    asy.add_argument("--L1", type=float)
    asy.add_argument("--L2", type=float)
    asy.add_argument("--t-values", help="comma-separated times (infinite)")

    vf = sub.add_parser("verify", help="run the acceptance criteria")
    for verb in (cm, ev, asy, vf):
        verb.add_argument("--output")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # built per call, so a cmd_* attribute wrapped after import is the one run
    commands = {"ring-check": cmd_ring_check, "commutator": cmd_commutator,
                "evolve": cmd_evolve, "asymptotic": cmd_asymptotic,
                "verify": cmd_verify}
    try:
        return commands[args.verb](args, load_config(args))
    except HyperfieldError as exc:  # a refused input: no verb reaches
        # NonConvergent or UndeterminedByAxioms; run_all catches what criteria raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

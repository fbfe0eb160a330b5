import functools
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import algebra_reference as ref
import hyperfield
from hyperfield import cli
from hyperfield import verification as vf
from hyperfield.cli import main
from hyperfield.commutators import KERNELS
from hyperfield.ring import Bicomplex
from hyperfield.states import StateVector

# Directory holding the imported ``hyperfield`` package (``src/`` in a
# checkout).  Putting it first on the child's path makes the child run the
# same code as this process, even when ``cwd`` sends a relative PYTHONPATH
# such as ``src`` elsewhere.
PACKAGE_ROOT = str(Path(hyperfield.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    pythonpath = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run([sys.executable, "-m", "hyperfield.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


class TestRingCheck:
    def test_passes(self, tmp_path):
        r = run_cli(["ring-check", "--checks", "2000"], tmp_path)
        assert r.returncode == 0
        assert "all properties hold" in r.stdout

    def test_defect_hook_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(vf, "ring_property_suite", functools.partial(
            vf.ring_property_suite, mul_fn=ref._defect_mul))
        assert main(["ring-check", "--checks", "500"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ring-check: 504 checks in ")
        assert out[1] == ("failing properties: mul_associative, "
                          "idempotent_algebra, sector_isomorphism")

    def test_checks_round_up_to_whole_blocks(self, capsys):
        assert main(["ring-check", "--checks", "9"]) == 0
        assert capsys.readouterr().out.startswith("ring-check: 16 checks in ")


class TestCommutatorSweep:
    def test_csv_format(self, tmp_path):
        r = run_cli(["commutator", "--which", "omega-pi", "--x-min", "0.5",
                     "--x-max", "5", "--steps", "10"], tmp_path)
        assert r.returncode == 0
        lines = (tmp_path / "commutator_omega-pi.csv").read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[0]) == 0.5

    def test_rows_are_sorted_ascending(self, tmp_path):
        r = run_cli(["commutator", "--which", "w-omega-omega", "--x-min", "0.2",
                     "--x-max", "3", "--steps", "8"], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "commutator_w-omega-omega.csv").read_text().splitlines()[1:]
        xs = [float(l.split(",")[0]) for l in lines]
        assert xs == sorted(xs)

    def test_empty_sweep_usage_error(self, tmp_path):
        r = run_cli(["commutator", "--which", "omega-pi", "--steps", "0"], tmp_path)
        assert r.returncode == 2

    def test_deterministic_output(self, tmp_path):
        args = ["commutator", "--which", "w-pi-pi", "--x-min", "0.4",
                "--x-max", "4", "--steps", "12"]
        for name in ("a.csv", "b.csv"):
            r = run_cli([*args, "--output", name], tmp_path)
            assert r.returncode == 0, r.stderr
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_lattice_span_warning_only_for_lattice_kernels(self, tmp_path):
        # the defaults (N = 16, delta_k = 0.1, m = 1) give a span below 5 m
        sweep = ["--x-min", "0.5", "--x-max", "2", "--steps", "3"]
        r = run_cli(["commutator", "--which", "omega-pi", *sweep], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        r = run_cli(["commutator", "--which", "omega-omega", *sweep], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stderr.startswith("warning: lattice span")

    @pytest.mark.parametrize("which", ["omega-omega", "omega-pi"])
    def test_nonzero_sigma_warns_and_leaves_rows(self, tmp_path, which):
        # every kernel is the sigma = 0 form, for delta and Bessel verbs alike
        cfg = tmp_path / "sigma.json"
        cfg.write_text(json.dumps({"sigma": [[0.1, 0.0, 0.0, 0.0]] * 4}))
        sweep = ["commutator", "--which", which, "--x-min", "0.5", "--x-max",
                 "2", "--steps", "3"]
        plain = run_cli([*sweep, "--output", "plain.csv"], tmp_path)
        r = run_cli(["--config", str(cfg), *sweep, "--output", "sigma.csv"],
                    tmp_path)
        assert plain.returncode == r.returncode == 0, r.stderr
        assert "sigma" not in plain.stderr
        assert r.stderr.splitlines() == [
            "warning: commutator kernels are the sigma = 0 forms; the "
            "config's nonzero sigma is ignored", *plain.stderr.splitlines()]
        assert ((tmp_path / "sigma.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    def test_which_offers_the_six_verb_rows(self, tmp_path):
        assert [name for name, k in KERNELS.items() if k.verb] == [
            "omega-omega", "omega-pi", "pi-pi",
            "w-omega-omega", "w-omega-pi", "w-pi-pi"]
        r = run_cli(["commutator", "--which", "omega-pi-m0"], tmp_path)
        assert r.returncode == 2 and "invalid choice" in r.stderr

    def test_delta_kernel_profiles(self, tmp_path):
        r = run_cli(["commutator", "--which", "omega-omega", "--x-min", "0.1",
                     "--x-max", "2", "--steps", "5"], tmp_path)
        assert r.returncode == 0
        assert (tmp_path / "commutator_omega-omega.csv").exists()


class TestEvolve:
    def test_vacuum_dump_at_t0(self, tmp_path):
        r = run_cli(["evolve", "--t", "0", "--order", "2"], tmp_path)
        assert r.returncode == 0
        state = json.loads((tmp_path / "evolved_state.json").read_text())
        assert list(state["amplitudes"]) == ["vacuum"]
        assert "schmidt_rank=1" in r.stdout

    def test_finite_geometry_order_one(self, tmp_path):
        r = run_cli(["evolve", "--t", "0.5", "--order", "1", "--geometry",
                     "finite", "--L1", "-1", "--L2", "2"], tmp_path)
        assert r.returncode == 0
        rank = int(r.stdout.split("schmidt_rank=")[1].split()[0])
        assert rank >= 2

    def test_divergence_warning_infinite(self, tmp_path):
        r = run_cli(["evolve", "--t", "1", "--order", "1", "--geometry",
                     "infinite"], tmp_path)
        assert r.returncode == 0
        assert "diverges" in r.stderr

    def test_cap_error_names_the_lowest_order_over_the_cap(self, tmp_path,
                                                           capsys):
        # 52 modes, 104 labels a sector: 1 + 2 (104 + 5460) = 11129 kets
        # fit at order 2, and order 3 adds 2 * 192920.  Counting one sector
        # through every order before the other named order 2.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"N": 26}))
        args = ["--config", str(cfg), "evolve", "--t", "0.1", "--output",
                str(tmp_path / "s.json"), "--order"]
        assert main([*args, "2"]) == 0
        assert " kets=11129 " in capsys.readouterr().out
        assert main([*args, "3"]) == 2
        assert capsys.readouterr().err == (
            "error: basis would exceed cap 200000 at order 3\n")

    def test_large_time_warns_and_exits_0(self, tmp_path):
        r = run_cli(["evolve", "--t", "10000", "--order", "1"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "diverges" in r.stderr
        assert (tmp_path / "evolved_state.json").exists()


class TestStateWriter:
    """The streaming state dump against json.dumps(indent=2, sort_keys=True)."""

    SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
               math.inf, -math.inf, 0.1, -2.5e-7)

    @staticmethod
    def rows(amps: dict) -> list:
        """A ket map's (label, key, amplitude) rows in label order, as
        StateVector.kets() lists them."""
        return sorted((ref.ket_label(key), key, amp) for key, amp in amps.items())

    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_match_json_dump(self, seed):
        rng = random.Random(seed)
        amps = {}
        for _ in range(8 * seed):
            key = tuple(sorted((rng.choice(("2ba", "1ab")), rng.randint(-9, 9),
                                rng.randint(-9, 9), rng.randint(0, 1))
                               for _ in range(rng.randint(0, 3))))
            amps[key] = Bicomplex(*(
                rng.choice(self.SPECIAL) if rng.random() < 0.5
                else rng.uniform(-1e3, 1e3) for _ in range(4)))
        order = rng.randint(0, 4)
        chunks = list(cli._state_chunks(self.rows(amps), order))
        assert "".join(chunks) == ref.state_dump(amps, order)
        # streamed: one chunk per ket plus the opening and the closing
        assert len(chunks) == len(amps) + 2

    def test_recurring_components(self):
        # each value recurs across kets and within one: a text kept per
        # value must not print -0.0 as 0.0 (they compare equal), nor the
        # reverse, and NaN (equal to nothing) and infinities as json does
        values = (0.1, 0.0, -0.0, math.nan, math.inf, -math.inf)
        amps = {(("2ba", i, j, 0),): Bicomplex(
                    *(values[(i + j + n) % len(values)] for n in range(4)))
                for i in range(6) for j in range(4)}
        amps.update({(("1ab", 9, 9, 1),) * (n + 1): Bicomplex(c, c, c, c)
                     for n, c in enumerate(values)})
        chunks = list(cli._state_chunks(self.rows(amps), 6))
        assert "".join(chunks) == ref.state_dump(amps, 6)
        assert len(chunks) == len(amps) + 2


@pytest.mark.parametrize("verb, builder", [
    (["evolve", "--t", "0.3", "--order", "2"], "evolve_vacuum"),
    (["asymptotic", "--geometry", "finite", "--order", "2"],
     "asymptotic_state_finite")])
def test_printed_kets_count_the_dump_and_the_map(monkeypatch, capsys, tmp_path,
                                                 verb, builder):
    built = []
    make = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *a, **kw: (
        built.append(make(*a, **kw)) or built[-1]))
    # the verb walks the kets and builds no ket map
    monkeypatch.setattr(StateVector, "amplitudes", property(
        lambda _state: pytest.fail("the verb built the ket map")))
    out = tmp_path / "state.json"
    assert main([*verb, "--output", str(out)]) == 0
    monkeypatch.undo()
    kets = int(capsys.readouterr().out.split(" kets=")[1].split()[0])
    state, = built
    assert kets == len(json.loads(out.read_text())["amplitudes"])
    assert kets == len(state.amplitudes) == 4289  # 1 + 2 (64 + 2080)


class TestAsymptotic:
    def test_finite_state(self, tmp_path):
        r = run_cli(["asymptotic", "--geometry", "finite", "--order", "1",
                     "--L1", "-1", "--L2", "2"], tmp_path)
        assert r.returncode == 0
        assert "schmidt_rank=" in r.stdout
        assert (tmp_path / "asymptotic_state.json").exists()

    def test_infinite_diagnostics(self, tmp_path):
        r = run_cli(["asymptotic", "--geometry", "infinite",
                     "--t-values", "0,1,10"], tmp_path)
        assert r.returncode == 0
        diags = json.loads((tmp_path / "asymptotic_diagnostics.json").read_text())
        assert len(diags) == 3
        assert all(d["divergent"] for d in diags)  # default gamma = 0.5

    def test_negative_times_report_the_predicted_rate(self, tmp_path):
        r = run_cli(["asymptotic", "--geometry", "infinite",
                     "--t-values=-2,-1,0,1,2"], tmp_path)
        assert r.returncode == 0
        diags = json.loads((tmp_path / "asymptotic_diagnostics.json").read_text())
        for d in diags:
            want = d["predicted_growth_rate"] if d["t"] else 0.0
            assert d["modulus_growth_rate"] == pytest.approx(want, rel=1e-12)
        rate = "divergent, growth rate 13.16"
        assert r.stdout.splitlines()[:5] == [
            f"t=-2: {rate}", f"t=-1: {rate}", "t=0: divergent, growth rate 0",
            f"t=1: {rate}", f"t=2: {rate}"]

    def test_overflow_error_names_default_times(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"delta_k": 1e300}))
        r = run_cli(["--config", str(cfg), "asymptotic", "--geometry",
                     "infinite"], tmp_path)
        assert r.returncode == 2
        assert r.stderr == ("error: --t-values 0,1,10,100 overflow the "
                            "diagnostics\n")

    def test_json_state_determinism(self, tmp_path):
        args = ["asymptotic", "--geometry", "finite", "--order", "1",
                "--L1", "-1", "--L2", "2"]
        run_cli([*args, "--output", "s1.json"], tmp_path)
        run_cli([*args, "--output", "s2.json"], tmp_path)
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


class TestConfig:
    # dim and seed included: no verb reads them
    @pytest.mark.parametrize("config", [{"bogus": 1}, {"dim": 1}, {"seed": 0}],
                             ids=["bogus", "dim", "seed"])
    def test_unknown_key_rejected(self, tmp_path, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        r = run_cli(["--config", str(cfg), "ring-check", "--checks", "100"], tmp_path)
        assert r.returncode == 2

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        r = run_cli(["--config", str(cfg), "ring-check"], tmp_path)
        assert r.returncode == 2

    @pytest.mark.parametrize("config", [
        [1], {"m": "abc"}, {"delta_k": 0}, {"N": -3},
        {"geometry": {"kind": "torus"}}, {"rho": [[1, 0]]}, {"stagger": "no"},
    ], ids=["list", "m_string", "delta_k_zero", "N_negative",
            "geometry_torus", "rho_short_row", "stagger_string"])
    def test_malformed_config_is_usage_error(self, tmp_path, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        r = run_cli(["--config", str(cfg), "evolve", "--t", "0.1",
                     "--order", "1"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["commutator", "--which", "omega-pi", "--m", "-1", "--steps", "2"],
        ["commutator", "--which", "omega-pi", "--m", "nan", "--steps", "2"],
        ["commutator", "--which", "omega-pi", "--gamma", "inf", "--steps", "2"],
        ["evolve", "--t", "0.1", "--order", "1", "--geometry", "finite",
         "--L1", "2", "--L2", "1"],
        ["asymptotic", "--geometry", "finite", "--order", "1",
         "--L1", "2", "--L2", "1"],
        ["asymptotic", "--geometry", "infinite", "--t-values", "1,x"],
        ["evolve", "--t", "nan", "--order", "1"],
        ["evolve", "--t", "0.1", "--order", "-1"],
        ["commutator", "--which", "omega-pi", "--x-min", "0", "--x-max", "1",
         "--steps", "3"],
        ["commutator", "--which", "omega-pi", "--m", "0.1", "--gamma", "1",
         "--steps", "2"],
        ["evolve", "--t", "0.1", "--order", "1", "--L1", "0", "--L2", "3"],
        ["asymptotic", "--geometry", "infinite", "--L2", "3"],
        ["asymptotic", "--geometry", "finite", "--t-values", "5,6"],
        ["evolve", "--t", "1e103", "--order", "3"],
        # q L overflows though L2 - L1 does not; and where L2 - L1 does too
        ["evolve", "--t", "0.1", "--order", "1", "--geometry", "finite",
         "--L1=-1e308", "--L2=-9e307"],
        ["evolve", "--t", "0.1", "--order", "1", "--geometry", "finite",
         "--L1=-1e308", "--L2=1e308"],
        ["asymptotic", "--geometry", "infinite", "--t-values", "1e308"],
        ["ring-check", "--checks", "0"],
        ["ring-check", "--checks", "-5"],
        # a leading dict is a config, written outside the checked cwd
        [{"N": 2}, "asymptotic", "--geometry", "finite", "--order", "2",
         "--L1=-1e300", "--L2=1e300"],
        [{"N": 2}, "asymptotic", "--geometry", "finite", "--order", "4",
         "--L1=-1e150", "--L2=1e150"],
        [{"N": 2}, "asymptotic", "--geometry", "finite", "--order", "2",
         "--L1=-1e153", "--L2=1e153"],
        ["commutator", "--which", "omega-omega", "--x-min=nan"],
        # x-max - x-min overflows, and inf * 0 makes the first row NaN
        ["commutator", "--which", "omega-pi", "--x-min=-1e308",
         "--x-max=1e308"],
        ["commutator", "--which", "omega-pi", "--m", "1e200"],  # M^2 overflows
        [{"rho": [[1e308, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                  [-1e308, 0, 0, 0]]}, "commutator", "--which", "omega-omega"],
        # a refusal prints no sigma warning besides its one line
        [{"rho": [[1e308, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                  [-1e308, 0, 0, 0]], "sigma": [[0.1, 0, 0, 0]] * 4},
         "commutator", "--which", "omega-omega"],
        # the pi-pi weight squares momenta past the float range
        [{"delta_k": 1e300}, "commutator", "--which", "pi-pi", "--steps", "3"],
        # typed package errors: an unstaggered lattice holds k = 0, M^2 < 0
        # makes an IR-cutoff momentum imaginary, and the basis passes its cap
        [{"stagger": False}, "asymptotic", "--geometry", "finite",
         "--order", "1"],
        [{"m": 0.1, "gamma": 1.0}, "evolve", "--t", "0.1", "--order", "1"],
        [{"m": 0.1, "gamma": 1.0}, "asymptotic", "--geometry", "infinite"],
        ["evolve", "--t", "1", "--order", "5", "--geometry", "finite",
         "--L1", "-1", "--L2", "1"],
        # every Bessel verb refuses dx = 0, M^2 < 0 and the boundary M^2 = 0
        *[["commutator", "--which", verb, *sweep]
          for verb in ("w-omega-omega", "w-pi-pi")
          for sweep in (["--x-min", "0", "--x-max", "1", "--steps", "3"],
                        ["--m", "0.1", "--gamma", "1", "--steps", "2"],
                        ["--m", "0.5", "--gamma", "1", "--steps", "2"])],
        ["commutator", "--which", "omega-pi", "--m", "0.5", "--gamma", "1",
         "--steps", "2"],
    ], ids=["m_negative", "m_nan", "gamma_inf", "evolve_L1_above_L2",
            "asymptotic_L1_above_L2", "t_values_not_numbers", "t_nan",
            "order_negative", "sweep_through_dx_0", "m2_not_positive",
            "evolve_L1_without_finite", "asymptotic_L2_without_finite",
            "finite_asymptotic_t_values",
            "evolve_t_overflows", "evolve_phase_overflows",
            "evolve_length_overflows", "t_values_overflow", "checks_zero",
            "checks_negative", "asymptotic_amplitudes_overflow",
            "asymptotic_order4_amplitudes_overflow",
            "asymptotic_norm_overflows", "sweep_x_min_nan",
            "sweep_span_overflows", "sweep_m2_overflows",
            "sweep_rho_overflows", "sweep_rho_overflows_with_sigma",
            "sweep_momenta_square_overflows",
            "pole_at_zero_momentum", "evolve_imaginary_frequency",
            "asymptotic_imaginary_frequency", "truncation_cap",
            *[f"{verb}_{case}" for verb in ("w_omega_omega", "w_pi_pi")
              for case in ("sweep_through_dx_0", "m2_negative", "m2_zero")],
            "omega_pi_m2_zero"])
    def test_malformed_flag_is_usage_error(self, tmp_path, tmp_path_factory,
                                           args):
        if isinstance(args[0], dict):
            cfg = tmp_path_factory.mktemp("config") / "c.json"
            cfg.write_text(json.dumps(args[0]))
            args = ["--config", str(cfg), *args[1:]]
        r = run_cli(args, tmp_path)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert not any(tmp_path.iterdir())  # no file written

    @pytest.mark.parametrize("verb", [["evolve", "--t", "0.1"], ["asymptotic"]],
                             ids=["evolve", "asymptotic"])
    def test_finite_geometry_reads_config_interval(self, tmp_path, monkeypatch,
                                                   verb):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"geometry": {
            "kind": "finite_interval", "L1": 0.0, "L2": 3.0}}))
        args = ["--config", str(cfg), *verb, "--order", "1", "--geometry",
                "finite"]
        assert main([*args, "--output", "config.json"]) == 0
        assert main([*args, "--L1", "0", "--L2", "3", "--output",
                     "flags.json"]) == 0
        assert ((tmp_path / "config.json").read_bytes()
                == (tmp_path / "flags.json").read_bytes())

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m": 2.0, "gamma": 0.0}))
        r = run_cli(["--config", str(cfg), "commutator", "--which", "omega-pi",
                     "--m", "1.0", "--x-min", "1", "--x-max", "1", "--steps", "1"],
                    tmp_path)
        assert r.returncode == 0
        row = (tmp_path / "commutator_omega-pi.csv").read_text().splitlines()[1]
        # with m = 1 (flag) the magnitude is 2 K1(1); with m = 2 it would differ
        im = float(row.split(",")[2])
        assert im == pytest.approx(2 * 0.6019072301972346, rel=1e-9)


class TestNegativeExponentValues:
    """argparse reads `--t -1e-3` as a flag; README gives the `=` form."""

    @pytest.mark.parametrize("args, shown", [
        (["evolve", "--t=-1e-3", "--order", "1"], "t=-0.001 "),
        (["asymptotic", "--geometry", "finite", "--L1=-1e-1", "--L2", "1",
          "--order", "1"], "finite [-0.1, 1.0] "),
        (["commutator", "--which", "omega-omega", "--x-min=-1e-2",
          "--x-max", "0.5", "--steps", "3"], "wrote 3 rows "),
    ], ids=["evolve_t", "asymptotic_L1", "commutator_x_min"])
    def test_equals_form_is_read(self, tmp_path, args, shown):
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        assert shown in r.stdout


class TestVerifyCommand:
    def test_main_entry_verify_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 12
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(report) == 12 and all(r["passed"] for r in report)

    def test_sigma_injection_fails_criterion_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sigma.json"
        cfg.write_text(json.dumps({
            "sigma": [[0.3, 0.0, 0.0, 0.0]] * 4}))
        code = main(["--config", str(cfg), "verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] criterion  3" in out
        assert "criteria failed: 3\n" in out  # and no other criterion

    @pytest.mark.parametrize("config", [
        {"rho": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        {"rho": [[1e9, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        {"delta_k": 1e-4}], ids=["rho1_rho4_1", "rho1_1e9", "delta_k_1e-4"])
    def test_valid_table_passes_every_criterion(self, tmp_path, capsys,
                                                monkeypatch, config):
        # the table reaches criteria 3 and 7 only, and both hold on these
        # sigma-free tables: B_diff = 0, a large bracket and a fine lattice
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "table.json"
        cfg.write_text(json.dumps(config))
        code = main(["--config", str(cfg), "verify"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("[PASS]") == 12
        assert out.endswith("all criteria pass\n")


def test_readme_cli_examples_parse():
    """Each `hyperfield ...` line of README's CLI sh block parses, so a flag
    renamed or removed under the docs fails here."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    verbs = set()
    for line in block.splitlines():
        if line.startswith("hyperfield "):
            argv = shlex.split(line, comments=True)[1:]
            verbs.add(cli.build_parser().parse_args(argv).verb)
    assert verbs == {"ring-check", "commutator", "evolve", "asymptotic",
                     "verify"}

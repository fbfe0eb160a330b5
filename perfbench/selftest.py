"""Self-tests of the benchmark: its checks refuse wrong answers, its runs end.

    python3 perfbench/selftest.py            # from the repository root

Every check is handed a wrong answer (a value off by more than its
tolerance, a flipped sign, a dropped ket, a perturbed Bessel value) and
must refuse it; a one-pass run of each workload must exit 0 and report
its operation counts; a tree without sources must make run.py fail.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles as orc  # noqa: E402
import workloads as wls  # noqa: E402
from hyperfield import commutators as fc  # noqa: E402
from hyperfield import operators as op  # noqa: E402
from hyperfield import states as st  # noqa: E402
from hyperfield.modes import FieldParams  # noqa: E402
from hyperfield.ring import Bicomplex  # noqa: E402

# operations per pass, and failed operations per pass
PER_PASS = {"verify": (12, 0), "lattice": (10, 0), "vacuum": (8, 0),
            "sweeps": (2 * 3 * 16 + 5 + 6 + 6, 5)}


def statuses(verdicts):
    return [s for _n, s, _d in verdicts]


def scaled(b: Bicomplex, f) -> Bicomplex:
    return Bicomplex(b.x * f, b.y * f, b.u * f, b.v * f)


class TestLatticeCheck(unittest.TestCase):
    def setUp(self):
        self.wl = wls.Lattice()
        self.draws = self.wl.draw(random.Random(5), None)[:6]   # 17 modes
        self.values = self.wl.run(self.draws)

    def test_accepts_the_program(self):
        self.assertEqual(statuses(self.wl.check(self.draws, self.values)),
                         [wls.OK] * 6)

    def test_refuses_flipped_sign(self):
        bad = [scaled(v, -1.0) for v in self.values]
        self.assertEqual(statuses(self.wl.check(self.draws, bad)),
                         [wls.WRONG] * 6)

    def test_refuses_value_off_by_more_than_tolerance(self):
        for d, v in zip(self.draws, self.values):
            n, which, weighted, m, gamma, x, xp, _t = d
            _want, scale = orc.contraction(which, weighted, x - xp, m, gamma,
                                           orc.momenta(n, self.wl.DK, False),
                                           self.wl.DK, (1, 1), (0, 0))
            off = v + Bicomplex(10 * orc.LATTICE_TOL * scale)
            self.assertEqual(statuses(self.wl.check([d], [off])), [wls.WRONG])

    def test_refuses_swapped_bracket_sectors(self):
        table = op.generic_table(
            N=2, delta_k=0.1, rho=(Bicomplex(0.9, 0.2, 0.1, -0.3),
                                   Bicomplex.zero(), Bicomplex.zero(),
                                   Bicomplex(0.4, -0.5, 0.2, 0.1)))
        self.wl.tables[2] = table
        d = (2, "omega_pi", False, 1.2, 0.4, 0.3, -0.7, 0.5)
        v = fc.lattice_commutator("omega_pi", 0.3, -0.7, 0.5,
                                  FieldParams(m=1.2, gamma=0.4), table)
        self.assertEqual(statuses(self.wl.check([d], [v])), [wls.OK])
        swapped = Bicomplex(v.x, v.y, -v.u, -v.v)
        self.assertEqual(statuses(self.wl.check([d], [swapped])), [wls.WRONG])

    def test_raising_call_is_failed(self):
        self.assertEqual(statuses(self.wl.check(self.draws[:1],
                                                [ArithmeticError("x")])),
                         [wls.FAILED])


class TestVacuumChecks(unittest.TestCase):
    N, DK, ORDER = 2, 0.1, 3

    def dump(self):
        """A real asymptotic-state dump on a 4-mode lattice, and its weights."""
        table = op.CommutationTable(delta_k=self.DK, N=self.N, stagger=True)
        m, gamma, l1, l2 = 1.1, 0.4, -1.0, 1.5
        state = st.asymptotic_state_finite(
            self.ORDER, FieldParams(m=m, gamma=gamma), l1, l2, table)
        zs = {}
        for i in range(-self.N, self.N):
            k = (i + 0.5) * self.DK
            h = orc.h_gamma_diag(k, m, gamma)
            zs[i] = ((l2 - l1) * self.DK * float(orc.omega(k, m, gamma))
                     / abs(k) * h.conjugate())
        amps = json.loads(json.dumps(state.to_jsonable()))["amplitudes"]
        return amps, zs

    def test_accepts_the_program(self):
        amps, zs = self.dump()
        self.assertIsNone(wls.check_state_dump(amps, zs, self.ORDER, True))

    def test_refuses_dropped_ket(self):
        amps, zs = self.dump()
        amps.pop(sorted(k for k in amps if ";" in k)[0])
        self.assertIn("kets", wls.check_state_dump(amps, zs, self.ORDER, True))

    def test_refuses_perturbed_amplitude(self):
        amps, zs = self.dump()
        key = sorted(k for k in amps if k.count(";") == 2)[0]
        amps[key] = [c * (1 + 1e-9) for c in amps[key]]
        self.assertIn("sector sums",
                      wls.check_state_dump(amps, zs, self.ORDER, False))

    def test_refuses_first_order_in_wrong_sector(self):
        amps, zs = self.dump()
        plus = sorted(k for k in amps if k.startswith("2ba") and ";" not in k)[0]
        minus = "1ab" + plus[3:]
        amps[plus], amps[minus] = amps[minus], amps[plus]
        self.assertIn("first-order",
                      wls.check_state_dump(amps, zs, self.ORDER, True))

    def test_refuses_wrong_weight_formula(self):
        amps, zs = self.dump()
        # the factor 5/2 of the diagonal weight replaced by 2
        bad = {i: z * 0.8 for i, z in zs.items()}
        self.assertIsNotNone(wls.check_state_dump(amps, bad, self.ORDER, True))

    def test_vev_pair(self):
        self.assertIsNone(orc.check_vev_pair(1e-15, 10.0, "H"))
        self.assertIsNotNone(orc.check_vev_pair(1e-10, 10.0, "H"))
        self.assertIsNotNone(orc.check_vev_pair(0.0, 0.0, "H"))

    def test_ket_count_and_exponential(self):
        self.assertEqual(orc.ket_count(32, 3), 13089)
        val, _scale = orc.truncated_exp(1.0, 20)
        self.assertAlmostEqual(val, math.e, places=14)


class TestSweepsChecks(unittest.TestCase):
    def setUp(self):
        self.wl = wls.Sweeps()
        self.workdir = tempfile.mkdtemp()
        rng = random.Random(9)
        inp = self.wl.draw(rng, self.workdir)
        inp["points"] = inp["points"][::12]      # two points per kind
        self.inp = inp
        self.out = self.wl.run(inp)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def test_accepts_the_program_and_fails_only_wide_points(self):
        verdicts = self.wl.check(self.inp, self.out)
        wrong = [v for v in verdicts if v[1] == wls.WRONG]
        failed = sorted(n for n, s, _d in verdicts if s == wls.FAILED)
        self.assertEqual(wrong, [])
        self.assertEqual(failed, sorted(f"oracle_wide@{dx:g}"
                                        for dx in self.wl.WIDE))

    def test_refuses_perturbed_bessel_value(self):
        real = orc.bessel_k
        with mock.patch.object(orc, "bessel_k",
                               lambda n, z: real(n, z) * (1 + 1e-9)):
            verdicts = self.wl.check(self.inp, self.out)
        names = {n for n, s, _d in verdicts if s == wls.WRONG}
        for kind in self.wl.KINDS:
            self.assertIn(f"closed_{kind}", names)
        for fig in self.wl.FIGS:
            self.assertIn(fig, names)
        for verb in ("omega-pi", "w-omega-omega", "w-pi-pi"):
            self.assertIn(f"cli_{verb}", names)

    def test_refuses_oracle_off_by_more_than_tolerance(self):
        self.out["oracle"] = [scaled(v, 1 + 1e-5) for v in self.out["oracle"]]
        verdicts = self.wl.check(self.inp, self.out)
        self.assertTrue(all(s == wls.WRONG for n, s, _d in verdicts
                            if n.startswith("oracle_") and "wide" not in n))

    def test_refuses_delta_kernel_rows(self):
        verb = next(v for v in self.inp["verbs"] if v[0] == "pi-pi")
        with open(verb[-1], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        x, re, im = lines[5].split(",")
        lines[5] = f"{x},{-float(re)!r},{im}"
        with open(verb[-1], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        verdicts = dict((n, s) for n, s, _d in self.wl.check(self.inp, self.out))
        self.assertEqual(verdicts["cli_pi-pi"], wls.WRONG)


class TestVerifyCheck(unittest.TestCase):
    def reports(self):
        return [{"id": i, "passed": True, "detail": ""} for i in range(1, 13)]

    def test_refuses_failed_criterion_and_missing_report(self):
        wl = wls.Verify()
        self.assertEqual(statuses(wl.check(None, self.reports())), [wls.OK] * 12)
        reps = self.reports()
        reps[2]["passed"] = False
        self.assertEqual(statuses(wl.check(None, reps))[2], wls.WRONG)
        self.assertIn(wls.WRONG, statuses(wl.check(None, self.reports()[:11])))


class TestTracer(unittest.TestCase):
    def test_wraps_everywhere_and_restores(self):
        import tracer as tracing
        from hyperfield import cli, states, verification
        before = (states.evolve_vacuum, cli.evolve_vacuum,
                  verification.CRITERIA[0], Bicomplex.__mul__)
        tr = tracing.Tracer().install()
        try:
            self.assertIsNot(cli.evolve_vacuum, before[1])
            self.assertIs(cli.evolve_vacuum, states.evolve_vacuum)
            table = op.generic_table(N=2)
            fc.lattice_commutator("omega_pi", 0.1, 0.4, 0.0, FieldParams(), table)
        finally:
            tr.uninstall()
        self.assertEqual(before, (states.evolve_vacuum, cli.evolve_vacuum,
                                  verification.CRITERIA[0], Bicomplex.__mul__))
        m = tr.metrics()
        self.assertEqual(m["operators.normal_order.calls"], 1)
        self.assertGreater(m["operators.normal_order.rewrites"], 0)
        self.assertEqual(m["operators.poly_mul.calls"], 2)
        self.assertGreater(m["ring.mul.calls"], 0)
        own = sum(v for k, v in m.items() if k.endswith(".s")
                  and not k.startswith(("verification.", "cli.verb.",
                                        "commutators.lattice_commutator")))
        top = [s for s in tr.spans if s[3] == -1]
        self.assertEqual(len(top), 1)
        # self times of the children add up to no more than the whole call
        self.assertLessEqual(own, top[0][2] - top[0][1] + 1e-9)


class TestRuns(unittest.TestCase):
    def run_bench(self, cwd, workload, trace=0):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0.1",
             "--trace", str(trace)], cwd=cwd, capture_output=True, text=True,
            timeout=170)

    def test_one_pass_smoke_run_of_each_workload(self):
        for workload, (ops, failed) in PER_PASS.items():
            with self.subTest(workload=workload):
                proc = self.run_bench(ROOT, workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual((result["attempted"], result["failed"]),
                                 (ops, failed))
                self.assertEqual(set(result["metrics"]),
                                 {"pass_ref", "setup_s", "peak_rss_mb"})
                self.assertTrue(all(v["value"] > 0
                                    for v in result["metrics"].values()))

    def test_traced_run_reports_layer_metrics(self):
        proc = self.run_bench(ROOT, "vacuum", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        self.assertEqual(set(metrics), declared)
        self.assertGreater(metrics["states.evolve_vacuum.kets"]["value"], 0)

    def test_tree_without_sources_fails(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = self.run_bench(tmp, "lattice")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()

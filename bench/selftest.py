"""Self-test of the benchmark on the small ``crcodes verify --m 4`` run.

Checks that every metric named in BENCHMARK.json is reported with its unit,
that two traced runs give identical counts, that a sample is stopped for
speed readings which then scale its time, and that a corrupted reference
row or export digest registers as a failure.  Takes about 20 s:

    python3 bench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import METRICS  # noqa: E402

M4 = run.Workload("verify-m4", ("verify", "--m", "4"), 4)
SEED = 7


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        reference = json.loads(run.REFERENCE.read_text())
        # `verify --m 4` runs exactly the m = 4 rows of the default verify
        cls.rows = [row for row in reference["verify-default"]["rows"] if row[1] == 4]
        cls.reference = {M4.name: {"rows": cls.rows}}
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def deadline(self) -> float:
        return time.perf_counter() + 60

    def units(self, result) -> dict:
        return {name: metric["unit"] for name, metric in result["metrics"].items()}

    def test_untraced_run_reports_every_end_to_end_metric(self):
        result = run.measure(M4, SEED, 1, False, self.reference)
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(self.units(result), want)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], len(self.rows) * len(result["wall_samples"]))
        self.assertGreater(result["metrics"]["wall_s"]["value"], 0)

    def test_traced_runs_report_every_layer_metric_and_repeat_counts(self):
        first = run.measure(M4, SEED, 1, True, self.reference)
        second = run.measure(M4, SEED, 1, True, self.reference)
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(self.units(first), want)
        self.assertEqual(set(want), set(METRICS))
        self.assertTrue(first["correct"] and second["correct"])
        counted = [name for name, (unit, _, _) in METRICS.items() if unit != "s"]
        for name in counted:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)
        self.assertGreater(first["metrics"]["codes.syndrome.calls"]["value"], 0)

    def test_samples_are_stopped_for_readings_and_scaled(self):
        cmd = [sys.executable, "-c", "import time; time.sleep(2.5)"]
        with run.SpeedClock() as clock:
            before = len(clock.readings)
            mark = clock.start()
            t0 = time.perf_counter()
            wall, _, code = run.run_child(cmd, run.OUT / "stdout.txt", self.deadline(), clock)
            elapsed = time.perf_counter() - t0
            during = len(clock.readings) - before
            (corrected,) = clock.correct(mark, [wall])
        self.assertEqual(code, 0)
        self.assertGreaterEqual(during, 2)
        self.assertLess(wall, elapsed)
        used = clock.readings[mark:]
        self.assertEqual(len(used), during + 2 * run.CAL_ROUND)
        self.assertAlmostEqual(corrected, wall * run.CAL_REF_S / statistics.median(used))

    def test_corrupted_reference_row_fails(self):
        corrupted = [list(row) for row in self.rows]
        corrupted[0][2] = 99  # a level the report does not have
        sample = run.run_sample(M4, SEED, {"rows": corrupted}, self.deadline())
        self.assertEqual(sample.outcome.failed, 1)
        self.assertFalse(sample.outcome.correct)
        dropped = run.check_verify(b'{"results": []}', 0, self.rows)
        self.assertEqual((dropped.failed, dropped.correct), (len(self.rows), False))
        crashed = run.check_verify(b"not json", 1, self.rows)
        self.assertEqual(crashed.failed, len(self.rows))

    def test_corrupted_export_digest_fails(self):
        out_dir = run.OUT / "selftest-export"
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [sys.executable, "-m", "crcodes.cli", "export", "--m", "4", "--levels", "1",
               "--out", str(out_dir)]
        _, _, code = run.run_child(cmd, run.OUT / "stdout.txt", self.deadline())
        try:
            name = "gamma_m4_i1.g6"
            digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            good = run.check_export(out_dir, code, {name: digest})
            self.assertEqual((good.failed, good.correct), (0, True))
            flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            bad = run.check_export(out_dir, code, {name: flipped})
            self.assertEqual((bad.failed, bad.correct), (1, False))
            missing = run.check_export(out_dir, code, {name: digest, "gamma_m4_i9.g6": digest})
            self.assertEqual(missing.failed, 1)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

"""Benchmark for crcodes, end to end and per layer.

One workload at a time:

    python3 bench/run.py --workload m8-cover --seed 1 --seconds 20 --trace 0

runs the workload as fresh ``crcodes`` processes for about ``--seconds``
seconds, checks every output against ``bench/reference.json`` and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics of one traced run
(``--trace 1``, see ``bench/tracer.py``).  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, with a summary of run-to-run spread:

    python3 bench/run.py --workload all --runs 11 --save baseline

runs each workload untraced with seeds seed .. seed+runs-1, then traced once,
prints every metric by name with its unit, and with ``--save LABEL`` writes
``bench/BENCH_LABEL.json``.

The children run from ``src/`` of this checkout with one BLAS thread and a
fixed hash seed; nothing in the program is changed.  Scratch files go to
``bench/out/``.

``wall_s`` and ``setup_s`` are reported at a reference host speed: each
timed item is scaled by calibration readings taken around it and, for a
sample, inside it while its process is stopped (``SpeedClock``,
``bench/speed.py``).  On a shared host whose speed swings by ±25%, raw
medians of runs a few minutes apart differ by more than a regression gate
can allow; the raw medians are printed as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
from tracer import METRICS as LAYER_METRICS  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "passed_ratio": ("ratio", "higher"),
}
# set-ups per untraced run: a batch before the first sample, a smaller one
# between samples and the rest after the last, at least SETUP_REPEATS in all
SETUP_REPEATS = 40
SETUP_FIRST, SETUP_BETWEEN, SETUP_LAST = 15, 5, 15
SETUP_BATCH = 5  # set-ups timed between two rounds of calibration
RUN_LIMIT_S = 165.0  # one invocation must end within 180 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# host-speed calibration (see SpeedClock and speed.py): a reading takes
# about CAL_REF_S on the 2-core VM the benchmark was tuned on; there are
# CAL_ROUND readings between timed items, and one every CAL_EVERY_S inside a
# sample while its process is stopped
CAL_REF_S, CAL_ROUND, CAL_EVERY_S = 0.035, 3, 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Sequence[str]  # crcodes arguments; verify also gets --seed
    setup_m: int  # the largest m the workload builds


WORKLOADS = {w.name: w for w in (
    Workload("verify-default", ("verify",), 6),
    Workload("m8-algebra", ("verify", "--m", "8", "--suite", "cr,up,duals,designs,ct,extended"), 8),
    Workload("m8-cover", ("verify", "--m", "8", "--suite", "cover"), 8),
    Workload("m8-export", ("export", "--m", "8", "--extended", "--format", "graph6"), 8),
)}


@dataclass
class Outcome:
    attempted: int
    failed: int
    correct: bool


@dataclass
class Sample:
    wall: float
    rss_mb: float
    outcome: Outcome


def _row_key(row) -> tuple:
    return (row["claim"], row["m"], row["level"], row["extended"])


def _row_passed(row) -> bool:
    return row.get("ok") is True


def check_verify(stdout: bytes, exit_code: int, reference: List[list]) -> Outcome:
    """One operation per reference row (claim, m, level, extended).

    A row fails when the report lacks a passing row with its key; rows that
    share a key are matched by count.  The outcome is correct when the report
    parses and every row that passed in the reference still passes.
    """
    attempted = len(reference)
    if exit_code not in (0, 2):
        return Outcome(attempted, attempted, False)
    try:
        passing = Counter(_row_key(r) for r in json.loads(stdout)["results"] if _row_passed(r))
    except (ValueError, KeyError, TypeError, AttributeError):
        return Outcome(attempted, attempted, False)
    want = Counter(tuple(r[:4]) for r in reference)
    want_pass = Counter(tuple(r[:4]) for r in reference if r[4])
    failed = sum(max(0, n - passing[key]) for key, n in want.items())
    regressed = any(passing[key] < n for key, n in want_pass.items())
    return Outcome(attempted, failed, not regressed)


def check_export(out_dir: Path, exit_code: int, digests: Dict[str, str]) -> Outcome:
    """One operation per file; a file fails when missing or its sha256 differs."""
    attempted = len(digests)
    if exit_code != 0:
        return Outcome(attempted, attempted, False)
    failed = 0
    for name, digest in digests.items():
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            failed += 1
    return Outcome(attempted, failed, failed == 0)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: Sequence[str], stdout_path: Path, deadline: float,
              clock: Optional[SpeedClock] = None) -> tuple:
    """Run one process; return (wall seconds, peak RSS in MB, exit code).

    With a clock, the process is stopped every CAL_EVERY_S for one
    calibration reading and then continued; the wall leaves those pauses
    out.  The process is killed if it is still running at ``deadline``.
    """
    with open(stdout_path, "wb") as out, open(OUT / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err, cwd=ROOT, env=child_env())
        paused, status, usage = 0.0, None, None
        pidfd = os.pidfd_open(proc.pid)
        try:
            while status is None:
                left = deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                wait = min(left, CAL_EVERY_S) if clock is not None else left
                if left <= 0 or select.select([pidfd], [], [], max(0.0, wait))[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                if clock is None:
                    continue
                os.kill(proc.pid, signal.SIGSTOP)
                _, stopped, stopped_usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(stopped):  # it exited before the signal
                    status, usage = stopped, stopped_usage
                    break
                p0 = time.perf_counter()
                clock.read(1)
                paused += time.perf_counter() - p0
                os.kill(proc.pid, signal.SIGCONT)
            wall = time.perf_counter() - t0 - paused
        finally:
            os.close(pidfd)
            if status is None:  # leaving on an error: stop the child for good
                proc.kill()
                os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2):
        tail = (OUT / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"child exited {proc.returncode}: {' '.join(cmd)}\n{tail}", file=sys.stderr)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def crcodes_args(workload: Workload, seed: int, export_dir: Path) -> List[str]:
    if workload.argv[0] == "verify":
        return [*workload.argv, "--seed", str(seed), "--format", "json"]
    return [*workload.argv, "--out", str(export_dir)]


def run_sample(workload: Workload, seed: int, reference: dict, deadline: float,
               tracer_files: Optional[tuple] = None,
               clock: Optional[SpeedClock] = None) -> Sample:
    """One fresh process running the workload, untraced or under bench/tracer.py.

    With a clock it is paused for calibrations (see ``run_child``).
    """
    export_dir = OUT / "export"
    shutil.rmtree(export_dir, ignore_errors=True)
    args = crcodes_args(workload, seed, export_dir)
    if tracer_files is None:
        cmd = [sys.executable, "-m", "crcodes.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), *map(str, tracer_files), "--", *args]
    stdout_path = OUT / "stdout.txt"
    wall, rss, code = run_child(cmd, stdout_path, deadline, clock)
    if workload.argv[0] == "verify":
        outcome = check_verify(stdout_path.read_bytes(), code, reference["rows"])
    else:
        outcome = check_export(export_dir, code, reference["files"])
        shutil.rmtree(export_dir, ignore_errors=True)
    return Sample(wall, rss, outcome)


def run_setup(m: int, deadline: float) -> float:
    code = f"import crcodes; crcodes.build_chain(crcodes.build_field_context({m}))"
    wall, _, exit_code = run_child([sys.executable, "-c", code], OUT / "setup.txt", deadline)
    if exit_code != 0:
        raise RuntimeError(f"set-up for m={m} exited {exit_code}")
    return wall


class SpeedClock:
    """Scales timed work to the host speed at which a reading takes CAL_REF_S.

    Readings come from ``speed.py`` in a process of its own.  They are
    taken in rounds between timed items, and inside a sample while its
    process is stopped.  A time t is reported as t * CAL_REF_S / c, with c
    the median of the readings from the round before the item to the round
    after it.  Nothing else runs while a reading is taken: work on the other
    core makes a reading up to twice as slow.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "speed.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.read(CAL_ROUND)
        except BaseException:
            self.proc.kill()
            self._stop()
            raise

    def __enter__(self) -> SpeedClock:
        return self

    def __exit__(self, exc_type, *_) -> None:
        code = self._stop()
        if code != 0 and exc_type is None:
            raise RuntimeError(f"bench/speed.py exited {code}")

    def _stop(self) -> int:
        """Stop the reading process, which ends at the end of its input."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code

    def read(self, count: int) -> None:
        for _ in range(count):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("bench/speed.py stopped")
            self.readings.append(float(line))

    def start(self) -> int:
        """Mark the start of an item; pass the mark to ``correct``."""
        return len(self.readings) - CAL_ROUND

    def correct(self, mark: int, raw: Sequence[float]) -> List[float]:
        self.read(CAL_ROUND)
        scale = CAL_REF_S / statistics.median(self.readings[mark:])
        return [t * scale for t in raw]


def tail_percentile(values: Sequence[float]) -> Optional[tuple]:
    """The highest percentile with at least ten samples beyond it, as (p, value)."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "child_env": CHILD_ENV,
        "commit": commit,
        "seed": seed,
    }


def sample_for(workload: Workload, seed: int, ref: dict, deadline: float, seconds: float,
               clock: SpeedClock, samples: List[Sample], walls: List[float],
               between=None) -> None:
    """Append untraced samples, and their corrected walls, until about ``seconds``.

    There is at least one.  It stops before a sample as long as the last one
    would overrun the time or the deadline.  ``between`` runs between
    consecutive samples.
    """
    busy = 0.0
    while True:
        mark = clock.start()
        samples.append(run_sample(workload, seed, ref, deadline, clock=clock))
        last = samples[-1].wall
        walls.extend(clock.correct(mark, [last]))
        busy += last
        if busy + last > seconds or time.perf_counter() + 2 * last > deadline:
            return
        if between is not None:
            between()


def measure(workload: Workload, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    """One benchmark run: the result object plus the samples behind it."""
    started = time.perf_counter()
    with SpeedClock() as clock:
        result = _measure(workload, seed, seconds, trace, reference[workload.name], clock,
                          started + RUN_LIMIT_S)
    result["seconds"] = time.perf_counter() - started
    return result


def _measure(workload: Workload, seed: int, seconds: int, trace: bool, ref: dict,
             clock: SpeedClock, deadline: float) -> dict:
    samples: List[Sample] = []
    walls: List[float] = []  # corrected, one per untraced sample
    setups: List[float] = []  # corrected
    raw_setups: List[float] = []

    def set_up(count: int) -> None:
        while count > 0:
            mark = clock.start()
            batch = [run_setup(workload.setup_m, deadline) for _ in range(min(count, SETUP_BATCH))]
            raw_setups.extend(batch)
            setups.extend(clock.correct(mark, batch))
            count -= len(batch)

    if trace:
        # the traced run sits between untraced samples of the same count, so
        # that their median spans the phases a shared machine goes through
        sample_for(workload, seed, ref, deadline, seconds / 2, clock, samples, walls)
        metrics_path, spans_path = OUT / "trace_metrics.json", OUT / f"spans-{workload.name}.npz"
        metrics_path.unlink(missing_ok=True)
        # not paused, since a pause would count in the span times
        mark = clock.start()
        traced = run_sample(workload, seed, ref, deadline, (metrics_path, spans_path))
        traced_wall = clock.correct(mark, [traced.wall])[0]
        if not metrics_path.is_file():
            raise RuntimeError("the traced run wrote no metrics")
        for _ in range(len(samples)):
            if time.perf_counter() + 2 * samples[-1].wall > deadline:
                break
            mark = clock.start()
            samples.append(run_sample(workload, seed, ref, deadline, clock=clock))
            walls.extend(clock.correct(mark, [samples[-1].wall]))
        raw_walls = [s.wall for s in samples]
        metrics = json.loads(metrics_path.read_text())
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        samples.append(traced)
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        # set-ups run before, between and after the samples, so that their
        # median, like the samples', spans the machine's slow and fast phases
        set_up(SETUP_FIRST)
        sample_for(workload, seed, ref, deadline, seconds, clock, samples, walls,
                   lambda: set_up(SETUP_BETWEEN))
        set_up(max(SETUP_LAST, SETUP_REPEATS - len(setups)))
        raw_walls = [s.wall for s in samples]
    attempted = sum(s.outcome.attempted for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "passed_ratio": 1.0 - failed / attempted,
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    return {
        "workload": workload.name,
        "trace": int(trace),
        "correct": all(s.outcome.correct for s in samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "wall_samples": walls,
        "raw_wall_samples": raw_walls,
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "calibrations": clock.readings,
        "tail": tail_percentile(walls),
        "env": environment(seed),
    }


def describe(result: dict) -> List[str]:
    """Human-readable lines for one result: environment, counts, every metric."""
    walls = result["wall_samples"]
    tail = result["tail"]
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs 11 samples)")
    lines = [
        f"workload {result['workload']} trace {result['trace']} "
        f"({result['seconds']:.1f} s)",
        "env " + json.dumps(result["env"], sort_keys=True),
        f"samples: {len(walls)} untraced wall, {len(result['setup_samples'])} setup, "
        f"{len(result['calibrations'])} calibration (median "
        f"{statistics.median(result['calibrations']):.4f} s, reference {CAL_REF_S} s)",
        f"wall median {statistics.median(walls):.4f} s corrected, "
        f"{statistics.median(result['raw_wall_samples']):.4f} s raw; {tail_text}",
        f"failed_ratio {result['failed']}/{result['attempted']} "
        f"correct={str(result['correct']).lower()}",
    ]
    if result["raw_setup_samples"]:
        lines.insert(4, f"setup median {statistics.median(result['raw_setup_samples']):.4f} s raw")
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    if not overhead_resolved(result):
        lines.append("  trace.overhead_s is unresolved: the traced run was not slower than "
                     "the untraced median, so the machine's speed changed more than the "
                     "tracer costs")
    return lines


def overhead_resolved(result: dict) -> bool:
    overhead = result["metrics"].get("trace.overhead_s")
    return overhead is None or overhead["value"] > 0


def spread(values: Sequence[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "values": list(values)}


def run_all(seed: int, seconds: int, runs: int, reference: dict, label: Optional[str]) -> bool:
    saved = {"env": environment(seed), "seconds": seconds, "runs": runs,
             "setup_repeats": SETUP_REPEATS, "workloads": {}}
    correct = True
    for workload in WORKLOADS.values():
        results = [measure(workload, seed + k, seconds, False, reference) for k in range(runs)]
        traced = measure(workload, seed, seconds, True, reference)
        ok = traced["correct"] and all(r["correct"] for r in results)
        correct &= ok
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        walls = [w for r in results for w in r["wall_samples"]]
        readings = [c for r in results for c in r["calibrations"]]
        tail = tail_percentile(walls)
        summary = {name: spread([r["metrics"][name]["value"] for r in results])
                   for name in END_TO_END}
        raw = {name: spread([statistics.median(r[key]) for r in results])
               for name, key in (("wall_s", "raw_wall_samples"), ("setup_s", "raw_setup_samples"))}
        print(f"== {workload.name}: {runs} runs, {len(walls)} wall samples"
              + (f", wall p{tail[0]} {tail[1]:.4f} s" if tail else ""))
        for name, stats in summary.items():
            print(f"  {name:<42} {stats['median']:>16.6g} {END_TO_END[name][0]:<10} "
                  f"IQR/median {stats['iqr_over_median']:.4f}")
        for name, stats in raw.items():
            print(f"  {name + ' (raw)':<42} {stats['median']:>16.6g} {'s':<10} "
                  f"IQR/median {stats['iqr_over_median']:.4f}")
        print(f"  failed_ratio {failed}/{attempted} untraced, correct={str(ok).lower()}")
        print("traced run: " + "\n".join(describe(traced)[2:]))
        saved["workloads"][workload.name] = {
            "end_to_end": summary,
            "raw": raw,
            "calibration": {"readings": len(readings), "median_s": statistics.median(readings),
                            "reference_s": CAL_REF_S},
            "wall_samples": walls,
            "wall_tail": tail,
            "run_seconds": [r["seconds"] for r in results],
            "failed_ratio": [failed, attempted],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "trace_overhead_resolved": overhead_resolved(traced),
            "trace_untraced_walls": traced["wall_samples"],
            "correct": ok,
        }
    if label:
        path = BENCH / f"BENCH_{label}.json"
        path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return correct


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload (all)")
    parser.add_argument("--save", metavar="LABEL", help="write bench/BENCH_LABEL.json (all)")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.runs < 1:
        parser.error("--seconds and --runs must be at least 1")
    if not (ROOT / "src" / "crcodes" / "cli.py").is_file():
        print(f"error: no crcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds, args.runs, reference, args.save) else 1
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     reference)
    print("\n".join(describe(result)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

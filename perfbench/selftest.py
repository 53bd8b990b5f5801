"""Self-test of the benchmark, at tiny sizes (under a minute).

    python3 perfbench/selftest.py

1. Every workload runs through run.py with --trace 0 and --trace 1, is
   correct, and emits exactly the metrics BENCHMARK.json names, each with
   its unit.
2. A corrupted output (one digit of the irregular point flipped so that it
   contains the factor 11) and a raising library call are each counted as
   failed ops, under the oracle's name and the exception's class name, and
   the job still runs to its end.
3. The speed clock halves a stretch of wall time when its reference loop
   takes twice REF_S, and leaves the loop's own time out (here a sixth of
   the wall time, so that counting it would show).
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def metric_specs(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_units_plausible(workload, metrics):
    """Units judged from the values, not from the names: a count is a
    whole number, and no time inside a traced job exceeds the job."""
    job_s = metrics["trace.job_s"]["value"]
    for name, m in metrics.items():
        if m["unit"] == "count":
            check(float(m["value"]).is_integer(),
                  f"{workload} count {name} = {m['value']} is not whole")
        elif m["unit"] == "s":
            check(m["value"] <= job_s * (1 + 1e-9),
                  f"{workload} time {name} = {m['value']} exceeds the "
                  f"traced job ({job_s} s); is it a count?")


def test_metrics_emitted():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = metric_specs(section)
        for workload in ("construct", "entropy", "language"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--scale", "tiny"],
                capture_output=True, text=True, timeout=170)
            check(proc.returncode == 0, f"{workload} exited {proc.returncode}:"
                  f" {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace} not correct: {proc.stdout[-800:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{workload} trace {trace} metrics differ: "
                  f"{sorted(set(got) ^ set(expected))}")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{workload} non-numeric metric value")
            if trace:
                check_units_plausible(workload, result["metrics"])
            print(f"ok  {workload:9s} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def test_failures_counted():
    import run
    from workloads import WORKLOADS

    workload = WORKLOADS["construct"]
    state, _ = run.timed_setup(workload, 3, "tiny")
    import betalab.errors
    import betalab.irregular as irregular

    original_point = irregular.construct_irregular_point
    original_edp = irregular.edp_ball_check

    def corrupted(*args, **kwargs):
        rep = original_point(*args, **kwargs)
        digits = list(rep["point"].digits)
        i = next(i for i in range(len(digits) - 1)
                 if digits[i:i + 2] == [1, 0])
        digits[i + 1] = 1
        rep["point"] = dataclasses.replace(rep["point"], digits=tuple(digits))
        return rep

    def raising(*args, **kwargs):
        raise betalab.errors.BudgetExceeded("injected by the self-test")

    irregular.construct_irregular_point = corrupted
    irregular.edp_ball_check = raising
    try:
        _, ops = run.run_job(workload, state, workload.references())
    finally:
        irregular.construct_irregular_point = original_point
        irregular.edp_ball_check = original_edp
    check(ops.failures["oracle:construct"] == 1,
          f"flipped digit not caught: {dict(ops.failures)}")
    check(ops.failures["oracle:admissible"] == 1,
          f"inadmissible point not caught: {dict(ops.failures)}")
    check(ops.failures["BudgetExceeded"] == 1,
          f"raised error not counted by class: {dict(ops.failures)}")
    check(len(ops.latencies) == len(state["queries"]),
          "job stopped before its queries")
    print(f"ok  corrupted output and raised error counted: "
          f"{dict(ops.failures)} of {ops.attempted} ops")


def _spin(seconds):
    from time import perf_counter
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        pass


def test_clock_calibrates():
    """Busy-waits are the same length on a fast or a slow machine, so a
    reference loop that spins 2 * REF_S stands for a machine at half the
    reference speed."""
    import clock
    from time import perf_counter

    c = clock.SpeedClock()
    original = clock.reference_loop, clock.REF_S
    clock.REF_S = 0.005
    clock.reference_loop = lambda: _spin(2 * clock.REF_S)
    try:
        with c.running():
            t0, w0 = c.now(), perf_counter()
            _spin(0.4)
            elapsed, wall = c.now() - t0, perf_counter() - w0
        rate = clock.REF_S / statistics.median(c.readings)  # about 1/2
    finally:
        clock.reference_loop, clock.REF_S = original
    loop_s = sum(c.readings[1:])  # readings taken inside the timed stretch
    expected = (wall - loop_s) * rate
    check(len(c.readings) >= 5, f"only {len(c.readings)} clock readings")
    check(0.4 < rate <= 0.5, f"readings {c.readings} are not 2 * REF_S")
    check(abs(elapsed - expected) < 0.02 * expected,
          f"clock read {elapsed:.4f} s for {wall:.4f} s wall at half speed, "
          f"expected {expected:.4f}")
    print(f"ok  clock: {wall:.3f} s wall at half speed read {elapsed:.3f} s "
          f"over {len(c.readings)} readings")


if __name__ == "__main__":
    test_clock_calibrates()
    test_failures_counted()
    test_metrics_emitted()
    print("selftest passed")

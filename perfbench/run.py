"""betalab benchmark: one run of one workload, printed as JSON.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 10 --trace 0

Run from anywhere; the library is imported from `src/` next to this
directory and nowhere else.  A run sets up once in this process and
SETUP_REPS - 1 more times in fresh child processes (one at a time), then
repeats complete jobs until `--seconds` have passed (at least one job).
Every time it reports is read from `clock.CLOCK`, in reference seconds:
wall time corrected for the machine's speed (see clock.py).

--trace 0 prints the end-to-end metrics: setup_s (median set-up), job_s
(median job), peak_rss_mb, ok_ops_ratio and query latency percentiles.
--trace 1 alternates plain and traced jobs and prints the per-layer
metrics of the traced ones; it also checks that both give byte-identical
outputs.  The last stdout line is the result object; the line before it
and `.perfbench_out/` hold the environment stamp, wall times and
reference-loop readings, failures by class and, for traced runs, every
recorded span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5

sys.path.insert(0, str(HERE))
import tracer as T  # noqa: E402
from clock import CLOCK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
              "ok_ops_ratio": "ratio", "query_ms_p50": "ms",
              "query_ms_p99": "ms"}


def _per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}

    def add(prefix, *parts):
        for part in parts:
            name, leaf = f"{prefix}.{part}", part.rsplit(".", 1)[-1]
            if leaf in ("calls", "digits", "words", "trie_nodes",
                        "pool_words", "glue_edits"):
                units[name] = "count"
            elif leaf.endswith("_ratio") or leaf in (
                    "refine_per_floor", "cover_cost_per_estimate"):
                units[name] = "ratio"
            else:
                units[name] = "s"

    add("beta_core", "greedy_expansion.calls", "greedy_expansion.s",
        "greedy_expansion.digits", "AlgebraicContext.floor_vector.calls",
        "AlgebraicContext.refine_to.calls", "refine_per_floor",
        "BetaNumber.digits.s", "BetaNumber.from_polynomial.s",
        "beta_from_expansion.s", "self_s")
    add("parry", "is_admissible.calls", "is_admissible.s",
        "is_admissible.digits", "count_admissible.s", "count_profile.s",
        "markov_approx.s", "MarkovApprox.enumerate_words.s",
        "enumerate_admissible.calls", "enumerate_admissible.s",
        "enumerate_admissible.words", "periodic_witnesses.s", "self_s")
    add("observables", "Observable.average_on_word.calls",
        "Observable.average_on_word.s", "Observable.average_on_word.digits",
        "self_s")
    add("words", "SymbolWord.hamming.calls", "SymbolWord.hamming.s", "self_s")
    add("entropy", "CylinderTree.build_s", "trie_nodes", "cover_cost.calls",
        "cover_cost.s", "cover_cost_per_estimate", "bowen_entropy.s",
        "box_dimension_estimate.s", "max_separated.calls", "max_separated.s",
        "min_spanning.calls", "min_spanning.s", "window_bad_count.calls",
        "window_bad_count.s", "exact_ratio", "self_s")
    add("irregular", "build_word_pools.s", "glue_blocks.s",
        "construct_irregular_point.s", "enumerate_glued_family.s",
        "edp_ball_check.s", "pool_words", "pool_fill_ratio", "glue_edits",
        "self_s")
    add("exotic", "build_nested.s", "FactorAutomaton.count_words.calls",
        "FactorAutomaton.count_words.s", "single_edit_repair.calls",
        "single_edit_repair.s", "NestedShift.enumerate.s",
        "NestedShift.enumerate.words", "self_s")
    add("cli", "main.calls", "main.s", "self_s")
    add("harness", "self_s")
    add("trace", "job_s", "overhead_ratio")
    return units


PER_LAYER = _per_layer_units()

_ALWAYS = object()


class Ops:
    """One job's ops: attempted and failed counts, query latencies, and a
    digest of every output.  Oracle and digest time is kept apart so that
    the job time holds library work and benchmark glue only.  `needs` is
    the result of an earlier op that this one uses: when that op failed
    (None), this one counts as failed without running."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.check_s = 0.0
        self._digest = hashlib.sha256()

    def run(self, name, fn, check=None, needs=_ALWAYS):
        return self._run(name, fn, check, needs)[0]

    def query(self, name, fn, check=None, needs=_ALWAYS):
        _, dt = self._run(name, fn, check, needs)
        self.latencies.append(dt)

    def _run(self, name, fn, check, needs):
        self.attempted += 1
        if needs is None:
            self.failures["DependencyFailed"] += 1
            return None, 0.0
        t0 = CLOCK.now()
        try:
            result = fn()
        except Exception as exc:  # any failure is one failed op, never fatal
            dt = CLOCK.now() - t0
            self.failures[type(exc).__name__] += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}"[:300])
            return None, dt
        dt = CLOCK.now() - t0
        if check is not None:
            c0 = CLOCK.now()
            try:
                problem = check(result)
            except Exception as exc:
                problem = f"oracle raised {type(exc).__name__}: {exc}"
            self.check_s += CLOCK.now() - c0
            if problem:
                self.failures[f"oracle:{name}"] += 1
                self.problems.append(f"{name}: {problem}"[:300])
        return result, dt

    def output(self, key, value) -> None:
        c0 = CLOCK.now()
        self._digest.update(repr((key, value)).encode())
        self.check_s += CLOCK.now() - c0

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def import_betalab():
    if not (SRC / "betalab" / "__init__.py").is_file():
        sys.exit(f"betalab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import betalab
    import betalab.cli  # noqa: F401  (imports every other module)
    if Path(betalab.__file__).resolve().parent != (SRC / "betalab").resolve():
        sys.exit(f"imported betalab from {betalab.__file__}, not from {SRC}")


def timed_setup(workload, seed: int, scale: str):
    with CLOCK.running():
        t0 = CLOCK.now()
        import_betalab()
        state = workload.setup(seed, scale)
        return state, CLOCK.now() - t0


def probe_setups(args, n: int) -> list[float]:
    """Set-up time of n fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--scale", args.scale,
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_job(workload, state, refs) -> tuple[float, Ops]:
    ops = Ops()
    t0 = CLOCK.now()
    workload.job(state, refs, ops)
    return CLOCK.now() - t0 - ops.check_s, ops


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "betalab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "sympy": metadata.version("sympy"),
            "nproc": os.cpu_count(),
            "BETALAB_PRECISION_BITS": os.environ.get(
                "BETALAB_PRECISION_BITS", "unset (256)"),
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "platform": platform.platform()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    state, first_setup = timed_setup(workload, args.seed, args.scale)
    if args.setup_probe:
        print(repr(first_setup))
        return 0
    # setup_s is an end-to-end metric, so traced runs skip the probes
    setups = [first_setup] + (
        [] if args.trace else probe_setups(args, SETUP_REPS - 1))
    refs = workload.references()

    plain, traced, all_ops, summaries = [], [], [], []
    walls, loop_ms = [], []  # per plain job: wall s, median reference loop
    tracer = T.Tracer() if args.trace else None
    t_run = perf_counter()
    with CLOCK.running():
        while True:
            n0, w0 = len(CLOCK.readings), perf_counter()
            job_s, ops = run_job(workload, state, refs)
            walls.append(perf_counter() - w0)
            loop_ms.append(1000 * statistics.median(
                CLOCK.readings[n0:] or CLOCK.readings[-1:]))
            plain.append(job_s)
            all_ops.append(ops)
            if tracer is not None:
                tracer.job_id += 1
                tracer.counters.clear()
                tracer.install()
                try:
                    job_s, ops = run_job(workload, state, refs)
                finally:
                    tracer.uninstall()
                traced.append(job_s)
                all_ops.append(ops)
                summaries.append(T.per_layer_metrics(
                    tracer.job_summary(tracer.job_id, job_s),
                    tracer.counters, tracer.walk_trees()))
            if perf_counter() - t_run >= args.seconds:
                break

    attempted = sum(o.attempted for o in all_ops)
    failures = sum((o.failures for o in all_ops), Counter())
    failed = sum(failures.values())
    digests = {o.digest for o in all_ops}
    latencies = [dt for o in all_ops[::2 if tracer else 1] for dt in o.latencies]

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ops_ratio": (attempted - failed) / attempted,
            "query_ms_p50": 1000 * statistics.median(latencies),
            "query_ms_p99": 1000 * percentile(latencies, 0.99)}
        units = END_TO_END
    else:
        values = {name: statistics.fmean(s.get(name, 0.0) for s in summaries)
                  for name in PER_LAYER}
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(plain))
        units = PER_LAYER

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "scale": args.scale,
              "environment": environment(),
              "setup_samples_s": setups, "job_samples_s": plain,
              "traced_job_samples_s": traced, "job_wall_s": walls,
              "reference_loop_ms": loop_ms,
              "queries": len(latencies),
              "oracle_s": [o.check_s for o in all_ops],
              "failures": dict(failures),
              "problems": [m for o in all_ops for m in o.problems][:20],
              "output_digests": sorted(digests)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"detail": detail, "values": values}, indent=1, default=str))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.zip")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

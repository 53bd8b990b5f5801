"""The three workloads: seeded set-up, one job of ops, and their oracles.

A workload is a class with `setup(seed, scale)`, which builds the bases and
generates every input from the seed; `references()`, which computes the
oracles' constants once, outside the timed set-up; and
`job(state, references, ops)`, which runs one complete job against fresh
copies of the set-up bases.  The library is imported inside the methods,
so that the timed set-up pays for it, and is reached through module
attributes at call time (`P.is_admissible`, not a name bound at import),
so that the tracer's patches take effect.

`scale` is "full" for the benchmark and "tiny" for the self-test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
from fractions import Fraction

import oracles as O

_FULL = "full"


def _fresh(pristine):
    """New BetaNumber objects with empty w(beta) caches."""
    return copy.deepcopy(pristine)


def _stratified(rng, counts: dict):
    """counts[s] draws of every stratum s, in seeded random order.  Fixed
    stratum counts keep the latency percentiles on the same ranks of the
    same latency clusters whatever the seed."""
    out = [s for s, k in counts.items() for _ in range(k)]
    rng.shuffle(out)
    return out


# Query sizes for `construct` and `entropy`, which have no query traffic
# of their own; this benchmark chose their streams so that every workload
# reports the same metrics.  1,956 small requests and 44 large ones (2.2 %):
# the p99 rank then falls in the middle of the large requests, so it
# measures them and not the machine's millisecond jitter, which sets the
# tail of a stream of equal requests; 44 rather than 22 narrow the
# sampling part of its spread.
_SMALL, _LARGE = 1956, 44


def _chunks(items, k):
    """k consecutive, nearly equal parts; the job runs one part after each
    of its main steps, so query latencies sample the whole job."""
    step = -(-len(items) // k)
    return [items[i:i + step] for i in range(0, len(items), step)]


def _call_cli(main, argv):
    """Run the CLI in-process; (exit code, report without its wall time)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    report = json.loads(text) if text.strip() else {"stderr": err.getvalue()}
    report.pop("wall_time_s", None)
    return code, json.dumps(report, sort_keys=True)


class Construct:
    """Criterion-7 irregular point: pools, gluing, full-point admissibility,
    the (d)/(e) glued family and its EDP ball check, then factor queries."""

    name = "construct"

    def references(self) -> dict:
        return {}

    def setup(self, seed: int, scale: str) -> dict:
        from betalab import beta_core as B, irregular as I, observables as V
        if scale == _FULL:
            sched = ((20, 30, 40), (10, 100, 2500), (0.1, 0.05, 0.02))
            lengths = {512: _SMALL, 1024: _LARGE}
        else:
            sched = ((20, 30), (10, 20), (0.1, 0.05))
            lengths = {32: 40, 128: 2}
        schedule = I.validate_schedule(*sched)
        t_end = schedule.times[-1]
        rng = random.Random(seed)
        queries = [(rng.randrange(t_end - L + 1), L)
                   for L in _stratified(rng, lengths)]
        return {"seed": seed,
                "golden": B.BetaNumber.from_polynomial([1, -1, -1]),
                "phi": V.digit_frequency(1, 1), "targets": (0.5, 0.0),
                "schedule": schedule,
                "family_schedule": I.validate_schedule((20, 30), (2, 2),
                                                       (0.1, 0.05)),
                "queries": queries}

    def job(self, st: dict, ref: dict, ops) -> None:
        from betalab import irregular as I, parry as P
        beta = _fresh(st["golden"])
        phi, targets, sched = st["phi"], st["targets"], st["schedule"]
        seed = st["seed"]

        def pools_ok(pools):
            for k, pool in enumerate(pools):
                n_k, d_k = sched.block_lengths[k], sched.tolerances[k]
                alpha = targets[k % 2]
                for w in pool.words:
                    if len(w) != n_k or not O.no_11(w):
                        return f"level {k + 1} word inadmissible"
                    if not abs(sum(w) / n_k - alpha) < d_k:
                        return f"level {k + 1} word average off target"
            return None

        pools = ops.run("pools", lambda: I.build_word_pools(
            beta, phi, targets, sched, seed=seed), pools_ok)
        ops.output("pools", pools and [p.words for p in pools])

        def point_ok(rep):
            digits = rep["point"].digits
            if len(digits) != sched.times[-1] or not O.no_11(digits):
                return "point has wrong length or a factor 11"
            for row in rep["rows"]:
                t_k = row["t_k"]
                if abs(sum(digits[:t_k]) / t_k - row["average"]) > 1e-12:
                    return f"average at t_k={t_k} misreported"
            if not (all(r["within_bound"] for r in rep["rows"])
                    and rep["oscillates"]):
                return "certificate rows fail"
            return None

        rep = ops.run("construct", lambda: I.construct_irregular_point(
            beta, phi, targets, sched, pools, seed=seed), point_ok,
            needs=pools)
        digits = rep and rep["point"].digits
        ops.output("point", digits and bytes(digits))
        ops.output("rows", rep and rep["rows"])

        parts = iter(_chunks(st["queries"], 3))

        def factor_queries():
            for start, L in next(parts):
                window = digits[start:start + L] if digits else None
                ops.query("factor", lambda: P.is_admissible(window, beta),
                          lambda ok: None if ok == O.no_11(window) and ok
                          else "factor verdict wrong", needs=digits)

        factor_queries()

        verdict = ops.run("admissible", lambda: P.is_admissible(digits, beta),
                          lambda ok: None if ok is True else "point rejected",
                          needs=rep)
        ops.output("admissible", verdict)
        factor_queries()

        fam_sched = st["family_schedule"]

        def family_ok(fam):
            words = fam["family"]
            if fam["count"] != 36 or len(set(words)) != 36:
                return "family is not 36 distinct words"
            if not all(O.no_11(w) for w in words):
                return "family word inadmissible"
            return None

        fam = ops.run("family", lambda: I.enumerate_glued_family(
            beta, fam_sched,
            [pools[0].words[:3], ((0,) * 30, (1, 0, 1, 0, 1, 0) + (0,) * 24)]),
            family_ok, needs=pools)
        ops.output("family", fam and fam["family"])

        def edp():
            member, t1 = fam["family"][0], fam_sched.times[0]
            return I.edp_ball_check(
                fam["family"], fam_sched, [3, 2],
                [(member, t1), (member, t1 + 30),
                 (member, fam_sched.times[-1]), (member, 0)])

        ball = ops.run("edp", edp,
                       lambda r: None if r["all_pass"] else "ball bound fails",
                       needs=fam)
        ops.output("edp", ball and ball["rows"])
        factor_queries()


class Entropy:
    """Bowen and box-dimension cover estimates, Katok separation and
    spanning estimates, then mistake-ball membership queries."""

    name = "entropy"

    def references(self) -> dict:
        return {"h3": math.log(float(O.real_root("golden_markov3"))),
                "log_phi": math.log((1 + math.sqrt(5)) / 2)}

    def setup(self, seed: int, scale: str) -> dict:
        from betalab import beta_core as B
        full = scale == _FULL
        sizes = {12: _SMALL, 16: _LARGE} if full else {8: 40, 10: 2}
        words = {n: O.golden_words(n) for n in sizes}
        rng = random.Random(seed)
        return {"golden": B.BetaNumber.from_polynomial([1, -1, -1]),
                "two": B.BetaNumber.from_decimal("2"),
                "full_depth": 16 if full else 10,
                "golden_depth": 24 if full else 16,
                "box_depths": (12, 24) if full else (8, 16),
                "katok_two": [10, 12, 14] if full else [8, 10],
                "katok_golden": [14] if full else [10],
                "ball_words": words,
                "ball_centers": [(n, rng.randrange(len(words[n])))
                                 for n in _stratified(rng, sizes)]}

    def job(self, st: dict, ref: dict, ops) -> None:
        from betalab import entropy as E, parry as P
        golden, two = _fresh((st["golden"], st["two"]))
        log_phi, h3 = ref["log_phi"], ref["h3"]
        words = st["ball_words"]
        masks = {n: [O.as_mask(w) for w in ws] for n, ws in words.items()}
        g = E.MistakeFunction.log2()
        parts = iter(_chunks(st["ball_centers"], 5))

        def ball_queries():
            for n, c in next(parts):
                ops.query("ball", lambda: sum(
                    1 for z in words[n]
                    if E.mistake_ball_contains(words[n][c], z, g, window=2)),
                    lambda hits: None if hits == sum(
                        1 for m in masks[n]
                        if O.window_bad(masks[n][c], m, 2, n) <= g(n))
                    else "ball count wrong")

        def bowen_ok(target, tol):
            def check(rep):
                if not abs(rep.estimate - target) < tol:
                    return f"estimate {rep.estimate} not within {tol}"
                for _s, row in rep.monotonicity:
                    if any(a[1] > b[1] + 1e-12 for a, b in zip(row, row[1:])):
                        return "M(Z, s, N) decreases in N"
                return None
            return check

        rep = ops.run("bowen_full", lambda: E.bowen_entropy(
            E.CylinderTree.full(1, st["full_depth"])),
            bowen_ok(math.log(2), 0.01))
        ops.output("bowen_full", rep and (rep.estimate, rep.monotonicity))
        ball_queries()

        rep = ops.run("bowen_golden", lambda: E.bowen_entropy(
            E.CylinderTree.from_beta(golden, st["golden_depth"])),
            bowen_ok(log_phi, 0.02))
        ops.output("bowen_golden", rep and (rep.estimate, rep.monotonicity))
        ball_queries()

        def box():
            depths = st["box_depths"]
            tree = E.CylinderTree.from_markov(P.markov_approx(golden, 3),
                                              depths[-1])
            return E.box_dimension_estimate(tree, golden, depths)

        rep = ops.run("box", box, lambda r: None if abs(
            r["estimate"] - h3 / log_phi) < 0.03 else "box dimension off")
        ops.output("box", rep and rep["rows"])
        ball_queries()

        def katok_ok(res):
            if not all(r["count_g"] <= r["count_zero"] for r in res["rows"]):
                return "count_g exceeds count_zero"
            return None

        for name, beta, n_list, method in (
                ("katok_two", two, st["katok_two"], "separated"),
                ("katok_golden", golden, st["katok_golden"], "spanning")):
            res = ops.run(name, lambda: E.katok_entropy_estimate(
                E.uniform_admissible_sampler(beta), E.MistakeFunction.log2(),
                0.1, n_list, method=method), katok_ok)
            ops.output(name, res and res["rows"])
            ball_queries()


class Language:
    """Greedy-expansion round-trip queries on six bases, count profiles,
    Markov enumeration, the nested exotic shift and in-process CLI calls."""

    name = "language"

    BASES = ("two", "golden", "tribonacci", "figure", "three_halves",
             "one_seven")

    def setup(self, seed: int, scale: str) -> dict:
        from betalab import beta_core as B
        full = scale == _FULL
        bases = {"two": B.BetaNumber.from_decimal("2"),
                 "golden": B.BetaNumber.from_polynomial([1, -1, -1]),
                 "tribonacci": B.BetaNumber.from_polynomial([1, -1, -1, -1]),
                 "figure": B.BetaNumber.from_digit_string("(201001)"),
                 "three_halves": B.BetaNumber.from_decimal("3/2"),
                 "one_seven": B.BetaNumber.from_decimal("1.7")}
        rng = random.Random(seed)
        lengths = (64, 128, 256) if full else (16, 32, 64)
        per = 114 if full else 2
        strata = {(b, L): per for b in self.BASES for L in lengths}
        queries = [(b, Fraction(rng.randrange(10 ** 6), 10 ** 6), L)
                   for b, L in _stratified(rng, strata)]
        return {"bases": bases, "queries": queries,
                "profile_n": 2000 if full else 200,
                "markov": (6, 18) if full else (4, 10),
                "exotic": ((4, 6, 8), 3, 60) if full else ((4, 6), 2, 20)}

    def references(self) -> dict:
        return {name: O.RATIONAL.get(name) or O.real_root(name)
                for name in self.BASES}

    def job(self, st: dict, real: dict, ops) -> None:
        from betalab import beta_core as B, cli as C, exotic as X, parry as P
        bases = _fresh(st["bases"])
        parts = iter(_chunks(st["queries"], 4))

        def expand_queries():
            for name, x, L in next(parts):
                beta = bases[name]

                def query():
                    word = B.greedy_expansion(x, beta, L)
                    return word, P.is_admissible(word, beta)

                def query_ok(res):
                    word, ok = res
                    if ok is not True:
                        return "greedy expansion rejected"
                    return O.greedy_digits_ok(word.digits, x, real[name])

                ops.query("expand", query, query_ok)

        expand_queries()

        for name in self.BASES:
            beta = bases[name]
            b = float(real[name])
            rows = ops.run(f"profile_{name}",
                           lambda: P.count_profile(beta, st["profile_n"]),
                           lambda r: O.count_rows_ok(r, name, math.log(b), b))
            ops.output(f"profile_{name}", rows and [c for _, c, _ in rows])
        expand_queries()

        order, n = st["markov"]
        for name, w_period in O.BATTERY_W.items():
            beta = bases[name]
            words = ops.run(
                f"markov_{name}",
                lambda: P.markov_approx(beta, order).enumerate_words(n),
                lambda ws: O.words_admissible(ws, w_period, beta.digit_bound))
            ops.output(f"markov_{name}", words and O.words_digest(words))
            del words
        expand_queries()

        N_seq, level, n_max = st["exotic"]
        shift = ops.run("exotic_build", lambda: X.build_nested(N_seq))
        report = ops.run(
            "exotic_entropy",
            lambda: X.nested_entropy_report(shift, level, n_max),
            lambda r: None if r["counts"][11]["level_1"]
            == O.exotic_level1_brute(N_seq[0], 12) else "level-1 count wrong",
            needs=shift)
        ops.output("exotic_counts", report and report["counts"])
        if shift:
            patterns = [p for f in shift.forbidden_sets[:level] for p in f]
            for w in patterns:
                rep = ops.run("exotic_repair",
                              lambda: X.single_edit_repair(w, shift, level),
                              lambda r: O.repair_ok(w, r, patterns))
                ops.output("exotic_repair", rep and rep["repaired"])

        for argv in (["count", "--beta", "2", "--n", "5"],
                     ["admissible", "--beta-digits", "10(10)", "--word", "11"],
                     ["expansion-of-one", "--beta-poly", "1,-1,-1,-1",
                      "--n", "12"],
                     ["katok", "--beta", "2", "--gamma", "0.1", "--g", "log",
                      "--n-list", "10,12"],
                     ["exotic", "--levels", "2", "--N", "4,6", "--nmax", "14"]):
            out = ops.run(f"cli_{argv[0]}", lambda: _call_cli(C.main, argv),
                          lambda r: None if r[0] == 0 else f"exit code {r[0]}")
            ops.output(f"cli_{argv[0]}", out)
        expand_queries()


WORKLOADS = {w.name: w for w in (Construct(), Entropy(), Language())}

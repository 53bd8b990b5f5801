"""Command-line entry point: every operation as a subcommand emitting a
machine-readable run report.

Exit codes: 0 all asserted checks pass; 1 a check failed; 2 usage error;
3 precision or search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .automata import iter_words
from .beta_core import (
    BetaNumber,
    expansion_of_one,
    greedy_expansion,
)
from .entropy import (
    CylinderTree,
    MistakeFunction,
    SeparationInstance,
    bowen_entropy,
    box_dimension_estimate,
    cylinder_diameter_bounds,
    dimension_bounds,
    katok_entropy_estimate,
    max_separated,
    min_spanning,
    uniform_admissible_sampler,
)
from .errors import ResourceError, UsageError
from .exotic import (
    build_nested,
    nested_entropy_report,
    no_short_periodics,
    single_edit_repair,
)
from .irregular import (
    build_word_pools,
    construct_irregular_point,
    edp_ball_check,
    enumerate_glued_family,
    thin_separated,
    validate_schedule,
)
from .observables import parse_observable
from .parry import (
    Automaton,
    count_admissible,
    count_profile,
    is_admissible,
    markov_approx,
    periodic_witnesses,
    repair_word,
    z_values,
)
from .words import (
    SymbolWord,
    as_word,
    format_digits,
    format_periodic,
    parse_digits,
)

SCHEMA_VERSION = 1
DEFAULT_ENUM_BUDGET = 10 ** 5


# --- argument helpers ------------------------------------------------------

def _add_beta_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", help="decimal or fraction literal, e.g. 2 or 9/5")
    g.add_argument("--beta-poly",
                   help="descending integer coefficients, e.g. 1,-1,-1; "
                        "beta is the polynomial's largest real root > 1, "
                        "whatever its factorization")
    g.add_argument("--beta-digits",
                   help="expansion of 1 as digits, e.g. 10(10) or 201001")


def _beta_from_args(args) -> BetaNumber:
    if getattr(args, "beta", None):
        return BetaNumber.from_decimal(args.beta)
    if getattr(args, "beta_poly", None):
        return BetaNumber.from_polynomial(_parse_int_list(args.beta_poly))
    if getattr(args, "beta_digits", None):
        return BetaNumber.from_digit_string(args.beta_digits)
    raise UsageError("one of --beta / --beta-poly / --beta-digits is required")


def _parse_list(text: str, kind, items=None) -> list:
    try:
        return [kind(v) for v in (text.split(",") if items is None else items)]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r}") from exc


def _parse_word(text: str) -> bytes:
    """A word written as digits ("201", "[10]3") or as integers "2,0,1"."""
    text = text.strip()
    return as_word(_parse_list(text, int) if "," in text
                   else parse_digits(text))


def _parse_int_list(text: str) -> list[int]:
    return _parse_list(text, int)


def _parse_float_list(text: str) -> list[float]:
    return _parse_list(text, float)


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"cannot open {path!r}: {exc.strerror}") from exc


# --- report plumbing -------------------------------------------------------

def _echo_params(args) -> dict:
    skip = {"func", "emit", "out"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _emit(report: dict, args) -> None:
    stream = _open(args.out, "w") if getattr(args, "out", None) else sys.stdout
    try:
        if args.emit == "csv":
            rows = report["payload"].get("rows")
            writer = csv.writer(stream)
            if isinstance(rows, list) and rows and isinstance(rows[0], dict):
                cols = list(rows[0].keys())
                writer.writerow(cols)
                for r in rows:
                    writer.writerow([r.get(c) for c in cols])
            else:
                writer.writerow(["key", "value"])
                for k, v in sorted(report["payload"].items()):
                    writer.writerow([k, json.dumps(v, default=str)])
        else:
            json.dump(report, stream, indent=2, sort_keys=True, default=str)
            stream.write("\n")
    finally:
        if stream is not sys.stdout:
            stream.close()


def _run(args, payload: dict, checks: list, started: float) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "subcommand": args.func.__name__.removeprefix("cmd_").replace("_", "-"),
        "params": _echo_params(args),
        "seed": getattr(args, "seed", None),
        "payload": payload,
        "checks": [{"name": n, "pass": bool(ok)} for n, ok in checks],
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    _emit(report, args)
    return 0 if all(ok for _, ok in checks) else 1


# --- subcommands -----------------------------------------------------------

def cmd_expand(args, started):
    beta = _beta_from_args(args)
    x, = _parse_list(args.x, Fraction, [args.x])
    word = greedy_expansion(x, beta, args.n)
    ok = is_admissible(word, beta)
    return _run(args, {"digits": format_digits(word), "n": args.n,
                       "beta": beta.value},
                [("expansion-admissible", ok)], started)


def cmd_expansion_of_one(args, started):
    beta = _beta_from_args(args)
    word = expansion_of_one(beta, args.n)
    payload = {"digits": format_digits(word), "beta": beta.value,
               "digit_bound": beta.digit_bound}
    form = beta.periodic_form()
    if form is not None:
        payload["periodic_form"] = format_periodic(*form)
    return _run(args, payload, [], started)


def cmd_beta_from_digits(args, started):
    beta = BetaNumber.from_digit_string(args.digits)
    lo, hi = beta.enclosure()
    payload = {"beta": beta.value, "digit_bound": beta.digit_bound,
               "enclosure": [str(lo), str(hi)],
               "round_trip_digits": format_digits(beta.digits(args.n))}
    return _run(args, payload, [], started)


def cmd_admissible(args, started):
    beta = _beta_from_args(args)
    word = SymbolWord(_parse_word(args.word), beta.digit_bound)
    ok = is_admissible(word, beta)
    return _run(args, {"word": format_digits(word), "admissible": ok}, [],
                started)


def cmd_graph(args, started):
    beta = _beta_from_args(args)
    if args.n < 1:
        raise UsageError("n must be >= 1")
    labels = list(beta.digits(args.n))
    # vertex i has one forward edge and w_i back-edges to vertex 1
    payload = {"vertex_count": args.n, "forward_labels": labels,
               "z_distance": z_values(beta, args.n).z,
               "back_edge_counts": labels}
    return _run(args, payload, [], started)


def cmd_count(args, started):
    beta = _beta_from_args(args)
    if args.profile:
        rows = [{"n": n, "count": c, "rate": r}
                for n, c, r in count_profile(beta, args.n)]
        rates = [r["rate"] for r in rows]
        ok = all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        return _run(args, {"rows": rows, "log_beta": beta.log},
                    [("rate-non-increasing", ok)], started)
    return _run(args, {"n": args.n, "count": count_admissible(beta, args.n)},
                [], started)


def cmd_zvalues(args, started):
    beta = _beta_from_args(args)
    rep = z_values(beta, args.n)
    payload = {"z": rep.z, "max_z": rep.max_z,
               "ratio_sup": str(rep.ratio_sup),
               "ratio_argmax": rep.ratio_argmax,
               "specification_flag": rep.spec_flag, "window": rep.window}
    return _run(args, payload, [], started)


def cmd_repair(args, started):
    beta = _beta_from_args(args)
    word = SymbolWord(_parse_word(args.word), beta.digit_bound)
    repaired = repair_word(word, beta)
    cost = word.hamming(repaired)
    return _run(args, {"word": format_digits(word),
                       "repaired": format_digits(repaired),
                       "hamming_cost": cost},
                [("hamming-cost-at-most-1", cost <= 1)], started)


def cmd_markov(args, started):
    beta = _beta_from_args(args)
    approx = markov_approx(beta, args.n)
    b_n = approx.approx_beta
    payload = {"n": args.n, "beta": beta.value, "beta_n": b_n.value,
               "entropy": approx.entropy, "gap": beta.value - b_n.value}
    return _run(args, payload,
                [("beta-n-below-beta", beta.compare(b_n) >= 0)], started)


def cmd_witnesses(args, started):
    beta = _beta_from_args(args)
    phi = parse_observable(args.phi, beta.digit_bound)
    lo_w, lo_v, hi_w, hi_v = periodic_witnesses(beta, phi, args.max_period)
    payload = {"low_word": format_digits(lo_w), "low_value": lo_v,
               "high_word": format_digits(hi_w), "high_value": hi_v}
    return _run(args, payload, [("gap-positive", hi_v > lo_v)], started)


def _load_words(args) -> list[bytes]:
    with _open(args.words_file) as fh:
        return [_parse_word(line) for line in fh if line.strip()]


def _separation(args, started, which):
    words = _load_words(args)
    g = MistakeFunction.parse(args.g)
    inst = SeparationInstance(tuple(words), window=args.window, g=g)
    if args.exact:
        inst.exact_budget = max(inst.exact_budget, len(words))
    res = max_separated(inst) if which == "separated" else min_spanning(inst)
    payload = {"size": res.size, "exact": res.exact,
               "bound_direction": res.bound_direction,
               "witness": [format_digits(w) for w in res.witness]}
    return _run(args, payload, [], started)


def cmd_separated(args, started):
    return _separation(args, started, "separated")


def cmd_spanning(args, started):
    return _separation(args, started, "spanning")


def cmd_katok(args, started):
    beta = _beta_from_args(args)
    g = MistakeFunction.parse(args.g)
    n_list = _parse_int_list(args.n_list) if args.n_list else \
        list(range(max(4, args.nmax - 4), args.nmax + 1, 2))
    rep = katok_entropy_estimate(uniform_admissible_sampler(beta), g,
                                 args.gamma, n_list, window=args.window)
    return _run(args, {"rows": rep["rows"], "gamma": rep["gamma"],
                       "mistake_function": rep["mistake_function"],
                       "log_beta": beta.log}, [], started)


def _tree_from_args(args) -> tuple[CylinderTree, BetaNumber | None]:
    if getattr(args, "tree", None):
        with _open(args.tree) as fh:
            return CylinderTree.from_json(fh.read()), None
    beta = _beta_from_args(args)
    if getattr(args, "markov_n", None):
        return CylinderTree.from_markov(
            markov_approx(beta, args.markov_n), args.depth), beta
    return CylinderTree.from_beta(beta, args.depth), beta


def cmd_bowen(args, started):
    tree, _ = _tree_from_args(args)
    rep = bowen_entropy(tree, n_min=args.nmin)
    mono_ok = all(
        all(a[1] <= b[1] + 1e-12 for a, b in zip(row, row[1:]))
        for _, row in rep.monotonicity)
    payload = {"estimate": rep.estimate, "bracket": list(rep.bracket),
               "depth": rep.depth,
               "monotonicity": [{"s": s, "grid": row}
                                for s, row in rep.monotonicity]}
    return _run(args, payload, [("M-nondecreasing-in-N", mono_ok)], started)


def cmd_diam(args, started):
    beta = _beta_from_args(args)
    lo, hi = cylinder_diameter_bounds(beta, _parse_word(args.word))
    return _run(args, {"lower": lo, "upper": hi},
                [("lower-at-most-upper", lo <= hi)], started)


def cmd_dims(args, started):
    beta = _beta_from_args(args)
    rep = dimension_bounds(args.entropy, beta, args.zratio,
                           bounded_z_certificate=args.bounded_z)
    return _run(args, rep, [("lower-at-most-upper",
                             rep["lower"] <= rep["upper"] + 1e-12)], started)


def cmd_boxdim(args, started):
    tree, beta = _tree_from_args(args)
    if beta is None:
        beta = _beta_from_args(args)
    depths = _parse_int_list(args.depths) if args.depths else [tree.depth]
    rep = box_dimension_estimate(tree, beta, depths)
    bowen = bowen_entropy(tree)
    consistency = abs(rep["estimate"] - bowen.estimate / beta.log)
    payload = {"rows": rep["rows"], "estimate": rep["estimate"],
               "bowen_over_log_beta": bowen.estimate / beta.log,
               "consistency_gap": consistency}
    return _run(args, payload,
                [("box-vs-bowen-consistent", consistency < 0.05)], started)


def _schedule_from_args(args):
    if args.n_list and args.N_list and args.delta_list:
        return validate_schedule(_parse_int_list(args.n_list),
                                 _parse_int_list(args.N_list),
                                 _parse_float_list(args.delta_list))
    return _compact_schedule(args.levels)


def _compact_schedule(levels: int):
    """Small default schedule with decreasing certificates and modest t_k."""
    n = [4 * (k + 1) for k in range(1, levels + 1)]
    N = [5]
    t = n[0] * N[0]
    for k in range(1, levels):
        N.append(max(1, math.ceil(t * (k + 1) / 3)))
        t += n[k] * N[k]
    d = [0.1 * 2.0 ** (1 - k) for k in range(1, levels + 1)]
    return validate_schedule(n, N, d)


def cmd_schedule(args, started):
    sch = _schedule_from_args(args)
    payload = {"block_lengths": list(sch.block_lengths),
               "multiplicities": list(sch.multiplicities),
               "tolerances": list(sch.tolerances),
               "times": list(sch.times),
               "certificates": list(sch.certificates)}
    certs = sch.certificates
    return _run(args, payload,
                [("certificates-decreasing",
                  all(a > b for a, b in zip(certs, certs[1:])))], started)


def cmd_pools(args, started):
    beta = _beta_from_args(args)
    phi = parse_observable(args.phi, beta.digit_bound)
    targets = _parse_float_list(args.alpha)
    sch = _schedule_from_args(args)
    pools = build_word_pools(beta, phi, targets, sch, seed=args.seed)
    rows = [{"level": p.level, "target": p.target, "size": p.size,
             "achieved_min": p.achieved[0], "achieved_max": p.achieved[1],
             "log_size_over_n": p.log_size_over_n} for p in pools]
    return _run(args, {"rows": rows, "log_beta": beta.log},
                [("pools-nonempty", all(p.size > 0 for p in pools))], started)


def cmd_irregular(args, started):
    beta = _beta_from_args(args)
    phi = parse_observable(args.phi, beta.digit_bound)
    targets = _parse_float_list(args.alpha)
    sch = _schedule_from_args(args)
    pools = build_word_pools(beta, phi, targets, sch, seed=args.seed)
    rep = construct_irregular_point(beta, phi, targets, sch, pools,
                                    seed=args.seed)
    point = rep.pop("point")
    payload = {"schedule": {"block_lengths": list(sch.block_lengths),
                            "multiplicities": list(sch.multiplicities),
                            "times": list(sch.times)},
               "pool_sizes": [p.size for p in pools],
               "rows": rep["rows"], "oscillates": rep["oscillates"],
               "edits": rep["edits"], "prefix_length": len(point.digits)}
    checks = [("averages-within-bounds",
               all(r["within_bound"] for r in rep["rows"])),
              ("oscillation-observed", rep["oscillates"])]
    return _run(args, payload, checks, started)


def _small_family(args, beta):
    n = [4 + 2 * k for k in range(args.levels)]
    N = [args.multiplicity] * args.levels
    d = [0.2 * 2.0 ** -k for k in range(args.levels)]
    sch = validate_schedule(n, N, d)
    pools = []
    for nk in n:
        kept = thin_separated(iter_words(Automaton(beta), nk), args.pool_size)
        if len(kept) < args.pool_size:
            raise UsageError(f"cannot build pool of {args.pool_size} "
                             f"separated words at length {nk}")
        pools.append(tuple(kept))
    return sch, pools


def cmd_glued_family(args, started):
    beta = _beta_from_args(args)
    sch, pools = _small_family(args, beta)
    fam = enumerate_glued_family(beta, sch, pools, budget=args.budget)
    payload = {"count": fam["count"], "expected": fam["expected"],
               "pairwise_distinct": fam["pairwise_distinct"],
               "entropy_proxy": fam["entropy_proxy"],
               "pool_exponents": fam["pool_exponents"]}
    return _run(args, payload,
                [("count-is-product", fam["count"] == fam["expected"]),
                 ("pairwise-distinct", fam["pairwise_distinct"])], started)


def cmd_edp(args, started):
    beta = _beta_from_args(args)
    sch, pools = _small_family(args, beta)
    fam = enumerate_glued_family(beta, sch, pools, budget=args.budget)
    t = sch.times
    samples = [(fam["family"][0], t[0])]
    if len(t) > 1:
        samples.append((fam["family"][-1], t[0] + sch.block_lengths[1]))
        samples.append((fam["family"][0], t[-1]))
    samples.append((fam["family"][0], 0))
    rep = edp_ball_check(fam["family"], sch, [len(p) for p in pools], samples)
    return _run(args, {"rows": rep["rows"],
                       "family_size": rep["family_size"]},
                [("ball-bounds-hold", rep["all_pass"])], started)


def cmd_exotic(args, started):
    N_seq = _parse_int_list(args.N)
    shift = build_nested(N_seq, k_max=args.levels)
    level = args.levels
    periodics = no_short_periodics(shift, level)
    repairs = []
    for w in shift.forbidden_sets[level - 1]:
        r = single_edit_repair(w, shift, level)
        repairs.append({"word": format_digits(w),
                        "working_positions": r["working_positions"],
                        "lower_bound": r["lower_bound"]})
    ent = nested_entropy_report(shift, level, args.nmax)
    payload = {"N": N_seq,
               "forbidden_sizes": [len(f) for f in shift.forbidden_sets],
               "no_short_periodics": periodics["all_excluded"],
               "repairs": repairs,
               "rates": ent["rates"], "drops": ent["drops"]}
    checks = [
        ("no-short-periodics", periodics["all_excluded"]),
        ("repair-abundance",
         all(r["working_positions"] >= r["lower_bound"] for r in repairs)),
        ("entropy-drops-within-epsilon",
         all(d["within"] for d in ent["drops"])),
    ]
    return _run(args, payload, checks, started)


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="betalab",
        description="beta-shift expansions, admissibility, entropy "
                    "estimates, and irregular-point construction")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        sp.add_argument("--emit", choices=("json", "csv"), default="json",
                        help="output format (csv emits payload rows)")
        sp.add_argument("--out", help="write the report to this file")
        return sp

    sp = add("expand", cmd_expand, help="greedy expansion of x in base beta")
    _add_beta_args(sp)
    sp.add_argument("--x", required=True, help="point in [0,1), e.g. 3/10")
    sp.add_argument("--n", type=int, default=32)

    sp = add("expansion-of-one", cmd_expansion_of_one,
             help="the expansion of 1, w(beta)")
    _add_beta_args(sp)
    sp.add_argument("--n", type=int, default=32)

    sp = add("beta-from-digits", cmd_beta_from_digits,
             help="recover beta from a digit sequence")
    sp.add_argument("--digits", required=True, help="e.g. 10(10) or 201001")
    sp.add_argument("--n", type=int, default=16,
                    help="round-trip digits to report")

    sp = add("admissible", cmd_admissible, help="Parry admissibility check")
    _add_beta_args(sp)
    sp.add_argument("--word", required=True)

    sp = add("graph", cmd_graph, help="prefix graph truncation")
    _add_beta_args(sp)
    sp.add_argument("--n", type=int, default=8)

    sp = add("count", cmd_count, help="count admissible words")
    _add_beta_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--profile", action="store_true",
                    help="per-length counts and growth rates")

    sp = add("zvalues", cmd_zvalues, help="zero-run distances z_n")
    _add_beta_args(sp)
    sp.add_argument("--n", type=int, default=32)

    sp = add("repair", cmd_repair, help="zero the last nonzero digit")
    _add_beta_args(sp)
    sp.add_argument("--word", required=True)

    sp = add("markov", cmd_markov, help="Markov approximation beta(n)")
    _add_beta_args(sp)
    sp.add_argument("--n", type=int, required=True)

    sp = add("witnesses", cmd_witnesses,
             help="periodic words realizing extreme averages")
    _add_beta_args(sp)
    sp.add_argument("--phi", required=True, help="freq:1 | const:c | block:w")
    sp.add_argument("--max-period", type=int, default=6)

    for name, fn in (("separated", cmd_separated), ("spanning", cmd_spanning)):
        sp = add(name, fn, help=f"max {name} subset under mistakes")
        sp.add_argument("--words-file", required=True,
                        help="one word per line")
        sp.add_argument("--g", default="zero", help="zero | const:c | log")
        sp.add_argument("--window", type=int, default=1)
        sp.add_argument("--exact", action="store_true",
                        help="force exhaustive search")

    sp = add("katok", cmd_katok, help="finite-scale Katok estimates")
    _add_beta_args(sp)
    sp.add_argument("--gamma", type=float, default=0.1)
    sp.add_argument("--g", default="zero")
    sp.add_argument("--window", type=int, default=1)
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--n-list", help="explicit lengths, e.g. 8,10,12")

    sp = add("bowen", cmd_bowen, help="cylinder-cover entropy")
    _add_beta_args(sp)
    sp.add_argument("--tree", help="CylinderTree JSON file")
    sp.add_argument("--depth", type=int, default=16)
    sp.add_argument("--markov-n", type=int,
                    help="build the tree from beta(n) instead of beta")
    sp.add_argument("--nmin", type=int, default=1)

    sp = add("diam", cmd_diam, help="cylinder diameter bounds")
    _add_beta_args(sp)
    sp.add_argument("--word", required=True)

    sp = add("dims", cmd_dims, help="entropy-to-dimension sandwich")
    _add_beta_args(sp)
    sp.add_argument("--entropy", type=float, required=True)
    sp.add_argument("--zratio", type=float, default=0.0)
    sp.add_argument("--bounded-z", action="store_true")

    sp = add("boxdim", cmd_boxdim, help="box-counting dimension estimate")
    _add_beta_args(sp)
    sp.add_argument("--tree", help="CylinderTree JSON file")
    sp.add_argument("--depth", type=int, default=16)
    sp.add_argument("--markov-n", type=int)
    sp.add_argument("--depths", help="depth grid, e.g. 12,24")

    sp = add("schedule", cmd_schedule, help="validate a gluing schedule")
    sp.add_argument("--n-list")
    sp.add_argument("--N-list")
    sp.add_argument("--delta-list")
    sp.add_argument("--levels", type=int, default=3)

    sp = add("pools", cmd_pools, help="per-level word pools")
    _add_beta_args(sp)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--alpha", required=True, help="two targets, e.g. 0.5,0")
    sp.add_argument("--n-list")
    sp.add_argument("--N-list")
    sp.add_argument("--delta-list")
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("irregular", cmd_irregular,
             help="construct an irregular point and certify oscillation")
    _add_beta_args(sp)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--n-list")
    sp.add_argument("--N-list")
    sp.add_argument("--delta-list")
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)

    for name, fn in (("glued-family", cmd_glued_family), ("edp", cmd_edp)):
        sp = add(name, fn, help="enumerate the glued family" if
                 name == "glued-family" else "entropy distribution principle "
                 "ball check")
        _add_beta_args(sp)
        sp.add_argument("--levels", type=int, default=2)
        sp.add_argument("--pool-size", type=int, default=2)
        sp.add_argument("--multiplicity", type=int, default=2)
        sp.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)

    sp = add("exotic", cmd_exotic, help="nested forbidden-power shifts")
    sp.add_argument("--levels", type=int, default=2)
    sp.add_argument("--N", default="4,6")
    sp.add_argument("--nmax", type=int, default=14)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        return args.func(args, started)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(json.dumps({"error": "resource", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

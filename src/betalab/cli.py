"""Command-line entry point: every operation as a subcommand emitting a
machine-readable run report.

Each subcommand is a function from its parsed arguments to (payload,
checks), where checks is a list of (name, passed) pairs; `main` alone
parses argv, builds the report around them and emits it.

Exit codes: 0 all asserted checks pass; 1 a check failed; 2 usage error;
3 precision or search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from functools import cache
from operator import ne

from . import __version__
from .automata import enumerate_words
from .beta_core import (
    BetaNumber,
    expansion_of_one,
    greedy_expansion,
    precision_cap,
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
from .errors import BudgetExceeded, ResourceError, UsageError
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


def _add_tree_args(p: argparse.ArgumentParser):
    _add_beta_args(p)
    p.add_argument("--tree", help="CylinderTree JSON file")
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--markov-n", type=int,
                   help="build the tree from beta(n) instead of beta")


def _add_schedule_args(p: argparse.ArgumentParser):
    p.add_argument("--n-list")
    p.add_argument("--N-list")
    p.add_argument("--delta-list")
    p.add_argument("--levels", type=int, default=3)


def _beta_from_args(args) -> BetaNumber:
    if getattr(args, "beta", None):
        return BetaNumber.from_decimal(args.beta)
    if getattr(args, "beta_poly", None):
        return BetaNumber.from_polynomial(_parse_list(args.beta_poly, int))
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


# --- subcommands: each maps its parsed args to (payload, checks) ------------

def cmd_expand(args):
    beta = _beta_from_args(args)
    x, = _parse_list(args.x, Fraction, [args.x])
    word = greedy_expansion(x, beta, args.n)
    ok = is_admissible(word, beta)
    return ({"digits": format_digits(word), "n": args.n, "beta": beta.value},
            [("expansion-admissible", ok)])


def cmd_expansion_of_one(args):
    beta = _beta_from_args(args)
    word = expansion_of_one(beta, args.n)
    payload = {"digits": format_digits(word), "beta": beta.value,
               "digit_bound": beta.digit_bound}
    form = beta.periodic_form()
    if form is not None:
        payload["periodic_form"] = format_periodic(*form)
    return payload, []


def cmd_beta_from_digits(args):
    if args.n < 1:
        raise UsageError("n must be >= 1")
    beta = BetaNumber.from_digit_string(args.digits)
    lo, hi = beta.enclosure()
    return {"beta": beta.value, "digit_bound": beta.digit_bound,
            "enclosure": [str(lo), str(hi)],
            "round_trip_digits": format_digits(beta.digits(args.n))}, []


def cmd_admissible(args):
    beta = _beta_from_args(args)
    word = _parse_word(args.word)
    ok = is_admissible(word, beta)
    return {"word": format_digits(word), "admissible": ok}, []


def cmd_graph(args):
    beta = _beta_from_args(args)
    if args.n < 1:
        raise UsageError("n must be >= 1")
    labels = list(beta.digits(args.n))
    # vertex i has one forward edge and w_i back-edges to vertex 1
    return {"vertex_count": args.n, "forward_labels": labels,
            "z_distance": z_values(beta, args.n).z,
            "back_edge_counts": labels}, []


def _decimal(count: int) -> int:
    """count, or BudgetExceeded past Python's int-to-decimal digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and count >= 10 ** limit:
        raise BudgetExceeded(f"count has more than {limit} decimal digits")
    return count


def cmd_count(args):
    beta = _beta_from_args(args)
    if not args.profile:
        return {"n": args.n,
                "count": _decimal(count_admissible(beta, args.n))}, []
    rows = [{"n": n, "count": c, "rate": r}
            for n, c, r in count_profile(beta, args.n)]
    _decimal(rows[-1]["count"])  # counts never decrease with n
    rates = [r["rate"] for r in rows]
    ok = all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    return {"rows": rows, "log_beta": beta.log}, [("rate-non-increasing", ok)]


def cmd_zvalues(args):
    beta = _beta_from_args(args)
    rep = z_values(beta, args.n)
    return {"z": rep.z, "max_z": rep.max_z,
            "ratio_sup": str(rep.ratio_sup),
            "ratio_argmax": rep.ratio_argmax,
            "specification_gap": rep.gap, "window": rep.window}, []


def cmd_repair(args):
    beta = _beta_from_args(args)
    word = _parse_word(args.word)
    repaired = repair_word(word, beta)
    cost = sum(map(ne, word, repaired))
    return ({"word": format_digits(word), "repaired": format_digits(repaired),
             "hamming_cost": cost}, [("hamming-cost-at-most-1", cost <= 1)])


def cmd_markov(args):
    beta = _beta_from_args(args)
    approx = markov_approx(beta, args.n)
    b_n = approx.approx_beta
    return ({"n": args.n, "beta": beta.value, "beta_n": b_n.value,
             "entropy": approx.entropy, "gap": beta.value - b_n.value},
            [("beta-n-below-beta", beta.compare(b_n) >= 0)])


def cmd_witnesses(args):
    beta = _beta_from_args(args)
    phi = parse_observable(args.phi, beta.digit_bound)
    lo_w, lo_v, hi_w, hi_v = periodic_witnesses(beta, phi, args.max_period)
    return ({"low_word": format_digits(lo_w), "low_value": float(lo_v),
             "high_word": format_digits(hi_w), "high_value": float(hi_v)},
            [("gap-positive", hi_v > lo_v)])


def cmd_separation(args):
    """`separated` and `spanning`: the largest separated or the smallest
    spanning subset of the words file."""
    with _open(args.words_file) as fh:
        words = [_parse_word(line) for line in fh if line.strip()]
    g = MistakeFunction.parse(args.g)
    inst = SeparationInstance(words, window=args.window, g=g,
                              exact=args.exact)
    search = max_separated if args.subcommand == "separated" else min_spanning
    res = search(inst)
    return {"size": res.size, "exact": res.exact,
            "bound_direction": res.bound_direction,
            "witness": [format_digits(w) for w in res.witness]}, []


def cmd_katok(args):
    beta = _beta_from_args(args)
    g = MistakeFunction.parse(args.g)
    n_list = _parse_list(args.n_list, int) if args.n_list else \
        list(range(max(4, args.nmax - 4), args.nmax + 1, 2))
    rep = katok_entropy_estimate(uniform_admissible_sampler(beta), g,
                                 args.gamma, n_list, window=args.window)
    return {"rows": rep["rows"], "gamma": rep["gamma"],
            "mistake_function": rep["mistake_function"],
            "log_beta": beta.log}, []


def _tree_from_args(args) -> tuple[CylinderTree, BetaNumber | None]:
    if args.tree:
        with _open(args.tree) as fh:
            return CylinderTree.from_json(fh.read()), None
    if args.depth < 1:
        raise UsageError("--depth must be >= 1")
    beta = _beta_from_args(args)
    if args.markov_n is not None:
        return CylinderTree.from_markov(
            markov_approx(beta, args.markov_n), args.depth), beta
    return CylinderTree.from_beta(beta, args.depth), beta


def cmd_bowen(args):
    tree, _ = _tree_from_args(args)
    rep = bowen_entropy(tree, n_min=args.nmin)
    mono_ok = all(
        all(a[1] <= b[1] + 1e-12 for a, b in zip(row, row[1:]))
        for _, row in rep.monotonicity)
    return ({"estimate": rep.estimate, "bracket": list(rep.bracket),
             "depth": rep.depth,
             "monotonicity": [{"s": s, "grid": row}
                              for s, row in rep.monotonicity]},
            [("M-nondecreasing-in-N", mono_ok)])


def cmd_diam(args):
    beta = _beta_from_args(args)
    word = _parse_word(args.word)
    if not word:
        raise UsageError("--word must not be empty")
    lo, hi = cylinder_diameter_bounds(beta, word)
    return {"lower": lo, "upper": hi}, [("lower-at-most-upper", lo <= hi)]


def cmd_dims(args):
    beta = _beta_from_args(args)
    rep = dimension_bounds(args.entropy, beta, args.zratio,
                           bounded_z_certificate=args.bounded_z)
    return rep, [("lower-at-most-upper", rep["lower"] <= rep["upper"] + 1e-12)]


def cmd_boxdim(args):
    tree, beta = _tree_from_args(args)
    if beta is None:
        beta = _beta_from_args(args)
    depths = _parse_list(args.depths, int) if args.depths else [tree.depth]
    rep = box_dimension_estimate(tree, beta, depths)
    bowen = bowen_entropy(tree)
    consistency = abs(rep["estimate"] - bowen.estimate / beta.log)
    return ({"rows": rep["rows"], "estimate": rep["estimate"],
             "bowen_over_log_beta": bowen.estimate / beta.log,
             "consistency_gap": consistency},
            [("box-vs-bowen-consistent", consistency < 0.05)])


def _schedule_from_args(args):
    lists = (args.n_list, args.N_list, args.delta_list)
    if lists.count(None) == 3:
        return _compact_schedule(args.levels)
    if None in lists:
        raise UsageError("--n-list, --N-list and --delta-list go together: "
                         "give all three or none")
    return validate_schedule(_parse_list(args.n_list, int),
                             _parse_list(args.N_list, int),
                             _parse_list(args.delta_list, float))


def _compact_schedule(levels: int):
    """Small default schedule with decreasing certificates and modest t_k."""
    if levels < 1:
        raise UsageError("levels must be >= 1")
    n = [4 * (k + 1) for k in range(1, levels + 1)]
    N = [5]
    t = n[0] * N[0]
    for k in range(1, levels):
        N.append(max(1, -(-t * (k + 1) // 3)))
        t += n[k] * N[k]
    d = [0.1 * 2.0 ** (1 - k) for k in range(1, levels + 1)]
    return validate_schedule(n, N, d)


def cmd_schedule(args):
    sch = _schedule_from_args(args)
    certs = sch.certificates
    return ({"block_lengths": list(sch.block_lengths),
             "multiplicities": list(sch.multiplicities),
             "tolerances": list(map(float, sch.tolerances)),
             "times": list(sch.times),
             "certificates": list(map(float, certs))},
            [("certificates-decreasing",
              all(a > b for a, b in zip(certs, certs[1:])))])


def _pools_from_args(args):
    """The prelude of `pools` and `irregular`: beta, phi, the two targets,
    the schedule and one word pool per level."""
    beta = _beta_from_args(args)
    phi = parse_observable(args.phi, beta.digit_bound)
    targets = _parse_list(args.alpha, float)
    sch = _schedule_from_args(args)
    pools = build_word_pools(beta, phi, targets, sch, seed=args.seed)
    return beta, phi, targets, sch, pools


def cmd_pools(args):
    beta, _, _, _, pools = _pools_from_args(args)
    rows = [{"level": p.level, "target": float(p.target), "size": p.size,
             "achieved_min": float(p.achieved[0]),
             "achieved_max": float(p.achieved[1]),
             "log_size_over_n": p.log_size_over_n} for p in pools]
    return ({"rows": rows, "log_beta": beta.log},
            [("pools-nonempty", all(p.size > 0 for p in pools))])


def cmd_irregular(args):
    beta, phi, targets, sch, pools = _pools_from_args(args)
    rep = construct_irregular_point(beta, phi, targets, sch, pools,
                                    seed=args.seed)
    point = rep.pop("point")
    payload = {"schedule": {"block_lengths": list(sch.block_lengths),
                            "multiplicities": list(sch.multiplicities),
                            "times": list(sch.times)},
               "pool_sizes": [p.size for p in pools],
               "rows": rep["rows"], "oscillates": rep["oscillates"],
               "edits": rep["edits"], "prefix_length": len(point.digits)}
    return payload, [("averages-within-bounds",
                      all(r["within_bound"] for r in rep["rows"])),
                     ("oscillation-observed", rep["oscillates"])]


def _small_family(args):
    """The schedule, the separated pools and the glued family shared by
    `glued-family` and `edp`."""
    beta = _beta_from_args(args)
    n = [4 + 2 * k for k in range(args.levels)]
    N = [args.multiplicity] * args.levels
    d = [0.2 * 2.0 ** -k for k in range(args.levels)]
    sch = validate_schedule(n, N, d)
    pools = []
    for nk in n:
        kept = thin_separated(enumerate_words(Automaton(beta), nk),
                              args.pool_size)
        if len(kept) < args.pool_size:
            raise UsageError(f"cannot build pool of {args.pool_size} "
                             f"separated words at length {nk}")
        pools.append(tuple(kept))
    return sch, pools, enumerate_glued_family(beta, sch, pools,
                                              budget=args.budget)


def cmd_glued_family(args):
    _, _, fam = _small_family(args)
    return ({"count": fam["count"], "expected": fam["expected"],
             "pairwise_distinct": fam["pairwise_distinct"],
             "entropy_proxy": fam["entropy_proxy"],
             "pool_exponents": fam["pool_exponents"]},
            [("count-is-product", fam["count"] == fam["expected"]),
             ("pairwise-distinct", fam["pairwise_distinct"])])


def cmd_edp(args):
    sch, pools, fam = _small_family(args)
    t = sch.times
    samples = [(fam["family"][0], t[0])]
    if len(t) > 1:
        samples.append((fam["family"][-1], t[0] + sch.block_lengths[1]))
        samples.append((fam["family"][0], t[-1]))
    samples.append((fam["family"][0], 0))
    rep = edp_ball_check(fam["family"], sch, [len(p) for p in pools], samples)
    return ({"rows": rep["rows"], "family_size": rep["family_size"]},
            [("ball-bounds-hold", rep["all_pass"])])


def cmd_exotic(args):
    N_seq = _parse_list(args.N, int)
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
    return payload, [
        ("no-short-periodics", periodics["all_excluded"]),
        ("repair-abundance",
         all(r["working_positions"] >= r["lower_bound"] for r in repairs)),
        ("entropy-drops-within-epsilon",
         all(d["within"] for d in ent["drops"])),
    ]


# --- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Its errors and its subparsers' are usage errors, with exit code 2."""

    def error(self, message):
        raise UsageError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built on first use; parsing reads it
    and changes nothing on it."""
    p = _Parser(
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

    for name in ("separated", "spanning"):
        sp = add(name, cmd_separation,
                 help=f"max {name} subset under mistakes")
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
    _add_tree_args(sp)
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
    _add_tree_args(sp)
    sp.add_argument("--depths", help="depth grid, e.g. 12,24")

    sp = add("schedule", cmd_schedule, help="validate a gluing schedule")
    _add_schedule_args(sp)

    for name, fn, text in (
            ("pools", cmd_pools, "per-level word pools"),
            ("irregular", cmd_irregular,
             "construct an irregular point and certify oscillation")):
        sp = add(name, fn, help=text)
        _add_beta_args(sp)
        sp.add_argument("--phi", required=True)
        sp.add_argument("--alpha", required=True,
                        help="two targets, e.g. 0.5,0")
        _add_schedule_args(sp)
        sp.add_argument("--seed", type=int, default=0)

    for name, fn, text in (
            ("glued-family", cmd_glued_family, "enumerate the glued family"),
            ("edp", cmd_edp, "entropy distribution principle ball check")):
        sp = add(name, fn, help=text)
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
        precision_cap()  # a malformed cap is refused before any command runs
        payload, checks = args.func(args)
        _emit({"schema_version": SCHEMA_VERSION,
               "version": __version__,
               "subcommand": args.subcommand,
               "params": _echo_params(args),
               "seed": getattr(args, "seed", None),
               "payload": payload,
               "checks": [{"name": n, "pass": bool(ok)} for n, ok in checks],
               "wall_time_s": round(time.monotonic() - started, 6)}, args)
    except (UsageError, OverflowError) as exc:  # a value past float range
        print(json.dumps({"error": "usage", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(json.dumps({"error": "resource", "message": str(exc)}),
              file=sys.stderr)
        return 3
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())

import argparse
import contextlib
import importlib
import io
import json
import math
import pkgutil
import random
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import betalab
from betalab import errors
from betalab.beta_core import precision_cap
from betalab.cli import build_parser, main


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of main; a JSON report or error line
    holding NaN or Infinity fails the calling test."""
    code = main(list(argv))
    out = capsys.readouterr()
    for text in (out.out, out.err):
        if text.startswith("{"):
            strict_json(text)
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, strict_json(out)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_commands():
    """argv of each betalab line in the README's sh block under "## CLI",
    with backslash continuations joined; the --help line is left out."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in commands
            if argv[:1] == ["betalab"] and "--help" not in argv]


README_COMMANDS = _readme_cli_commands()


def test_readme_cli_block_is_read():
    assert [argv[0] for argv in README_COMMANDS] == [
        "count", "admissible", "expansion-of-one", "katok", "bowen", "boxdim",
        "irregular", "exotic"]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_cli_example_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["subcommand"] == argv[0]


def test_readme_python_example():
    """The README's quick example runs, and the result in the comment of
    each expression line is the value of that expression."""
    block = README.read_text().split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace, results = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            results.append((repr(eval(code, namespace)), comment.split()[0]))
        except SyntaxError:  # an import or an assignment
            exec(code, namespace)
    assert results == [("144", "144"), ("False", "False")]


@pytest.mark.parametrize("text, prefix, period", [
    ("10(10)", (1, 0), (1, 0)),
    ("(201001)", (), (2, 0, 1, 0, 0, 1)),
    ("11", (1, 1), ()),
    ("1001", (1, 0, 0, 1), ()),
    ("2(01)", (2,), (0, 1)),
])
def test_beta_from_digits_enclosure_is_dyadic(capsys, text, prefix, period):
    """The printed enclosure comes from the dyadic bisection: its ends are
    dyadic, at most 2^-60 apart, and the digit string's polynomial
    x^p (x^q - 1) - (x^q - 1) sum a_j x^(p-j) - sum c_i x^(q-i) (or
    x^p - sum a_j x^(p-j) without a period) changes sign between them."""
    def poly(x):
        head = x ** len(prefix) - sum(
            d * x ** (len(prefix) - j) for j, d in enumerate(prefix, 1))
        if not period:
            return head
        q = len(period)
        return (x ** q - 1) * head - sum(
            d * x ** (q - i) for i, d in enumerate(period, 1))

    code, rep = run_json(capsys, "beta-from-digits", "--digits", text)
    assert code == 0
    lo, hi = (Fraction(t) for t in rep["payload"]["enclosure"])
    for end in (lo, hi):
        assert end.denominator & (end.denominator - 1) == 0
    assert 0 < hi - lo <= Fraction(1, 2 ** 60)
    assert poly(lo) * poly(hi) < 0


def test_count_full_shift(capsys):
    code, rep = run_json(capsys, "count", "--beta", "2", "--n", "5")
    assert code == 0
    assert rep["payload"]["count"] == 32
    assert rep["subcommand"] == "count"
    assert rep["schema_version"] == 1


def test_admissible_golden_digits(capsys):
    code, rep = run_json(capsys, "admissible", "--beta-digits", "10(10)",
                         "--word", "11")
    assert code == 0
    assert rep["payload"]["admissible"] is False


def test_expand_round_trip(capsys):
    code, rep = run_json(capsys, "expand", "--beta-poly", "1,-1,-1",
                         "--x", "3/10", "--n", "16")
    assert code == 0
    assert rep["checks"][0]["pass"]


def test_expansion_of_one_periodic_form(capsys):
    code, rep = run_json(capsys, "expansion-of-one", "--beta-digits",
                         "(201001)", "--n", "12")
    assert code == 0
    assert rep["payload"]["digits"] == "201001201001"
    # the finite string 201001 instead encodes the simple base beta(6),
    # whose quasi-greedy expansion is (201000)^inf
    code, rep = run_json(capsys, "expansion-of-one", "--beta-digits",
                         "201001", "--n", "12")
    assert code == 0
    assert rep["payload"]["periodic_form"] == "(201000)"
    # commas and spaces between digits are skipped; 20(10) is read in its
    # minimal form 2(01)
    code, rep = run_json(capsys, "expansion-of-one", "--beta-digits",
                         "2,0(1 0)", "--n", "6")
    assert code == 0
    assert rep["payload"]["periodic_form"] == "2(01)"


def test_expansion_of_one_without_periodic_form(capsys):
    code, rep = run_json(capsys, "expansion-of-one", "--beta", "3/2",
                         "--n", "8")
    assert code == 0
    assert rep["payload"]["digits"] == "10100000"
    assert "periodic_form" not in rep["payload"]


@pytest.mark.parametrize("argv", [
    ["admissible", "--beta", "2", "--word", "1x"],
    ["katok", "--beta", "2", "--n-list", "10,a"],
    ["pools", "--beta-poly", "1,-1,-1", "--phi", "freq:1",
     "--alpha", "0.5,x"],
    ["expand", "--beta", "2", "--x", "abc"],
    ["expand", "--beta", "2", "--x", "1/0"],
    ["katok", "--beta", "2", "--g", "const:x", "--n-list", "4"],
    ["witnesses", "--beta", "2", "--phi", "freq:x"],
    ["witnesses", "--beta", "2", "--phi", "block:1a"],
    ["witnesses", "--beta", "2", "--phi", "const:abc"],
    ["separated", "--words-file", "{tmp}/missing.txt"],
    ["bowen", "--tree", "{tmp}/missing.json"],
    ["count", "--beta", "2", "--n", "5", "--out", "{tmp}/missing/out.json"],
    ["bowen", "--tree", "{tmp}/not_json.json"],
    ["bowen", "--tree", "{tmp}/no_bound.json"],
    ["katok", "--beta", "2", "--n-list", "0"],
    ["exotic", "--levels", "0"],
    ["exotic", "--levels", "-1"],
    ["beta-from-digits", "--digits", "[1"],
    ["admissible", "--beta", "2", "--word", "1[x]"],
    ["schedule", "--levels", "0"],
    ["schedule", "--levels", "-1"],
    ["pools", "--beta", "2", "--phi", "freq:1", "--alpha", "0.5,0",
     "--levels", "0"],
    ["irregular", "--beta", "2", "--phi", "freq:1", "--alpha", "0.5,0",
     "--levels", "-1"],
    ["exotic", "--nmax", "0"],
    ["graph", "--beta", "2", "--n", "0"],
    ["bowen", "--tree", "{tmp}/negative_bound.json"],
    ["bowen", "--tree", "{tmp}/digit_off_alphabet.json"],
    # a pool size or Markov order below 1 once gave a report built from
    # one-word pools or from beta itself
    ["glued-family", "--beta", "2", "--pool-size", "0"],
    ["edp", "--beta", "2", "--pool-size", "0"],
    ["edp", "--beta", "2", "--pool-size", "-1"],
    ["bowen", "--beta", "2", "--markov-n", "0"],
    ["boxdim", "--beta", "2", "--markov-n", "0"],
    # each of these once gave an exit-0 report with no digits or no rows
    ["beta-from-digits", "--digits", "10(10)", "--n", "-2"],
    ["beta-from-digits", "--digits", "10(10)", "--n", "0"],
    ["count", "--beta", "2", "--n", "0", "--profile"],
    ["katok", "--beta", "2", "--nmax", "3"],
    # Bowen's N ranges over lengths >= 1; these once echoed the N = 1 result
    ["bowen", "--beta", "2", "--depth", "6", "--nmin", "0"],
    ["bowen", "--beta", "2", "--depth", "6", "--nmin", "-1"],
    # non-finite targets, tolerances and table values: the first exited 0
    # with an unbounded window, the second through an empty pool
    ["pools", "--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
     "0.5,0", "--n-list", "8,10", "--N-list", "2,4", "--delta-list",
     "inf,0.1"],
    ["pools", "--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
     "nan,0"],
    ["pools", "--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
     "1e400,0"],
    ["schedule", "--n-list", "8,10", "--N-list", "2,4", "--delta-list",
     "0.1,nan"],
    ["pools", "--beta-poly", "1,-1,-1", "--phi", "const:nan", "--alpha",
     "0.5,0"],
    # finite, but its exact oscillation bound is past float range
    ["irregular", "--beta", "2", "--phi", "const:1.7e308", "--alpha",
     "1.7e308,1.7e308", "--n-list", "8,10", "--N-list", "10,1",
     "--delta-list", "0.1,0.05"],
    # argparse reads "-inf,0" as an option: its own error, now a usage error
    ["pools", "--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
     "-inf,0", "--levels", "2"],
    # thinning keeps 0000 and no other length-4 golden word (at most two 1s)
    ["glued-family", "--beta-poly", "1,-1,-1"],
    # an observable table over 10^400 digits grew without bound
    ["witnesses", "--beta", "1e400", "--phi", "freq:1"],
    ["pools", "--beta", "1e400", "--phi", "freq:1", "--alpha", "0.5,0"],
    # the empty word once failed on "n_max", a parameter nobody set
    ["diam", "--beta", "2", "--word="],
    # a non-finite entropy or z ratio once gave NaN or Infinity in the report
    ["dims", "--beta", "2", "--entropy", "nan"],
    ["dims", "--beta", "2", "--entropy", "inf"],
    ["dims", "--beta", "2", "--entropy", "0.5", "--zratio", "nan"],
    ["dims", "--beta", "2", "--entropy", "0.5", "--zratio", "inf"],
    # a depth or period below 1 once failed on N or on the periodic averages
    ["bowen", "--beta", "2", "--depth", "0"],
    ["bowen", "--beta", "2", "--depth", "-3"],
    ["boxdim", "--beta", "2", "--depth", "0"],
    ["boxdim", "--beta", "2", "--depths", "0"],
    ["boxdim", "--beta-poly", "1,-1,-1", "--markov-n", "3", "--depth", "0"],
    ["witnesses", "--beta", "2", "--phi", "freq:1", "--max-period", "0"],
    ["witnesses", "--beta", "2", "--phi", "freq:1", "--max-period", "-1"],
    # a period below the observable's range once searched nothing
    ["witnesses", "--beta", "2", "--phi", "block:101", "--max-period", "2"],
    # no digit is left once the trailing zeros and a zero period are dropped
    ["beta-from-digits", "--digits", "()"],
    ["beta-from-digits", "--digits", "0"],
    ["beta-from-digits", "--digits", "000(0)"],
    # one level has no consecutive averages to separate
    ["irregular", "--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
     "0.5,0", "--levels", "1"],
])
def test_malformed_number_exits_2(capsys, tmp_path, argv):
    (tmp_path / "not_json.json").write_text("not json")
    (tmp_path / "no_bound.json").write_text('{"trie": {}}')
    (tmp_path / "negative_bound.json").write_text(
        '{"alphabet_bound": -1, "trie": {}}')
    (tmp_path / "digit_off_alphabet.json").write_text(
        '{"alphabet_bound": 1, "trie": {"7": {"-3": {}}}}')
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    error = strict_json(err)
    assert error["error"] == "usage"
    message = error["message"]
    if argv[0] == "diam":
        assert "--word" in message
    if argv[0] == "dims":
        assert "finite" in message
    for flag, name in (("--depth", "depth"), ("--depths", "depth"),
                       ("--max-period", "max_period")):
        if flag in argv and int(argv[argv.index(flag) + 1]) < 1:
            assert name in message and not message.startswith("N=")
    if "block:101" in argv:
        assert message == "max_period must be >= 3, the observable's range"
    if argv[0] == "beta-from-digits" and set(argv[2]) <= set("0()"):
        assert message == "empty digit sequence"
    if argv[0] == "irregular" and argv[-2:] == ["--levels", "1"]:
        assert message == "oscillation needs at least two levels"


# cheap base argv per subcommand (a key may carry a switch), and its integer
# flags; a flag given again overrides the base value
FUZZ_TABLE = {
    "expand": (["--beta", "2", "--x", "3/10"], ["--n"]),
    "expansion-of-one": (["--beta-poly", "1,-1,-1"], ["--n"]),
    "beta-from-digits": (["--digits", "10(10)"], ["--n"]),
    "graph": (["--beta", "3/2"], ["--n"]),
    "count": (["--beta", "2", "--n", "5"], ["--n"]),
    "count --profile": (["--beta", "2", "--n", "5"], ["--n"]),
    "zvalues": (["--beta", "2"], ["--n"]),
    "markov": (["--beta-poly", "1,-1,-1", "--n", "3"], ["--n"]),
    "witnesses": (["--beta-poly", "1,-1,-1", "--phi", "freq:1"],
                  ["--max-period"]),
    "katok": (["--beta", "2", "--nmax", "6"], ["--window", "--nmax"]),
    "bowen": (["--beta-poly", "1,-1,-1", "--depth", "6"],
              ["--depth", "--markov-n", "--nmin"]),
    "boxdim": (["--beta-poly", "1,-1,-1", "--depth", "6"],
               ["--depth", "--markov-n"]),
    "schedule": ([], ["--levels"]),
    "pools": (["--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
               "0.5,0", "--levels", "2"], ["--levels", "--seed"]),
    "irregular": (["--beta-poly", "1,-1,-1", "--phi", "freq:1", "--alpha",
                   "0.5,0", "--levels", "2"], ["--levels", "--seed"]),
    "glued-family": (["--beta", "2"], ["--levels", "--pool-size",
                                       "--multiplicity", "--budget"]),
    "edp": (["--beta", "2"], ["--levels", "--pool-size", "--multiplicity",
                              "--budget"]),
    "exotic": ([], ["--levels", "--nmax"]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_flag_fuzz_never_raises(data):
    """Any small integer in any integer flag gives a report or a typed
    error: exit 0, 1, 2 or 3, never a traceback.  A report that has rows
    has at least one."""
    name = data.draw(st.sampled_from(sorted(FUZZ_TABLE)))
    base, flags = FUZZ_TABLE[name]
    flag = data.draw(st.sampled_from(flags))
    value = data.draw(st.integers(min_value=-2, max_value=3))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*name.split(), *base, flag, str(value)])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert json.loads(out.getvalue())["payload"].get("rows", [None])


# one cheap argv for each subcommand that FUZZ_TABLE leaves out
ONCE_TABLE = {
    "admissible": ["--beta", "400", "--word", "5"],  # alphabet past a byte
    "repair": ["--beta-poly", "1,-1,-1", "--word", "101"],
    "diam": ["--beta", "400", "--word", "5"],
    "dims": ["--beta", "2", "--entropy", "0.5"],
    "separated": ["--words-file", "{tmp}/words.txt", "--g", "const:1"],
    "spanning": ["--words-file", "{tmp}/words.txt", "--g", "const:1"],
}


def test_every_subcommand_runs_once(capsys, tmp_path):
    """Every subcommand of the parser exits 0 on FUZZ_TABLE's base argv
    or on its ONCE_TABLE argv; a subcommand with neither fails here."""
    (tmp_path / "words.txt").write_text("0101\n1010\n0000\n0100\n")
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name in sub.choices:
        runs = [[*key.split(), *base] for key, (base, _) in FUZZ_TABLE.items()
                if key.split()[0] == name]
        if name in ONCE_TABLE:
            runs.append([name, *(a.format(tmp=tmp_path)
                                 for a in ONCE_TABLE[name])])
        assert runs, f"no argv runs {name}"
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            assert json.loads(out)["subcommand"] == name


@pytest.mark.parametrize("argv", [["--beta-poly", "1,-1,-1", "--n", "3"],
                                  ["--beta", "3/2", "--n", "5"]])
def test_markov_truncates_to_the_simple_base(capsys, argv):
    """w(golden) = 1010... and w(3/2) = 10100... both truncate to 101, so
    beta_n is the root of x^3 - x^2 - 1 in (1, 2), here by bisection."""
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid ** 3 - mid ** 2 - 1 < 0 else (lo, mid)
    code, rep = run_json(capsys, "markov", *argv)
    assert code == 0 and rep["checks"] == [
        {"name": "beta-n-below-beta", "pass": True}]
    payload = rep["payload"]
    assert abs(lo - 1.4655712318767682) < 1e-12
    assert abs(payload["beta_n"] - lo) < 1e-12
    assert abs(payload["entropy"] - math.log(lo)) < 1e-12
    assert payload["gap"] == payload["beta"] - payload["beta_n"] > 0


@pytest.mark.parametrize("argv, gap", [
    (["--beta-digits", "(201001)"], 3),
    (["--beta-digits", "(10000000)", "--n", "4"], 7),
    (["--beta", "3/2"], None),
])
def test_zvalues_specification_gap(capsys, argv, gap):
    """The gap is the most zeros a vertex of the graph needs to reach
    vertex 1 once w(beta) is known to be periodic, whatever the window,
    and null (undecided) otherwise."""
    code, rep = run_json(capsys, "zvalues", *argv)
    assert code == 0
    assert rep["payload"]["specification_gap"] == gap
    assert "specification_flag" not in rep["payload"]


def test_a_non_minimal_expansion_reads_in_its_minimal_form(capsys):
    """(1010), (10) and 1(01) are one w(beta): `expansion-of-one` prints
    its minimal form (10), and `zvalues` reports one gap, 1."""
    for digits in ("(1010)", "(10)", "1(01)"):
        code, rep = run_json(capsys, "expansion-of-one", "--beta-digits",
                             digits, "--n", "6")
        assert code == 0 and rep["payload"]["periodic_form"] == "(10)"
        code, rep = run_json(capsys, "zvalues", "--beta-digits", digits)
        assert code == 0 and rep["payload"]["specification_gap"] == 1


NUMBER_TEXT = st.one_of(
    st.decimals(min_value=-2, max_value=2, places=3).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
                     "x", "", "1/3", "0x1p-3", "1_0", "--1", "0.5e"]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_string_flag_fuzz_never_raises(data):
    """Any text in --alpha, --delta-list or --phi const:c gives a report or
    a typed error: exit 0, 1, 2 or 3, and any error output is the one JSON
    error line, never a traceback.  Values are attached with "=", as a
    value that starts with "-" must be."""
    name = data.draw(st.sampled_from(["pools", "irregular"]))
    text = lambda: data.draw(NUMBER_TEXT)
    phi = data.draw(st.sampled_from(["freq:1", "const:"]))
    argv = [name, "--beta-poly", "1,-1,-1", "--levels", "2",
            f"--phi={phi}{text() if phi == 'const:' else ''}",
            f"--alpha={text()},{text()}"]
    if data.draw(st.booleans()):
        argv += ["--n-list", "8,10", "--N-list", "2,4",
                 f"--delta-list={text()},{text()}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        line, = err.getvalue().splitlines()
        assert json.loads(line)["error"] in ("usage", "resource")
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["payload"]["rows"]


SHORT_DIGITS = st.text("0123456789", min_size=1, max_size=6)
FLAG_TEXT = st.one_of(
    NUMBER_TEXT, SHORT_DIGITS,
    st.builds("{}/{}".format, st.integers(-9, 99), st.integers(0, 99)))


def _flag_value(data, flag):
    """Text for one string flag: the shared pool, or a well-formed value of
    the flag's own shape (a polynomial of degree <= 4 with coefficients in
    [-3, 3], a digit string with a period, a mistake function spec)."""
    if data.draw(st.booleans()):
        return data.draw(FLAG_TEXT)
    if flag == "--beta-poly":
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=1,
                                    max_size=5))
        return ",".join(map(str, coeffs))
    if flag == "--beta-digits":
        digits = data.draw(SHORT_DIGITS)
        cut = data.draw(st.integers(0, len(digits) - 1))
        return f"{digits[:cut]}({digits[cut:]})"
    if flag == "--g":
        return data.draw(st.sampled_from(["zero", "log"])
                         | SHORT_DIGITS.map("const:{}".format))
    return data.draw(FLAG_TEXT)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_base_word_and_point_flag_fuzz_never_raises(data):
    """Any text in --x, --g, --word, --beta, --beta-poly or --beta-digits
    gives a report or a typed error: exit 0, 1, 2 or 3, and any error
    output is the one JSON error line.  A value is attached with "=" or
    passed as the next argument, where one starting with "-" is argparse's
    error."""
    flag = data.draw(st.sampled_from(["--x", "--g", "--word", "--beta",
                                      "--beta-poly", "--beta-digits"]))
    value = _flag_value(data, flag)
    n = str(data.draw(st.integers(0, 16)))
    base = {"--x": ["expand", "--beta", "2", "--n", n],
            "--g": ["katok", "--beta", "2", "--n-list", "4"],
            "--word": [data.draw(st.sampled_from(["admissible", "repair"])),
                       "--beta", "2"]}.get(flag, ["count", "--n", n])
    pair = [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(base + pair)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        line, = err.getvalue().splitlines()
        assert json.loads(line)["error"] in ("usage", "resource")
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["payload"]


@pytest.mark.parametrize("argv", [
    ["bowen", "--tree", "{path}"],
    ["boxdim", "--tree", "{path}", "--beta", "2"],
])
def test_deeply_nested_tree_exits_2(capsys, tmp_path, argv):
    """A trie nested past the recursion limit is a usage error, not a
    RecursionError traceback."""
    trie = "{}"
    for _ in range(1500):
        trie = '{"0": %s}' % trie
    path = tmp_path / "deep.json"
    path.write_text('{"alphabet_bound": 1, "trie": %s}' % trie)
    code, _, err = run_cli(capsys, *[a.format(path=path) for a in argv])
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_graph_reaches_long_zero_runs_near_one(capsys):
    """w(1.001) = 1 0^6911 1 ...: its second digit 1 sits at the first m
    with (beta - 1) beta^(m-1) >= 1.  Just below 1.0005 the run outgrows
    the digit budget of z_values, a resource error (exit 3)."""
    m = 1 + math.ceil(math.log(1000) / math.log(1.001))
    code, rep = run_json(capsys, "graph", "--beta", "1.001", "--n", "5")
    assert code == 0
    assert rep["payload"]["z_distance"] == [0] + [m - n for n in range(2, 6)]
    code, _, err = run_cli(capsys, "graph", "--beta", "1.0004", "--n", "5")
    assert code == 3
    assert json.loads(err)["error"] == "resource"


@pytest.mark.parametrize("argv", [
    # 10^6 + 1 digits: one label past the bound
    ["bowen", "--beta", "1000000.5", "--depth", "3"],
    ["katok", "--beta", "1e400", "--n-list", "4"],
    ["bowen", "--beta", "1e400", "--depth", "3"],
    ["witnesses", "--beta", "255", "--phi", "block:1010"],
])
def test_alphabet_past_the_edge_scan_exits_3(capsys, argv):
    """Enumeration and the cylinder DAG scan each state's edge labels one by
    one; past 10^6 labels, or past 10^6 words to enumerate, that is a
    resource error, where it once never ended.  A block table past 2^16
    entries is one too: 256^4 ran out of memory."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "resource"


def test_long_enumeration_is_refused_before_counting(capsys):
    """Renyi's bound beta^n <= #L_n refuses 1.7^4000 words before the
    counts, whose O(n^2) edge reads on a base without a periodic w(beta)
    once took about 10 s to reach the same refusal."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "katok", "--beta", "1.7",
                             "--n-list", "4000")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "resource",
                               "message": "more than 1000000 words"}


def test_count_of_a_large_alphabet_is_exact(capsys):
    """Counting follows Parry's renewal and scans no labels: the integer
    base 10^400 has w = (10^400 - 1)^inf and 10^1200 words of length 3,
    and 999999.5 (once 6 s) lies within Renyi's bounds
    beta^n <= #L_n <= beta^(n+1)/(beta - 1), in exact rationals."""
    code, rep = run_json(capsys, "count", "--beta", "1e400", "--n", "3")
    assert code == 0 and rep["payload"]["count"] == 10 ** 1200
    code, rep = run_json(capsys, "count", "--beta", "999999.5", "--n", "16")
    beta, count = Fraction(1999999, 2), rep["payload"]["count"]
    assert code == 0
    assert beta ** 16 <= count <= beta ** 17 / (beta - 1)


def test_count_past_the_decimal_digit_limit_exits_3(capsys):
    """10^4400 has more decimal digits than Python writes by default
    (4,300): a resource error before any output, where the report once
    stopped halfway with a ValueError traceback; 2^14284 has 4,300."""
    code, out, err = run_cli(capsys, "count", "--beta", "1e400", "--n", "11")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "resource",
        "message": "count has more than 4300 decimal digits"}
    code, out, _ = run_cli(capsys, "count", "--beta", "2", "--n", "14284")
    assert code == 0 and len(out) > 4300


def test_malformed_beta_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "--beta", "x", "--n", "5")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


EXPAND_GOLDEN = ("expand", "--beta-poly", "1,-1,-1", "--x", "3/10", "--n", "8")


@pytest.mark.parametrize("bits, argv", [
    *((bits, EXPAND_GOLDEN) for bits in ("abc", "", "-5", "1.5", "0")),
    ("abc", ("count", "--beta", "2", "--n", "5")),
    ("abc", ("exotic", "--levels", "2", "--N", "4,6", "--nmax", "14"))],
    ids=["abc", "", "-5", "1.5", "0", "count", "exotic"])
def test_malformed_precision_cap_exits_2(capsys, monkeypatch, bits, argv):
    """A cap that is not a whole number >= 1 is a usage error naming the
    variable, not a traceback and not a floor undecided at 0 bits; every
    command refuses it, including those that never take a floor."""
    monkeypatch.setenv("BETALAB_PRECISION_BITS", bits)
    precision_cap.cache_clear()  # the cap is read once per process
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        precision_cap.cache_clear()
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "BETALAB_PRECISION_BITS" in error["message"], error


def test_missing_beta_exits_2(capsys):
    code, _, _ = run_cli(capsys, "count", "--n", "5")
    assert code == 2


def test_witnesses_without_gap_exits_2(capsys):
    code, out, err = run_cli(capsys, "witnesses", "--beta", "2",
                             "--phi", "const:0.5")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_witnesses_has_no_degenerate_flag(capsys):
    code, rep = run_json(capsys, "witnesses", "--beta-poly", "1,-1,-1",
                         "--phi", "freq:1")
    assert code == 0 and rep["checks"] == [{"name": "gap-positive",
                                            "pass": True}]
    code, out, err = run_cli(capsys, "witnesses", "--beta", "2", "--phi",
                             "freq:1", "--allow-degenerate")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_every_error_has_an_exit_code():
    """main maps UsageError to exit 2 and ResourceError to exit 3; every
    other BetalabError would escape it as a traceback.  The errors module
    holds those two, their base and the two resource limits that reports
    tell apart, and no other betalab module defines an exception."""
    classes = {name: c for name, c in vars(errors).items()
               if isinstance(c, type)}
    assert sorted(classes) == ["BetalabError", "BudgetExceeded",
                               "ResourceError", "UndecidableAtPrecision",
                               "UsageError"]
    assert issubclass(errors.UsageError, errors.BetalabError)
    assert issubclass(errors.ResourceError, errors.BetalabError)
    assert issubclass(errors.BudgetExceeded, errors.ResourceError)
    assert issubclass(errors.UndecidableAtPrecision, errors.ResourceError)
    for info in pkgutil.iter_modules(betalab.__path__):
        module = importlib.import_module(f"betalab.{info.name}")
        if module is not errors:
            assert not [c for c in vars(module).values()
                        if isinstance(c, type) and issubclass(c, BaseException)
                        and c.__module__ == module.__name__]


def test_csv_emit(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "2", "--n", "6",
                           "--profile", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["n", "count", "rate"]
    assert lines[1].startswith("1,2,")
    # a payload without rows is written as sorted key/value pairs
    code, out, _ = run_cli(capsys, "count", "--beta", "2", "--n", "5",
                           "--emit", "csv")
    assert code == 0
    assert out.splitlines() == ["key,value", "count,32", "n,5"]


def test_determinism(capsys):
    argv = ["irregular", "--beta-poly", "1,-1,-1", "--phi", "freq:1",
            "--alpha", "0.5,0", "--levels", "2", "--seed", "5"]
    code1, rep1 = run_json(capsys, *argv)
    code2, rep2 = run_json(capsys, *argv)
    assert code1 == code2 == 0
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert rep1 == rep2


def test_separated_spanning(tmp_path, capsys):
    words = tmp_path / "Z.txt"
    words.write_text("".join(f"{a}{b}{c}\n" for a in "01" for b in "01"
                             for c in "01"))
    code, rep = run_json(capsys, "separated", "--words-file", str(words),
                         "--g", "const:1")
    assert code == 0
    assert rep["payload"]["size"] == 4
    code, rep = run_json(capsys, "spanning", "--words-file", str(words),
                         "--g", "const:1")
    assert rep["payload"]["size"] == 2


@pytest.mark.parametrize("argv", [
    ["katok", "--beta", "2", "--gamma", "0.1", "--g", "log", "--n-list", "6"],
    ["separated", "--words-file", "{words}", "--g", "const:2"],
    ["spanning", "--words-file", "{words}", "--g", "const:2"],
    ["separated", "--words-file", "{many}", "--g", "log"],
    ["spanning", "--words-file", "{many}", "--g", "log"],
])
def test_huge_window_reports_as_window_n(tmp_path, capsys, argv):
    """A look-ahead stops at the word's end, so --window 10^9 answers at
    once with the counts and witnesses of --window n (n = 6), on the exact
    search and on the greedy one."""
    (tmp_path / "w.txt").write_text(
        "010110\n110100\n001011\n111111\n010110\n000100\n")
    (tmp_path / "m.txt").write_text("".join(
        f"{i * 37 % 64:06b}\n" for i in range(40)))
    argv = [a.format(words=tmp_path / "w.txt", many=tmp_path / "m.txt")
            for a in argv]
    at_n, huge = (run_json(capsys, *argv, "--window", m)
                  for m in ("6", "1000000000"))
    assert at_n[0] == huge[0] == 0
    assert huge[1]["payload"] == at_n[1]["payload"]
    if argv[0] == "katok":
        assert huge[1]["payload"]["rows"][0]["count_g"] == 8


@pytest.mark.parametrize("sub", ["separated", "spanning"])
def test_few_long_words_answer_at_once(tmp_path, capsys, sub):
    """20 words of length 10^4 at g = const:5000 take the packed pairwise
    kernel and answer at once, --window 10^9 as --window 10^4."""
    rng = random.Random(61)
    (tmp_path / "w.txt").write_text("".join(
        f"{rng.getrandbits(10_000):010000b}\n" for _ in range(20)))
    start = time.perf_counter()
    reports = [run_json(capsys, sub, "--words-file", str(tmp_path / "w.txt"),
                        "--g", "const:5000", "--window", m)
               for m in ("10000", "1000000000")]
    assert time.perf_counter() - start < 10
    assert reports[0][0] == reports[1][0] == 0
    assert reports[0][1]["payload"] == reports[1][1]["payload"]
    assert reports[0][1]["payload"]["exact"]


def test_exact_separated_on_many_words(tmp_path, capsys):
    """The exact search keeps no recursion depth per word: 1,200 copies of
    one word leave one separated word."""
    words = tmp_path / "W.txt"
    words.write_text("0101\n" * 1200)
    code, rep = run_json(capsys, "separated", "--words-file", str(words),
                         "--g", "const:1", "--exact")
    assert code == 0
    assert rep["payload"]["size"] == 1 and rep["payload"]["exact"]


def test_exact_search_stays_exact_below_the_node_budget(tmp_path, capsys):
    """All 32 binary words of length 5 at g = 1: a separated set is a code
    of minimum distance 2, at most A(5, 2) = 16 words (the even-weight
    code).  32 words exceed the default word budget, so only --exact
    searches, well within the node budget."""
    words = tmp_path / "all5.txt"
    words.write_text("".join(f"{i:05b}\n" for i in range(32)))
    argv = ["separated", "--words-file", str(words), "--g", "const:1"]
    code, rep = run_json(capsys, *argv)
    assert code == 0 and not rep["payload"]["exact"]
    assert rep["payload"]["bound_direction"] == "lower"
    code, rep = run_json(capsys, *argv, "--exact")
    assert code == 0 and rep["payload"]["exact"]
    assert rep["payload"]["size"] == 16
    assert rep["payload"]["bound_direction"] == "exact"


@pytest.mark.parametrize("which", ["separated", "spanning"])
def test_exact_search_past_the_node_budget_exits_3(tmp_path, capsys,
                                                   monkeypatch, which):
    """--exact lifts the word budget, not the node budget: a search that
    needs more nodes than EXACT_NODE_BUDGET is a resource error."""
    monkeypatch.setattr("betalab.entropy.EXACT_NODE_BUDGET", 50)
    words = tmp_path / "all6.txt"
    words.write_text("".join(f"{i:06b}\n" for i in range(64)))
    code, _, err = run_cli(capsys, which, "--words-file", str(words),
                           "--g", "const:1", "--exact")
    assert code == 3
    assert json.loads(err)["error"] == "resource"


@pytest.mark.parametrize("argv", [
    ["expand", "--beta", "300", "--x", "1/3", "--n", "4"],
    ["expansion-of-one", "--beta", "300", "--n", "4"],
    ["katok", "--beta", "300", "--n-list", "4"],
    ["admissible", "--beta", "400", "--word", "[300]"],
    ["admissible", "--beta", "2", "--word", "300,1"],
    ["separated", "--words-file", "{tmp}/wide.txt"],
    ["spanning", "--words-file", "{tmp}/wide.txt"],
])
def test_words_wider_than_a_byte_exit_2(capsys, tmp_path, argv):
    """A word is bytes, so a digit or alphabet past 255 is a usage error,
    never a ValueError or a wrapped digit."""
    (tmp_path / "wide.txt").write_text("[300]\n[1]\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "usage"
    assert "byte" in error["message"] or "255" in error["message"]


def test_bracketed_word_digits(tmp_path, capsys):
    """Words are read in the notation reports write: "[10]" is one digit."""
    code, rep = run_json(capsys, "admissible", "--beta", "11",
                         "--word", "[10]3")
    assert code == 0 and rep["payload"]["word"] == "[10]3"
    assert rep["payload"]["admissible"] is True


@pytest.mark.parametrize("which", ["separated", "spanning"])
def test_separation_window_zero_exits_2(tmp_path, capsys, which):
    words = tmp_path / "Z.txt"
    words.write_text("01\n10\n")
    code, _, err = run_cli(capsys, which, "--words-file", str(words),
                           "--g", "const:1", "--window", "0")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_bowen_and_boxdim(capsys, tmp_path):
    code, rep = run_json(capsys, "bowen", "--beta", "2", "--depth", "12")
    assert code == 0
    assert abs(rep["payload"]["estimate"] - math.log(2)) < 0.01
    code, rep = run_json(capsys, "boxdim", "--beta-poly", "1,-1,-1",
                         "--markov-n", "3", "--depth", "24",
                         "--depths", "24")
    assert code == 0
    assert rep["checks"][0]["pass"]
    # a tree file carries no base: boxdim reads its beta from the flags
    trie = "{}"
    for _ in range(10):
        trie = '{"0": %s, "1": %s}' % (trie, trie)
    path = tmp_path / "full.json"
    path.write_text('{"alphabet_bound": 1, "trie": %s}' % trie)
    code, rep = run_json(capsys, "boxdim", "--tree", str(path), "--beta", "2")
    assert code == 0 and rep["checks"][0]["pass"]
    assert abs(rep["payload"]["estimate"] - 1) < 0.01


def test_diam_at_a_prefix_of_w_beta(capsys):
    """1010 is a prefix of w(golden) = (10)^inf, and z_4 = 1, so both
    bounds are phi^-5."""
    code, rep = run_json(capsys, "diam", "--beta-poly", "1,-1,-1",
                         "--word", "1010")
    assert code == 0 and rep["checks"][0]["pass"]
    phi = (1 + math.sqrt(5)) / 2
    assert rep["payload"]["lower"] == rep["payload"]["upper"]
    assert abs(rep["payload"]["lower"] - phi ** -5) < 1e-12


def test_dims_sandwich(capsys):
    code, rep = run_json(capsys, "dims", "--beta-poly", "1,-1,-1",
                         "--entropy", "0.3", "--zratio", "0.5")
    assert code == 0 and rep["checks"][0]["pass"]
    assert rep["payload"]["flag"] == "sandwich"
    assert rep["payload"]["lower"] == pytest.approx(
        rep["payload"]["upper"] / 1.5)


def test_irregular_on_a_base_whose_w_beta_has_no_zero(capsys):
    """w(1 + sqrt 3) = (21)^inf: the blocks are repaired, not concatenated
    (12 and 212 are admissible, 12212 is not)."""
    code, rep = run_json(capsys, "irregular", "--beta-poly", "1,-2,-2",
                         "--phi", "freq:2", "--alpha", "0.5,0.2",
                         "--seed", "1")
    assert code == 0
    assert [c["name"] for c in rep["checks"] if c["pass"]] == [
        "averages-within-bounds", "oscillation-observed"]
    assert rep["payload"]["edits"] > 0


def test_schedule_and_pools(capsys):
    code, rep = run_json(capsys, "schedule", "--levels", "4")
    assert code == 0
    assert rep["checks"][0]["pass"]
    code, rep = run_json(capsys, "pools", "--beta-poly", "1,-1,-1",
                         "--phi", "freq:1", "--alpha", "0.5,0",
                         "--levels", "2")
    assert code == 0
    assert all(r["size"] > 0 for r in rep["payload"]["rows"])


@pytest.mark.parametrize("argv", [
    ["schedule", "--n-list", "4,8"],
    ["schedule", "--N-list", "2,4"],
    ["schedule", "--delta-list", "0.1,0.05"],
    ["schedule", "--n-list", "8,10", "--N-list", "2,4"],
    ["schedule", "--n-list", "8,10", "--delta-list", "0.1,0.05"],
    ["schedule", "--N-list", "2,4", "--delta-list", "0.1,0.05"],
    ["pools", "--beta", "2", "--phi", "freq:1", "--alpha", "0.5,0",
     "--n-list", "8,10", "--N-list", "2,4"],
    ["irregular", "--beta", "2", "--phi", "freq:1", "--alpha", "0.5,0",
     "--delta-list", "0.1,0.05"],
])
def test_a_partial_schedule_is_refused(capsys, argv):
    """One or two of the three schedule lists once fell back to the
    compact schedule: `schedule --n-list 4,8` reported block lengths
    [8, 12, 16] and exited 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    message = json.loads(err)["message"]
    assert all(flag in message
               for flag in ("--n-list", "--N-list", "--delta-list"))


def test_compact_schedule_multiplicities_are_integer_ceilings(capsys):
    """N_1 = 5 and N_k = max(1, ceil(t (k + 1) / 3)), t the time after
    level k - 1, in exact integers: a float ceiling printed the last
    multiplicity at 11 levels as 192,397,254,485,545,504, 12 below it."""
    for levels in range(1, 15):
        code, rep = run_json(capsys, "schedule", "--levels", str(levels))
        assert code == 0
        n = [4 * (k + 1) for k in range(1, levels + 1)]
        N, t = [5], 8 * 5
        for k in range(1, levels):
            N.append(max(1, math.ceil(Fraction(t * (k + 1), 3))))
            t += n[k] * N[k]
        assert rep["payload"]["multiplicities"] == N
    assert N[10] == 192_397_254_485_545_516


def test_glued_family_and_edp(capsys):
    code, rep = run_json(capsys, "glued-family", "--beta", "2",
                         "--levels", "2", "--pool-size", "2",
                         "--multiplicity", "2")
    assert code == 0
    assert rep["payload"]["count"] == 16
    code, rep = run_json(capsys, "edp", "--beta", "2", "--levels", "2",
                         "--pool-size", "2", "--multiplicity", "2")
    assert code == 0
    assert rep["checks"][0]["pass"]


def test_exotic(capsys):
    code, rep = run_json(capsys, "exotic", "--levels", "2", "--N", "4,6",
                         "--nmax", "12")
    assert code == 0
    assert all(c["pass"] for c in rep["checks"])


def test_zvalues_and_repair(capsys):
    code, rep = run_json(capsys, "zvalues", "--beta-poly", "1,-1,-1",
                         "--n", "8")
    assert code == 0
    assert rep["payload"]["z"] == [0, 1] * 4
    assert rep["payload"]["specification_gap"] == 1
    code, rep = run_json(capsys, "repair", "--beta-poly", "1,-1,-1",
                         "--word", "101")
    assert rep["payload"]["repaired"] == "100"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "count", "--beta", "2", "--n", "4",
                         "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["payload"]["count"] == 16


# every subparser's flags, pinned: option strings, dest, default, type name,
# required and choices; --emit and --out lead every table, and BETA follows
# where a β is read
COMMON = [(("--emit",), "emit", "json", None, False, ("json", "csv")),
          (("--out",), "out", None, None, False, None)]
BETA = [(("--beta",), "beta", None, None, False, None),
        (("--beta-poly",), "beta_poly", None, None, False, None),
        (("--beta-digits",), "beta_digits", None, None, False, None)]
FLAG_TABLE = {
    "expand": [
        *BETA,
        (("--x",), "x", None, None, True, None),
        (("--n",), "n", 32, "int", False, None),
    ],
    "expansion-of-one": [
        *BETA,
        (("--n",), "n", 32, "int", False, None),
    ],
    "beta-from-digits": [
        (("--digits",), "digits", None, None, True, None),
        (("--n",), "n", 16, "int", False, None),
    ],
    "admissible": [
        *BETA,
        (("--word",), "word", None, None, True, None),
    ],
    "graph": [
        *BETA,
        (("--n",), "n", 8, "int", False, None),
    ],
    "count": [
        *BETA,
        (("--n",), "n", None, "int", True, None),
        (("--profile",), "profile", False, None, False, None),
    ],
    "zvalues": [
        *BETA,
        (("--n",), "n", 32, "int", False, None),
    ],
    "repair": [
        *BETA,
        (("--word",), "word", None, None, True, None),
    ],
    "markov": [
        *BETA,
        (("--n",), "n", None, "int", True, None),
    ],
    "witnesses": [
        *BETA,
        (("--phi",), "phi", None, None, True, None),
        (("--max-period",), "max_period", 6, "int", False, None),
    ],
    "separated": [
        (("--words-file",), "words_file", None, None, True, None),
        (("--g",), "g", "zero", None, False, None),
        (("--window",), "window", 1, "int", False, None),
        (("--exact",), "exact", False, None, False, None),
    ],
    "spanning": [
        (("--words-file",), "words_file", None, None, True, None),
        (("--g",), "g", "zero", None, False, None),
        (("--window",), "window", 1, "int", False, None),
        (("--exact",), "exact", False, None, False, None),
    ],
    "katok": [
        *BETA,
        (("--gamma",), "gamma", 0.1, "float", False, None),
        (("--g",), "g", "zero", None, False, None),
        (("--window",), "window", 1, "int", False, None),
        (("--nmax",), "nmax", 12, "int", False, None),
        (("--n-list",), "n_list", None, None, False, None),
    ],
    "bowen": [
        *BETA,
        (("--tree",), "tree", None, None, False, None),
        (("--depth",), "depth", 16, "int", False, None),
        (("--markov-n",), "markov_n", None, "int", False, None),
        (("--nmin",), "nmin", 1, "int", False, None),
    ],
    "diam": [
        *BETA,
        (("--word",), "word", None, None, True, None),
    ],
    "dims": [
        *BETA,
        (("--entropy",), "entropy", None, "float", True, None),
        (("--zratio",), "zratio", 0.0, "float", False, None),
        (("--bounded-z",), "bounded_z", False, None, False, None),
    ],
    "boxdim": [
        *BETA,
        (("--tree",), "tree", None, None, False, None),
        (("--depth",), "depth", 16, "int", False, None),
        (("--markov-n",), "markov_n", None, "int", False, None),
        (("--depths",), "depths", None, None, False, None),
    ],
    "schedule": [
        (("--n-list",), "n_list", None, None, False, None),
        (("--N-list",), "N_list", None, None, False, None),
        (("--delta-list",), "delta_list", None, None, False, None),
        (("--levels",), "levels", 3, "int", False, None),
    ],
    "pools": [
        *BETA,
        (("--phi",), "phi", None, None, True, None),
        (("--alpha",), "alpha", None, None, True, None),
        (("--n-list",), "n_list", None, None, False, None),
        (("--N-list",), "N_list", None, None, False, None),
        (("--delta-list",), "delta_list", None, None, False, None),
        (("--levels",), "levels", 3, "int", False, None),
        (("--seed",), "seed", 0, "int", False, None),
    ],
    "irregular": [
        *BETA,
        (("--phi",), "phi", None, None, True, None),
        (("--alpha",), "alpha", None, None, True, None),
        (("--n-list",), "n_list", None, None, False, None),
        (("--N-list",), "N_list", None, None, False, None),
        (("--delta-list",), "delta_list", None, None, False, None),
        (("--levels",), "levels", 3, "int", False, None),
        (("--seed",), "seed", 0, "int", False, None),
    ],
    "glued-family": [
        *BETA,
        (("--levels",), "levels", 2, "int", False, None),
        (("--pool-size",), "pool_size", 2, "int", False, None),
        (("--multiplicity",), "multiplicity", 2, "int", False, None),
        (("--budget",), "budget", 100000, "int", False, None),
    ],
    "edp": [
        *BETA,
        (("--levels",), "levels", 2, "int", False, None),
        (("--pool-size",), "pool_size", 2, "int", False, None),
        (("--multiplicity",), "multiplicity", 2, "int", False, None),
        (("--budget",), "budget", 100000, "int", False, None),
    ],
    "exotic": [
        (("--levels",), "levels", 2, "int", False, None),
        (("--N",), "N", "4,6", None, False, None),
        (("--nmax",), "nmax", 14, "int", False, None),
    ],
}


def test_parser_flag_table_is_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    table = {name: [(tuple(a.option_strings), a.dest, a.default,
                     getattr(a.type, "__name__", None), a.required,
                     tuple(a.choices) if a.choices else None)
                    for a in sp._actions
                    if not isinstance(a, argparse._HelpAction)]
             for name, sp in sub.choices.items()}
    assert list(table) == list(FLAG_TABLE)
    for name, rows in FLAG_TABLE.items():
        assert table[name] == COMMON + rows, name

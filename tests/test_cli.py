import json
import math

import pytest

from betalab import errors
from betalab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


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
])
def test_malformed_number_exits_2(capsys, tmp_path, argv):
    (tmp_path / "not_json.json").write_text("not json")
    (tmp_path / "no_bound.json").write_text('{"trie": {}}')
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


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


def test_malformed_beta_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "--beta", "x", "--n", "5")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


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
    with pytest.raises(SystemExit) as exc:
        main(["witnesses", "--beta", "2", "--phi", "freq:1",
              "--allow-degenerate"])
    assert exc.value.code == 2


def test_every_error_has_an_exit_code():
    """main maps UsageError to exit 2 and ResourceError to exit 3; every
    other BetalabError would escape it as a traceback."""
    classes = [c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.BetalabError)]
    assert len(classes) > 10
    for cls in classes:
        if cls not in (errors.BetalabError, errors.UsageError,
                       errors.ResourceError):
            assert issubclass(cls, (errors.UsageError, errors.ResourceError))


def test_csv_emit(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "2", "--n", "6",
                           "--profile", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["n", "count", "rate"]
    assert lines[1].startswith("1,2,")


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


def test_bowen_and_boxdim(capsys):
    code, rep = run_json(capsys, "bowen", "--beta", "2", "--depth", "12")
    assert code == 0
    assert abs(rep["payload"]["estimate"] - math.log(2)) < 0.01
    code, rep = run_json(capsys, "boxdim", "--beta-poly", "1,-1,-1",
                         "--markov-n", "3", "--depth", "24",
                         "--depths", "24")
    assert code == 0
    assert rep["checks"][0]["pass"]


def test_schedule_and_pools(capsys):
    code, rep = run_json(capsys, "schedule", "--levels", "4")
    assert code == 0
    assert rep["checks"][0]["pass"]
    code, rep = run_json(capsys, "pools", "--beta-poly", "1,-1,-1",
                         "--phi", "freq:1", "--alpha", "0.5,0",
                         "--levels", "2")
    assert code == 0
    assert all(r["size"] > 0 for r in rep["payload"]["rows"])


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
    code, rep = run_json(capsys, "repair", "--beta-poly", "1,-1,-1",
                         "--word", "101")
    assert rep["payload"]["repaired"] == "100"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "count", "--beta", "2", "--n", "4",
                         "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["payload"]["count"] == 16

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dominsert import verify
from dominsert.cli import build_parser, main
from dominsert.insertion import insert_word
from dominsert.words import parse_biword, parse_word
from support import SUITE_READS, signed_permutations


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own errors exit from inside parse_args
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_insert_ascii(capsys):
    code, out, _ = run_cli(capsys, "insert", "3' 4 2 1'", "--core", "0")
    assert code == 0
    assert "shape: (3,3,2)" in out
    assert "sp(P): 3/2" in out and "sp(Q): 1/2" in out
    assert "tc: 2" in out


def test_insert_trace(capsys):
    code, out, _ = run_cli(capsys, "insert", "3' 4 2 1'", "--trace")
    assert code == 0
    assert out.count("after step") == 4
    code, out, err = run_cli(capsys, "insert", "1/2 1/1", "--trace")  # a biword has no frames
    assert code == 0 and "after step" not in out
    assert err == "(trace is available for signed permutations only)\n"


def test_insert_json_reverse_round_trip(capsys, monkeypatch, tmp_path):
    code, out, _ = run_cli(capsys, "insert", "3' 4 2 1'", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [3, 3, 2]
    path = tmp_path / "pair.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "reverse", "--input", str(path))
    assert code == 0
    assert out.strip() == "3' 4 2 1'"


def test_insert_biword_and_reverse(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "insert", "1/2' 1/3 2/4 3/1' 3/1'", "--format", "json")
    assert code == 0
    path = tmp_path / "pair.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "reverse", "--input", str(path))
    assert code == 0
    assert out.strip() == "1/2' 1/3 2/4 3/1' 3/1'"


def test_insert_json_into_reverse_gives_back_the_word(capsys, monkeypatch):
    # seeded signed permutations up to n = 300, through the two commands users call
    rng = random.Random(23)
    for core in range(4):
        for n in (0, 1, 2, rng.randrange(3, 100), 300):
            text = " ".join(f"{v}'" if rng.random() < 0.5 else str(v) for v in rng.sample(range(1, n + 1), n))
            code, out, _ = run_cli(capsys, "insert", text, "--core", str(core), "--format", "json")
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, _ = run_cli(capsys, "reverse", "--format", "json")
            assert code == 0 and json.loads(out) == {"word": text, "core": core}


def test_insert_json_into_reverse_gives_back_the_biword(capsys, monkeypatch):
    # seeded colored biwords of length 0-30, tops 1-4, bottoms 1-5, each bottom
    # barred with probability 1/2; one whose top row is 1..n and bottom row a
    # signed permutation prints as its word, so the sides compare as biwords
    rng = random.Random(24)
    for core in range(4):
        texts = [" ".join(f"{rng.randint(1, 4)}/{rng.randint(1, 5)}" + "'" * (rng.random() < 0.5)
                          for _ in range(rng.randrange(31))) for _ in range(60)]
        for text in texts + ["2/1 1/2'", "1/3' 3/1 2/2"]:
            code, out, _ = run_cli(capsys, "insert", text, "--core", str(core), "--format", "json")
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, _ = run_cli(capsys, "reverse", "--format", "json")
            back = json.loads(out)
            assert code == 0 and back["core"] == core
            assert parse_biword(back["word"]) == parse_biword(text), text


def test_growth_matches_insert(capsys):
    code, out, _ = run_cli(capsys, "growth", "3' 4 2 1'", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"][-1][-1] == [3, 3, 2]
    code, out, _ = run_cli(capsys, "growth", "3' 4 2 1'")
    assert out.splitlines()[0].startswith("()")


def test_growth_cells(capsys):
    code, out, _ = run_cli(capsys, "growth", "2' 1", "--cells")
    assert code == 0 and "#" in out


def test_empty_word_edge_cases(capsys):
    code, out, _ = run_cli(capsys, "growth", "", "--core", "1")
    assert code == 0 and out.strip() == "(1)"


def test_imbalance(capsys):
    code, out, _ = run_cli(capsys, "imbalance", "2,1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "imbalance", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "imbalance", "--all-of", "6")
    assert code == 0 and "equal" in out
    # m = 0 checks the identity too, rather than printing the empty shape's imbalance
    code, out, _ = run_cli(capsys, "imbalance", "--all-of", "0")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3 and lines[-1] == "equal"
    code, out, _ = run_cli(capsys, "imbalance", "--all-of", "0", "--format", "json")
    assert code == 0 and json.loads(out)["equal"] is True


def test_the_imbalance_of_a_long_row_is_1(capsys):
    # the walk down the shapes keeps its own stack, so a thousand cells reach no recursion limit
    code, out, err = run_cli(capsys, "imbalance", "1000")
    assert (code, out, err) == (0, "1\n", "")


def test_series_expand(capsys):
    code, out, _ = run_cli(
        capsys, "series", "expand", "--g-function", "2,2", "--vars", "2", "--degree", "3"
    )
    assert code == 0
    assert "x1*x2: 1 + s^2" in out
    code, out, _ = run_cli(
        capsys, "series", "expand", "--schur", "2", "--vars", "2", "--degree", "2"
    )
    assert "x1^2: 1" in out
    # an empty shape is a shape: its domino function and Schur polynomial are 1, not the weighted sum
    for flag in ("--g-function", "--schur"):
        assert run_cli(capsys, "series", "expand", flag, "", "--vars", "1", "--degree", "2") == (0, "1: 1\n", "")


def test_a_schur_function_past_the_recursion_limit(capsys):
    """The Schur listing adds one value per loop step, so 1200 variables
    are not 1200 nested calls."""
    code, out, err = run_cli(capsys, "series", "expand", "--schur", "1", "--vars", "1200", "--degree", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "x1: 1"


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "shapes", "--core", "0", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["(1,1,1,1)", "(2,1,1)", "(2,2)", "(3,1)", "(4)"]
    code, out, _ = run_cli(capsys, "enumerate", "sdt", "2,2", "--format", "json")
    assert len(json.loads(out)) == 2
    code, out, _ = run_cli(capsys, "enumerate", "involutions", "--n", "2")
    assert len(out.splitlines()) == 6
    assert run_cli(capsys, "enumerate", "sdt", "") == (0, "1 standard tableaux of ()\n(empty shape)\n\n", "")


def test_verify_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "insertion", "--n", "2", "--cores", "0", "--format", "json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(rec["pass"] for rec in records)
    assert {rec["identity"] for rec in records} == {
        "standard-bijection",
        "bumping-vs-growth",
        "color-to-spin",
        "ascent-lemmas",
        "inverse-symmetry",
    }


def test_verify_defaults_match_library(capsys):
    # the CLI passes only the sizes it is given, so its record set is the library's
    from dominsert.verify import run_suite

    code, out, _ = run_cli(capsys, "verify", "dual", "--format", "json")
    assert code == 0
    cli = {(rec["identity"], json.dumps(rec["params"], sort_keys=True)) for rec in map(json.loads, out.splitlines())}
    library = {(rec["identity"], json.dumps(rec["params"], sort_keys=True)) for rec in run_suite("dual")}
    assert cli == library


@pytest.mark.parametrize(
    "suite, sizes, flags",
    [
        ("insertion", {"n": -1}, ["--n", "-1"]),
        ("sym", {"n": -1}, ["--n", "-1"]),
        ("semistandard", {"length": -1}, ["--length", "-1"]),
        ("series", {"degree": -1}, ["--degree", "-1"]),
        ("sign", {"max_size": -1}, ["--max-size", "-1"]),
        ("insertion", {"cores": (0, -1)}, ["--cores", "0,-1"]),
        ("insertion", {"n": 0}, ["--n", "0"]),  # no records at all
        ("insertion", {"nn": 2}, None),  # no such size; the CLI has no such flag
        ("series", {"vars": 0}, ["--vars", "0"]),  # series in no variables are constants
        # sizes the suite does not read
        (
            "insertion",
            {"n": 2, "cores": (0,), "max_size": 4, "poly_n": 9, "vars": 5},
            ["--n", "2", "--cores", "0", "--vars", "5", "--max-size", "4", "--poly-n", "9"],
        ),
        ("sign", {"max_size": 3, "cores": (5,)}, ["--max-size", "3", "--cores", "5"]),
        ("insertion", {"poly_n": 9}, ["--poly-n", "9"]),
        ("sign", {"cores": (0, 1)}, ["--cores", "0,1"]),  # the cores it runs, but not a size it reads
        ("insertion", {"n": 1, "cores": (1, 1)}, ["--n", "1", "--cores", "1,1"]),  # a repeated core
        ("series", {"cores": (1, 1)}, ["--cores", "1,1"]),
    ],
)
def test_verify_rejects_bad_sizes(capsys, suite, sizes, flags):
    # a bad selection must not pass vacuously: the library raises, the CLI exits 2
    from dominsert.verify import run_suite

    with pytest.raises(ValueError):
        run_suite(suite, sizes)
    if flags is not None:
        code, out, err = run_cli(capsys, "verify", suite, *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        # the error names an unread size if there is one, else the bad one
        unread = [f"reads no size {key};" for key in sizes if key not in SUITE_READS[suite]]
        assert any(name in err for name in unread) if unread else any(key in err for key in sizes)


@pytest.mark.parametrize("cores", ["", "1,", "1.5", "a", "0,,1", "--1"])
def test_malformed_cores_name_the_flag(capsys, cores):
    code, out, err = run_cli(capsys, "verify", "insertion", f"--cores={cores}")
    assert code == 2 and out == ""
    assert err == f"error: --cores takes comma-separated integers, got {cores!r}\n"


def test_verify_all_runs_at_the_smallest_sizes(capsys):
    # every suite reads some of these and has something to check at them
    argv = ["--n", "1", "--max-size", "1", "--poly-n", "0", "--length", "0", "--degree", "0", "--cores", "0"]
    code, out, err = run_cli(capsys, "verify", "all", *argv)
    assert code == 0 and err == ""
    assert out.endswith(" checks passed\n")


def test_verify_size_flags_are_the_table_sizes():
    # the verify parser declares one flag per size of the suite table, and no other size
    args = vars(build_parser().parse_args(["verify", "all"]))
    sizes = set(args) - {"command", "func", "suite", "format", "jobs"}
    assert sizes == set(verify.SIZE_NAMES) == set().union(*SUITE_READS.values())
    assert all(args[name] is None for name in sizes)  # the suites own the defaults


# tiny values of every verify size, and the inputs each kind of enumerate reads
VERIFY_FLAGS = {
    "n": ["1", "2"],
    "cores": ["0", "1", "0,1", "2,0"],
    "length": ["0", "1"],
    "max-size": ["1", "2"],
    "poly-n": ["0", "1"],
    "vars": ["1", "2"],
    "degree": ["0", "1"],
}
ENUMERATE_READS = {
    "shapes": {"--n", "--core"},
    "partitions": {"--n"},
    "involutions": {"--n"},
    "sdt": {"shape"},
    "ssdt": {"shape", "--max-value"},
}
ENUMERATE_VALUES = {"shape": ["2", "1,1", "2,1,1"], "--n": ["0", "2"], "--core": ["0", "1"], "--max-value": ["0", "2"]}


def _call(argv, stdin=""):
    # run_cli without capsys, which is shared by all the examples of one Hypothesis test
    out, err = io.StringIO(), io.StringIO()
    stdin = mock.patch.object(sys, "stdin", io.StringIO(stdin))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), stdin:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors, such as a shape that reads as a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60)
@given(st.data())
def test_verify_and_enumerate_reject_exactly_the_unread_flags(data):
    # every input a command reads at a tiny value, plus at most one more:
    # exit 2 with one error line exactly when that one is not read, never a traceback
    if data.draw(st.booleans(), label="verify"):
        suite = data.draw(st.sampled_from(sorted(SUITE_READS) + ["all"]), label="suite")
        reads = {name.replace("_", "-") for name in SUITE_READS.get(suite, set().union(*SUITE_READS.values()))}
        argv = ["verify", suite]
        for name in sorted(reads):
            argv += [f"--{name}", data.draw(st.sampled_from(VERIFY_FLAGS[name]), label=name)]
        extra = data.draw(st.sampled_from([None, *sorted(VERIFY_FLAGS)]), label="extra")
        if extra is not None:
            argv += [f"--{extra}", data.draw(st.sampled_from(VERIFY_FLAGS[extra]), label="extra value")]
    else:
        kind = data.draw(st.sampled_from(sorted(ENUMERATE_READS)), label="kind")
        reads = ENUMERATE_READS[kind]
        extra = data.draw(st.sampled_from([None, *sorted(ENUMERATE_VALUES)]), label="extra")
        argv = ["enumerate", kind]
        # the shape comes first: argparse reads no positional after a flag
        for flag in sorted(reads | {extra} - {None}, key=lambda flag: flag != "shape"):
            value = data.draw(st.sampled_from(ENUMERATE_VALUES[flag]), label=flag)
            argv += [value] if flag == "shape" else [flag, value]
    code, out, err = _call(argv)
    if extra is not None and extra not in reads:
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        assert code in (0, 1) and err == ""


SERIES_SHAPES = {"2": True, "2,2": True, "3,1,1": True, "": True, "1,2": False, "x": False}  # shape -> valid
SERIES_CORES = {"0": True, "2": True, "-1": False}


@settings(max_examples=80)
@given(st.data())
def test_series_expand_exits_0_or_2_with_one_error_line(data):
    # small sizes, one or two of the three flags that pick a series, and --params from a grammar
    # with repeats, floats and unknown names: exit 2 exactly when some input is bad, never a traceback
    argv = ["series", "expand"]
    for flag in ("--vars", "--degree"):
        argv += [flag, data.draw(st.sampled_from(["0", "1", "2"]), label=flag)]
    picked = data.draw(st.lists(st.sampled_from(["--g-function", "--schur", "--core"]), min_size=1, max_size=2, unique=True))
    valid = len(picked) == 1
    for flag in picked:
        table = SERIES_CORES if flag == "--core" else SERIES_SHAPES
        value = data.draw(st.sampled_from(sorted(table)), label=flag)
        argv += [flag, value]
        valid = valid and table[value]
    pieces = data.draw(st.lists(st.tuples(st.sampled_from("abcsx"), st.sampled_from(["0", "1", "-2", "1.5", ""])), max_size=3))
    names = [name for name, _ in pieces]
    params_valid = "x" not in names and len(set(names)) == len(names) and all(value not in ("1.5", "") for _, value in pieces)
    if pieces:
        argv += ["--params", ",".join(f"{name}={value}" for name, value in pieces)]
    code, out, err = _call(argv)
    assert "Traceback" not in err
    if valid and params_valid:
        assert code == 0 and err == "", argv
    else:
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
        assert params_valid or "--params" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "expand", "--degree", "-1"],
        ["series", "expand", "--vars", "-1"],
        ["enumerate", "involutions", "--n", "-1"],
        ["verify", "counting", "--jobs", "-3"],
        ["verify", "counting", "--jobs", "0"],
        ["enumerate", "ssdt", "4,2", "--max-value", "-5"],
        ["verify", "insertion", "--n", "x"],
        ["enumerate", "sdt", "--format", "json", "2,2"],
        ["series", "expand", "--params", "a=1,a=2"],
        ["series", "expand", "--params", "a=1.5"],
        ["enumerate", "shapes", "--n", "1.5"],
        ["enumerate", "sdt", "3,a"],
        ["imbalance", ","],
        ["insert", "²"],
        ["insert", "2'''"],
        ["insert", "x'"],
        ["insert", "-2,1"],
        ["growth", "-2,1"],
    ],
)
def test_bad_sizes_exit_2(capsys, argv):
    # a negative size, a series in no variables or fewer than one job is an error, not an empty pass;
    # so are what argparse rejects itself, a size that is no integer, a shape after a flag, a
    # letter whose digit is no decimal one, a letter with more than one bar, and a word that
    # starts with a minus, which argparse reads as a flag unless it follows --.
    # No token here is past int()'s digit limit, so no error blames it
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "digits" not in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["series", "expand", "--g-function", "2", "--schur", "1,1"], ("--g-function", "--schur")),
        (["series", "expand", "--g-function", "2", "--core", "1"], ("--g-function", "--core")),
        (["series", "expand", "--schur", "2", "--core", "0"], ("--schur", "--core")),
        (["imbalance", "3,1", "--all-of", "2"], ("shape", "--all-of")),
    ],
)
def test_clashing_flags_exit_2(capsys, argv, flags):
    # a flag is never dropped silently: two that ask for different outputs are an error naming both
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert all(flag in err for flag in flags)


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["enumerate", "ssdt", "2", "--max-value", "1000"], 1 + 1000 * 4),
        (["series", "expand", "--g-function", "2", "--vars", "1000", "--degree", "1"], 1000),
        (["enumerate", "sdt", "2400"], 1 + 4),
    ],
)
def test_a_thousand_values_exit_0(capsys, argv, lines):
    # one tableau per value: a term x_k per variable, or a picture of 3 lines and a blank after the header;
    # the one standard tableau of a row of 1,200 dominoes is listed without recursing per domino
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == lines


@pytest.mark.parametrize(
    "argv, name",
    [
        (["imbalance", "HUGE"], "shape"),
        (["imbalance", "3,HUGE"], "shape"),
        (["enumerate", "sdt", "HUGE"], "shape"),
        (["enumerate", "ssdt", "2,HUGE", "--max-value", "1"], "shape"),
        (["series", "expand", "--g-function", "HUGE"], "--g-function"),
        (["series", "expand", "--schur", "1,HUGE"], "--schur"),
        (["series", "expand", "--params", "a=-HUGE"], "--params"),
        (["verify", "insertion", "--cores", "0,HUGE"], "--cores"),
        (["insert", "HUGE"], "token 1: a letter"),
        (["growth", "1 HUGE'"], "token 2: a letter"),
    ],
)
def test_an_integer_past_the_digit_limit_names_its_flag(capsys, argv, name):
    # int() reads at most 4,300 digits by default, and its own message names no flag
    huge = "9" * 5000
    code, out, err = run_cli(capsys, *(arg.replace("HUGE", huge) for arg in argv))
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert re.fullmatch(f"error: {name} takes integers of at most {limit} digits, got one of 500[01] characters\n", err)
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["insert", "1", "--core", "HUGE"], "--core"),
        (["imbalance", "--all-of", "HUGE"], "--all-of"),
        *((["series", "expand", flag, "HUGE"], flag) for flag in ("--core", "--vars", "--degree")),
        *((["enumerate", "shapes", flag, "HUGE"], flag) for flag in ("--n", "--core")),
        (["enumerate", "ssdt", "2", "--max-value", "HUGE"], "--max-value"),
        *((["verify", "all", flag, "HUGE"], flag)
          for flag in ["--" + name.replace("_", "-") for name in verify.SIZE_NAMES if name != "cores"] + ["--jobs"]),
    ],
)
def test_an_integer_flag_past_the_digit_limit_names_the_flag_and_the_limit(capsys, argv, flag):
    # argparse's own message would repeat all 5,000 digits
    code, out, err = run_cli(capsys, *(arg.replace("HUGE", "9" * 5000) for arg in argv))
    assert code == 2 and out == ""
    assert len(err) < 200 and err.count("\n") == 1
    assert err.startswith(f"error: argument {flag}: ")
    assert f"at most {sys.get_int_max_str_digits()} digits" in err and "set_int_max_str_digits" not in err


IMBALANCE_PARTS = ["0", "1", "2", "3", "-1", "x", "", "HUGE"]


@settings(max_examples=80)
@given(st.data())
def test_imbalance_exits_0_or_2_with_one_error_line(data):
    # a shape from small parts (unsorted, empty, negative, non-digit or past the digit limit), --all-of 0-6
    # and --format, each maybe left out: exit 2 exactly when an input is bad, never a traceback
    parts = data.draw(st.lists(st.sampled_from(IMBALANCE_PARTS), max_size=4), label="parts")
    shape = data.draw(st.sampled_from([None, ",".join(parts)]), label="shape")
    all_of = data.draw(st.none() | st.integers(0, 6), label="--all-of")
    fmt = data.draw(st.sampled_from([None, "ascii", "json"]), label="--format")
    argv = ["imbalance"] + ([shape.replace("HUGE", "9" * 5000)] if shape is not None else [])
    argv += (["--all-of", str(all_of)] if all_of is not None else []) + (["--format", fmt] if fmt else [])
    numbers = [int(part) for part in parts if part.removeprefix("-").isdecimal()]
    valid = not shape or (len(numbers) == len(parts) and numbers == sorted(numbers, reverse=True) and min(numbers) >= 0)
    code, out, err = _call(argv)
    assert "Traceback" not in err
    if valid and not (shape and all_of is not None):
        assert code == 0 and err == "", argv[:4]
    else:
        assert code == 2 and out == "", argv[:4]
        assert err.startswith("error:") and len(err.splitlines()) == 1, err


def _exits_0_or_2_with_one_error_line(argv, stdin=""):
    # a traceback would escape _call; exit 2 prints one line that says more than a KeyError's bare key
    code, out, err = _call(argv, stdin)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not re.fullmatch(r"error: '[^']*'\n", err), err


# letters and pairs of words of at most 5 tokens: bars either way, a zero, a non-digit, a value past the
# length, a barred top, an empty token, one past the digit limit
WORD_TOKENS = ["1", "2", "3", "1'", "-2", "3'", "0", "x", "", "9", "1/2", "2/1'", "1'/1", "HUGE"]
CORE_VALUES = ["0", "1", "2", "-1", "x", "1.5", "1001", "HUGE"]
COMMAND_FLAGS = {"insert": ["--trace"], "growth": ["--cells"], "reverse": []}


def _pair_payload(word, core):
    result = insert_word(word, core)
    return {"P": result.p.to_json(), "Q": result.q.to_json(), "core": core}


SMALL_PAYLOAD = json.dumps(_pair_payload(parse_word("2' 1"), 0))


@settings(max_examples=100)
@given(st.data())
def test_insert_growth_and_reverse_exit_0_or_2_with_one_error_line(data):
    # a word from small tokens joined by spaces, commas or a row break, or a reverse input; --core and
    # --format, each maybe left out; and up to two of --trace and --cells, which one command reads each
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)), label="command")
    argv, stdin = [command], ""
    if command == "reverse":
        stdin = data.draw(st.sampled_from(["", "{}", "not json", "[]", SMALL_PAYLOAD]), label="stdin")
        if data.draw(st.booleans(), label="--input"):
            argv += ["--input", data.draw(st.sampled_from([os.devnull, ".", "no-such-dir/in.json"]), label="path")]
    else:
        tokens = data.draw(st.lists(st.sampled_from(WORD_TOKENS), max_size=5), label="tokens")
        argv.append(data.draw(st.sampled_from([" ", ",", ";"]), label="separator").join(tokens))
    if data.draw(st.booleans(), label="--core"):
        argv += ["--core", data.draw(st.sampled_from(CORE_VALUES), label="core")]
    if data.draw(st.booleans(), label="--format"):
        argv += ["--format", data.draw(st.sampled_from(["ascii", "json", "xml"]), label="format")]
    argv += data.draw(st.lists(st.sampled_from(sum(COMMAND_FLAGS.values(), [])), max_size=2), label="flags")
    _exits_0_or_2_with_one_error_line([arg.replace("HUGE", "9" * 5000) for arg in argv], stdin)


HUGE_MARK, DEEP_MARK = "@huge@", "@deep@"  # strings json.dumps writes as they are, replaced in its text
PAYLOAD_KEYS = ["P", "Q", "core", "dominoes", "value", "row", "col", "orient"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=3) | st.just(HUGE_MARK),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(PAYLOAD_KEYS) | st.text(max_size=2), children, max_size=5),
    max_leaves=20,
)


def _payload_text(payload, depth):
    text = json.dumps(payload)
    return text.replace(f'"{HUGE_MARK}"', "9" * 5000).replace(f'"{DEEP_MARK}"', "[" * depth + "1" + "]" * depth)


def _nodes(value, path=()):
    """The path to every value below the top one, as keys and indices."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@settings(max_examples=100)
@given(st.data())
def test_a_fuzzed_reverse_payload_exits_0_or_2_with_one_error_line(data):
    # JSON of any shape, or a valid pair over core 0-2 with one field dropped, retyped, made a float,
    # made an integer past the digit limit or nested deeply
    if data.draw(st.booleans(), label="any JSON"):
        payload = data.draw(json_values, label="payload")
    else:
        word, core = data.draw(signed_permutations(max_n=4), label="word"), data.draw(st.integers(0, 2), label="core")
        payload = _pair_payload(word, core)
        *parent, key = data.draw(st.sampled_from(list(_nodes(payload))), label="field")
        container = payload
        for step in parent:
            container = container[step]
        change = data.draw(st.sampled_from(["drop", "retype", "float", "huge", "deep"]), label="change")
        if change == "drop":
            del container[key]
        elif change == "retype":
            container[key] = data.draw(st.sampled_from([None, True, "1", [], {}, [1], {"1": 1}]), label="value")
        elif change == "float":
            value = container[key]
            container[key] = value + 0.5 if type(value) is int else 1.5
        else:
            container[key] = HUGE_MARK if change == "huge" else DEEP_MARK
    depth = data.draw(st.sampled_from([3, 100_000]), label="depth")
    _exits_0_or_2_with_one_error_line(["reverse"], _payload_text(payload, depth))


def test_verify_jobs_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "insertion", "--n", "1", "--cores", "0", "--jobs", "2"
    )
    assert code == 0
    assert "checks passed" in out


def test_the_import_loads_no_process_pool_and_no_dataclasses():
    # only ``verify --jobs`` above 1 starts a pool; -S keeps site hooks out of what is counted
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "fractions")
    code = f"import sys, dominsert, dominsert.verify, dominsert.cli; print([m for m in {heavy} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "insert", "3 x 1")
    assert code == 2
    assert "error" in err
    assert run_cli(capsys, "insert", "1/2 1/x") == (2, "", "error: pair 2: cannot parse letter 'x'\n")
    # a bad letter is quoted as it was given, bars and all
    assert run_cli(capsys, "insert", "2'''") == (2, "", "error: token 1: cannot parse letter \"2'''\"\n")
    assert run_cli(capsys, "insert", "1 x'") == (2, "", "error: token 2: cannot parse letter \"x'\"\n")
    assert run_cli(capsys, "insert", "--", "-x") == (2, "", "error: token 1: cannot parse letter '-x'\n")
    assert run_cli(capsys, "insert", "--", "-2,1")[0] == 0


def test_a_closed_pipe_exits_141_without_an_error_line(capsys, monkeypatch):
    """A reader that leaves early (``... | head -1``) is not bad input: the
    command stops writing and exits 128 + SIGPIPE, with nothing on stderr."""

    read_end, write_end = os.pipe()

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return write_end

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    try:
        assert main(["enumerate", "sdt", "4,4"]) == 141
        assert capsys.readouterr().err == ""
        os.write(write_end, b"the exit flush")  # now the null device
        os.close(write_end)
        assert os.read(read_end, 100) == b""
    finally:
        os.close(read_end)


def test_a_library_key_error_is_not_a_usage_error(monkeypatch):
    """Exit 2 is for bad input, which the readers report as ValueError; a
    KeyError from inside the library is a fault and propagates."""
    monkeypatch.setattr("dominsert.words.parse_biword", mock.Mock(side_effect=KeyError("fault")))
    with pytest.raises(KeyError):
        main(["insert", "1"])


def test_reverse_error_paths(capsys, tmp_path, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run_cli(capsys, "reverse")
    assert code == 2 and "error" in err
    # mismatched pair: equal weights but shapes differ
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "core": 0,
                "P": {"core": [], "dominoes": [{"value": 1, "row": 1, "col": 1, "orient": "h"}]},
                "Q": {"core": [], "dominoes": [{"value": 1, "row": 1, "col": 1, "orient": "v"}]},
            }
        )
    )
    code, _, err = run_cli(capsys, "reverse", "--input", str(path))
    assert code == 2 and "error" in err


def test_negative_core_rejected(capsys):
    for argv in (("insert", "1", "--core", "-1"), ("growth", "2' 1", "--core", "-3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("insert", "1", "--core", "1000000000"),
        ("growth", "2' 1", "--core", "1000000000"),
        ("series", "expand", "--core", "1000000000"),
        ("enumerate", "shapes", "--core", "1000000000"),
        ("verify", "insertion", "--cores", "1000000000"),
    ],
)
def test_a_huge_core_is_rejected_before_it_is_built(capsys, monkeypatch, argv):
    # a core is built as its whole staircase: 10^9 parts would take gigabytes
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and peak < 1_000_000
    assert err == "error: core order must be at most 1000, got 1000000000\n"


def test_the_largest_core_still_runs(capsys, monkeypatch):
    for argv in (("insert", "1"), ("growth", "1"), ("enumerate", "shapes", "--n", "1"), ("series", "expand")):
        code, out, _ = run_cli(capsys, *argv, "--core", "1000", "--format", "json")
        assert code == 0 and json.loads(out)
    code, out, _ = run_cli(capsys, "insert", "2' 1", "--core", "1000", "--format", "json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "reverse", "--format", "json")
    assert code == 0 and json.loads(out) == {"word": "2' 1", "core": 1000}


# int() reads at most 4,300 digits by default, the JSON reader's integers too
HUGE_CORE = '{"P": {"core": [], "dominoes": []}, "Q": {"core": [], "dominoes": []}, "core": ' + "9" * 5000 + "}"
# each payload below is valid once its one bad number is made an integer (or, as text, made shorter)
ONE = {"value": 1, "row": 1, "col": 1, "orient": "h"}
ON_CORE = {"core": [1], "dominoes": [{**ONE, "col": 2}]}


@pytest.mark.parametrize(
    "payload",
    [
        {"P": 5, "Q": 5},
        [1, 2],
        {"P": {"core": 5, "dominoes": []}, "Q": {"core": [], "dominoes": []}},
        {"P": {"core": [], "dominoes": [5]}, "Q": {"core": [], "dominoes": []}},
        {"P": {"core": [], "dominoes": []}, "Q": {"core": [], "dominoes": []}, "core": None},
        *(
            {"P": {"core": [], "dominoes": [domino]}, "Q": {"core": [], "dominoes": [ONE]}}
            for domino in (
                {**ONE, "value": 0},
                {**ONE, "value": -1},
                {**ONE, "value": 1.0},
                {**ONE, "row": 1.5},
                {**ONE, "col": True},
                {**ONE, "row": "1"},
            )
        ),
        {"P": {**ON_CORE, "core": [1.0]}, "Q": ON_CORE, "core": 1},
        {"P": ON_CORE, "Q": ON_CORE, "core": 1.7},
        {"P": ON_CORE, "Q": ON_CORE, "core": True},
        HUGE_CORE,
    ],
)
def test_reverse_rejects_malformed_payload(capsys, monkeypatch, payload):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(payload if isinstance(payload, str) else json.dumps(payload)))
    code, _, err = run_cli(capsys, "reverse")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def _without(domino, key):
    return {k: v for k, v in domino.items() if k != key}


VALID = {"core": [], "dominoes": [ONE]}
# a tableau with one field missing or malformed, and the message without the tableau's name
BROKEN_TABLEAUX = [
    ({}, "a tableau has no 'core' field"),
    ({"core": []}, "a tableau has no 'dominoes' field"),
    *(({"core": [], "dominoes": [_without(ONE, key)]}, f"a domino has no {key!r} field")
      for key in ("value", "row", "col", "orient")),
    ({"core": [], "dominoes": [{**ONE, "row": 1.5}]}, "row must be an integer, got 1.5"),
    # a JSON value of the wrong type, named with what belongs there
    (5, "a tableau must be a JSON object, got 5"),
    ({"core": [], "dominoes": [5]}, "a domino must be a JSON object, got 5"),
    ({"core": [], "dominoes": 5}, "dominoes must be a JSON array, got 5"),
    ({"core": 5, "dominoes": []}, "core must be a JSON array, got 5"),
]
WRONG_TYPES = 7  # BROKEN_TABLEAUX[WRONG_TYPES:] are the wrong-type cases


@pytest.mark.parametrize(
    "payload, message",
    [
        ({}, "the reverse input object has no 'P' field"),
        ({"P": {"core": [], "dominoes": []}}, "the reverse input object has no 'Q' field"),
        # the next six ids predate the "P: " that names the tableau
        pytest.param({"P": {}, "Q": {}}, "P: a tableau has no 'core' field",
                     id="payload2-a tableau has no 'core' field"),
        pytest.param({"P": {"core": []}, "Q": {"core": []}}, "P: a tableau has no 'dominoes' field",
                     id="payload3-a tableau has no 'dominoes' field"),
        *(
            pytest.param({"P": broken, "Q": VALID}, f"P: {message}", id=f"payload{i}-{message}")
            for i, (broken, message) in enumerate(BROKEN_TABLEAUX[2:6], start=4)
        ),
        *(({"P": VALID, "Q": broken}, f"Q: {message}") for broken, message in BROKEN_TABLEAUX[:WRONG_TYPES]),
        ({"P": BROKEN_TABLEAUX[WRONG_TYPES - 1][0], "Q": VALID}, f"P: {BROKEN_TABLEAUX[WRONG_TYPES - 1][1]}"),
        *(({"P": broken, "Q": VALID}, f"P: {message}") for broken, message in BROKEN_TABLEAUX[WRONG_TYPES:]),
        *(({"P": VALID, "Q": broken}, f"Q: {message}") for broken, message in BROKEN_TABLEAUX[WRONG_TYPES:]),
    ],
)
def test_reverse_names_a_missing_field(capsys, monkeypatch, payload, message):
    # one line that names the tableau, a missing or malformed field and what should hold it, not a bare KeyError
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, "reverse")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_reverse_names_an_integer_past_the_digit_limit(capsys, monkeypatch):
    # int()'s own message names no field and points at the interpreter's setting
    monkeypatch.setattr("sys.stdin", io.StringIO(HUGE_CORE))
    limit = sys.get_int_max_str_digits()
    message = f"error: the reverse input takes integers of at most {limit} digits, got one of 5000 characters\n"
    assert run_cli(capsys, "reverse") == (2, "", message)


def test_reverse_rejects_a_payload_nested_too_deeply(capsys, tmp_path):
    # the JSON reader recurses once per level, past the interpreter's limit here
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "reverse", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: reverse input is nested too deeply to read as JSON\n"


def test_reverse_rejects_a_core_mismatch(capsys, monkeypatch):
    # P over core 1 and Q over core 0 (each a valid tableau) exit 2 with one line
    payload = {"P": ON_CORE, "Q": {"core": [], "dominoes": [ONE]}, "core": 1}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, "reverse")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_reverse_rejects_a_valid_pair_over_another_core(capsys, monkeypatch):
    for core, expected in ((1, 0), (0, 2)):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"P": ON_CORE, "Q": ON_CORE, "core": core})))
        code, out, err = run_cli(capsys, "reverse")
        assert code == expected
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_reverse_reads_the_core_off_p(capsys, monkeypatch):
    # a payload without its core key reverses over P's core, which the output names
    rng = random.Random(25)
    for core in range(4):
        text = " ".join(f"{v}'" if rng.random() < 0.5 else str(v) for v in rng.sample(range(1, 9), 8))
        code, out, _ = run_cli(capsys, "insert", text, "--core", str(core), "--format", "json")
        payload = json.loads(out)
        del payload["core"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run_cli(capsys, "reverse", "--format", "json")
        assert code == 0 and json.loads(out) == {"word": text, "core": core}


@pytest.mark.parametrize("given", [0, 2, 10**9, -1])
def test_reverse_rejects_a_payload_core_other_than_p(capsys, monkeypatch, given):
    # nothing is built from the payload's core, so a huge one costs nothing
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"P": ON_CORE, "Q": ON_CORE, "core": given})))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "reverse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and peak < 1_000_000
    assert err == f"error: core must be P's core order 1 or left out, got {given}\n"


def test_reverse_takes_no_core_flag(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SMALL_PAYLOAD))
    code, out, err = run_cli(capsys, "reverse", "--core", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_reverse_rejects_a_column_semistandard_recording(capsys, monkeypatch):
    # P is semistandard; Q holds one value down a column, so only its conjugate is
    vertical = [{**ONE, "row": row, "orient": "v"} for row in (1, 3)]
    p = {"core": [], "dominoes": [vertical[0], {**vertical[1], "value": 2}]}
    q = {"core": [], "dominoes": vertical}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"P": p, "Q": q})))
    code, out, err = run_cli(capsys, "reverse")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


GOLDEN_WORD = "5' 12 3 9' 1 11' 7 2' 10 4' 8 6'"

# the arguments after the command, by the last item of a GOLDEN_DIGESTS key
GOLDEN_ARGUMENTS = {
    "--format": [GOLDEN_WORD, "--format", "json"],
    "--cells": [GOLDEN_WORD, "--cells"],
    "--trace": [GOLDEN_WORD, "--trace", "--format", "json"],
    "ascii-trace": [GOLDEN_WORD, "--trace"],
    "biword": ["1/2' 1/3 2/4 3/1' 3/1'"],
    "sdt": ["sdt", "4,4"],
    "expand": ["expand", "--vars", "2", "--degree", "4"],
    "expand-json": ["expand", "--vars", "2", "--degree", "4", "--format", "json"],
    "g-function": ["expand", "--g-function", "3,1,1", "--format", "json"],
    "params": ["expand", "--vars", "2", "--degree", "4", "--params", "a=0,b=1,c=1,s=1"],
}

# sha256 of each output, so that a speed change cannot alter a byte unnoticed
GOLDEN_DIGESTS = {
    (0, "growth", "--format"): "764ae242b9df0f56d8319ee6b1d7acbd004be0cacb35e1f844eae7376f95945f",
    (0, "growth", "--cells"): "d2321dbf56522041aea355302b9ccb5cf5546fa04854904755f3b7e25cc8c242",
    (0, "insert", "--trace"): "211bd5d96bd96c34b69a32cdec6c4bb8092336026ba1bb7b41a0f143461f6a73",
    (1, "growth", "--format"): "35038facca05184ba21a16c1d633db1b3d3ffbc564a77c5eb329dddd4c26aad8",
    (1, "growth", "--cells"): "b63fe5590af36b67155d9b2a408b14dcacb0bda0f10aa2605fdcc6228d211346",
    (1, "insert", "--trace"): "5d95bcaa44d76ca75c15e21354b8b33bd27318fc7d4f323ea2b43f37576c3f66",
    (2, "growth", "--format"): "c7612733cf7b5f60f7bf1e1ba5374df626278c37960588672fc8d9af9bd5d82e",
    (2, "growth", "--cells"): "d872242c0aa80f04ab813c5a59b67ca9aba1cc7d3f79383a467e068493085999",
    (2, "insert", "--trace"): "82a2737b2a71ab7eb4012ac5444a8fb1d9cbae5c812fe8191f276416d27f4bca",
    (0, "insert", "ascii-trace"): "5a6135f2d8cd514aba2da19503dfa51a5331e08f0aaaa8ad51a90498e43f6a9e",
    (1, "insert", "ascii-trace"): "e789554d4a9b19f13958951349507294c2bcad91c26a2b654c9776b5b919b031",
    (2, "insert", "ascii-trace"): "6fb51f1330fe4c18a2905fdc61e57d935a688ba6e107b4aa557d20305b6ef036",
    (0, "insert", "biword"): "8907cdbba4fb7f59a632a5de3a86d9fce8ab0910a7222e2fdc95076f75733ac0",
    (0, "enumerate", "sdt"): "8d8a0c55e3e5888c9274ae1b05c2d29e3e32b4c6c0f7f4784f1639e262305bce",
    # series expand prints monomial_str and the coefficients of the series' terms
    (0, "series", "expand"): "225db1b4005e6f2e5706bfc64be791c3cf478cc68150ce77d9ee9b03c8542d8d",
    (1, "series", "expand"): "225db1b4005e6f2e5706bfc64be791c3cf478cc68150ce77d9ee9b03c8542d8d",
    (0, "series", "expand-json"): "ababcc30180ead3ca34dc17f772fa5fdc7930658f398ac039aa2b93b55745bce",
    (0, "series", "g-function"): "9346ce1883b9c381939d69e98068fdbf3abbc8566c9492760b0ccb0b22228ba9",
    (0, "series", "params"): "01e948af155d9363bb6450d96ae050bcc5aef59f90a1c2eddfb489d5a77ffbaf",
}


@pytest.mark.parametrize("core, command, flag", sorted(GOLDEN_DIGESTS))
def test_output_bytes_are_unchanged(capsys, core, command, flag):
    # a domino function's or a tableau's core is its shape's, so those cases take no --core
    core_flag = () if flag in ("g-function", "sdt") else ("--core", str(core))
    code, out, _ = run_cli(capsys, command, *GOLDEN_ARGUMENTS[flag], *core_flag)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[core, command, flag]


def test_reverse_reads_sparse_values_without_a_dense_weight(capsys, monkeypatch):
    payload = {
        "P": {"core": [], "dominoes": [{**ONE, "value": 10**6}]},
        "Q": {"core": [], "dominoes": [ONE]},
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "reverse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.strip() == "1/1000000"
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv, count",
    [
        (["verify", "insertion", "--n", "7"], "645,120"),
        (["verify", "all", "--n", "8", "--cores", "1"], "10,321,920"),
        (["verify", "insertion", "--n", "6"], None),
        (["verify", "counting", "--n", "7"], None),
    ],
)
def test_verify_names_the_size_of_a_long_run(capsys, monkeypatch, argv, count):
    # run_suite is a stub, so no large run starts
    monkeypatch.setattr("dominsert.verify.run_suite", lambda *args, **kwargs: [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == "0/0 checks passed\n"
    n = argv[argv.index("--n") + 1]
    note = f"note: the insertion suite checks 2^n*n! = {count} signed permutations per core at n = {n}\n"
    assert err == (note if count else "")

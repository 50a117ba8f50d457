"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
141 when the reader of stdout closes it early.
Bars are written as a trailing apostrophe (3') or a leading minus (-3) on
input and rendered with the apostrophe on output.  All output is ASCII or
JSON; every command is deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import insertion, series, signimbalance, tableaux, verify, words
from .partitions import as_partition, enumerate_partitions, enumerate_with_core, partition_str
from .polynomials import PARAMS
from .render import render_tableau
from .words import ColoredBiword


def _int_flag(text):
    """``type`` of every integer flag; argparse names the flag before the message."""
    try:
        return words.parse_int(text, "the flag")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_shape(text, name):
    if text.strip() in ("", "()", "-"):  # int() reads each part past its spaces
        return ()
    return as_partition(words.parse_int(p, name) for p in text.replace("(", "").replace(")", "").split(","))


MAX_CORE = 1000  # a core is built as its whole staircase, so its order is bounded


def _core_order(value):
    if value > MAX_CORE:
        raise ValueError(f"core order must be at most {MAX_CORE}, got {value}")
    return value


def _insert_payload(word, core, trace):
    """Source text, P, Q and, if traced, the insertion tableau per letter."""
    if isinstance(word, ColoredBiword):
        p, q = insertion.biword_insert(word, core)
        return str(word), p, q, None
    result = insertion.insert_word(word, core)
    frames = insertion.insert_frames(word, core) if trace else None
    return words.word_str(word), result.p, result.q, frames


def cmd_insert(args):
    parsed = words.parse_biword(args.word)
    if "/" not in args.word and words.is_signed_permutation(parsed.bottom):
        word = parsed.bottom
    else:
        word = parsed
    source, p, q, frames = _insert_payload(word, args.core, args.trace)
    if args.format == "json":
        payload = {
            "word": source,
            "core": args.core,
            "shape": list(p.shape()),
            "tc": words.total_color(word),
            "spin_p": str(p.spin()),
            "spin_q": str(q.spin()),
            "P": p.to_json(),
            "Q": q.to_json(),
        }
        if frames is not None:
            payload["frames"] = [f.to_json() for f in frames]
        print(json.dumps(payload, indent=2))
        return 0
    if args.trace:
        if frames is None:
            print("(trace is available for signed permutations only)", file=sys.stderr)
        else:
            for i, frame in enumerate(frames, start=1):
                print(f"after step {i}:")
                print(render_tableau(frame))
                print()
    print(f"word: {source}   core: {args.core}")
    print(f"shape: {partition_str(p.shape())}   tc: {words.total_color(word)}"
          f"   sp(P): {p.spin()}   sp(Q): {q.spin()}")
    print("P:")
    print(render_tableau(p))
    print("Q:")
    print(render_tableau(q))
    return 0


def cmd_growth(args):
    word = words.parse_word(args.word)
    diagram = insertion.growth(word, args.core)
    if args.format == "json":
        print(json.dumps(diagram.to_json(), indent=2))
        return 0
    print(insertion.growth_str(diagram, cells=args.cells))
    return 0


def _read_tableau(data, name):
    """``DominoTableau.from_json``, naming the tableau in its error."""
    try:
        return tableaux.DominoTableau.from_json(data)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def cmd_reverse(args):
    parse_int = partial(words.parse_int, name="the reverse input")  # the JSON reader hands int() digits only
    try:
        if args.input:
            with open(args.input) as handle:
                payload = json.load(handle, parse_int=parse_int)
        else:
            payload = json.load(sys.stdin, parse_int=parse_int)
    except RecursionError:
        raise ValueError("reverse input is nested too deeply to read as JSON") from None
    if not isinstance(payload, dict):
        raise ValueError("reverse expects a JSON object with P and Q")
    for key in ("P", "Q"):
        if key not in payload:
            raise ValueError(f"the reverse input object has no {key!r} field")
    p, q = (_read_tableau(payload[key], key) for key in ("P", "Q"))
    core, given = len(p.core), payload.get("core")  # a tableau's core is a staircase, so its length is its order
    if "core" in payload and (type(given) is not int or given != core):
        raise ValueError(f"core must be P's core order {core} or left out, got {given!r}")
    word = insertion.biword_reverse(p, q)
    standard = all(bl.top.value == i for i, bl in enumerate(word.letters, start=1))
    text = words.word_str(word.bottom) if standard and words.is_signed_permutation(word.bottom) else str(word)
    print(json.dumps({"word": text, "core": core}) if args.format == "json" else text)
    return 0


def cmd_imbalance(args):
    if args.all_of is not None:
        if args.shape:
            raise ValueError("a shape and --all-of cannot be combined")
        m = args.all_of
        poly = signimbalance.imbalance_polynomial(m)
        target = signimbalance.imbalance_target(m)
        if args.format == "json":
            print(json.dumps({"m": m, "polynomial": str(poly), "target": str(target),
                              "equal": poly == target}))
        else:
            print(f"sum over shapes of {m}: {poly}")
            print(f"(x + y)^{m // 2}:  {target}")
            print("equal" if poly == target else "DIFFERENT")
        return 0 if poly == target else 1
    lam = _parse_shape(args.shape, "shape")
    value = signimbalance.imbalance(lam)
    print(json.dumps({"shape": list(lam), "imbalance": value}) if args.format == "json" else value)
    return 0


def cmd_series(args):
    params = {}
    for piece in args.params.split(",") if args.params else ():
        name, _, value = (text.strip() for text in piece.partition("="))
        if name not in PARAMS or not value.removeprefix("-").isdecimal():  # the digits int() reads
            raise ValueError(f"--params takes name=integer pieces, names among a, b, c, s; got {piece!r}")
        if name in params:
            raise ValueError(f"--params sets {name} twice; got {piece!r} after {name}={params[name]}")
        params[name] = words.parse_int(value, "--params")
    flags = {"--g-function": args.g_function, "--schur": args.schur, "--core": args.core}
    given = [flag for flag, value in flags.items() if value is not None]
    if len(given) > 1:  # a domino function's core is its shape's
        raise ValueError(f"{given[0]} and {given[1]} cannot be combined")
    if args.g_function is not None:  # "" is the empty shape
        value = series.domino_function(_parse_shape(args.g_function, "--g-function"), args.vars, args.degree)
    elif args.schur is not None:
        value = series.schur(_parse_shape(args.schur, "--schur"), args.vars, args.degree)
    else:
        value = series.weighted_domino_sum(args.core or 0, args.vars, args.degree)
    value = value.subs(params)
    if args.format == "json":
        print(json.dumps({"terms": {value.monomial_str(e): str(c) for e, c in sorted(value.terms.items())}}))
    else:
        print(value)
    return 0


def cmd_enumerate(args):
    reads = {"shapes": ("--n", "--core"), "partitions": ("--n",), "involutions": ("--n",),
             "sdt": ("shape",), "ssdt": ("shape", "--max-value")}[args.what]
    given = {"shape": args.shape, "--n": args.n, "--core": args.core, "--max-value": args.max_value}
    for flag, value in given.items():  # a tableau's core is its shape's
        if value is not None and flag not in reads:
            raise ValueError(f"enumerate {args.what} reads no {flag}; it reads {' and '.join(reads)}")
    n, max_value = args.n or 0, 2 if args.max_value is None else args.max_value
    if args.what in ("sdt", "ssdt"):
        lam = _parse_shape(args.shape or "", "shape")
        if args.what == "sdt":
            tabs, title = tableaux.enumerate_standard(lam), f"standard tableaux of {partition_str(lam)}"
        else:
            tabs = tableaux.enumerate_semistandard(lam, max_value)
            title = f"semistandard tableaux of {partition_str(lam)} with entries <= {max_value}"
        if args.format == "json":
            print(json.dumps([t.to_json() for t in tabs]))
        else:
            print(f"{len(tabs)} {title}")
            for t in tabs:
                print(render_tableau(t))
                print()
        return 0
    if args.what == "involutions":
        items, show, as_json = words.enumerate_involutions(n), words.word_str, words.word_str
    else:
        items = enumerate_with_core(args.core or 0, n) if args.what == "shapes" else enumerate_partitions(n)
        show, as_json = partition_str, list
    if args.format == "json":
        print(json.dumps([as_json(item) for item in items]))
    else:
        for item in items:
            print(show(item))
    return 0


def _emit_records(records, fmt):
    failures = sum(not rec["pass"] for rec in records)
    if fmt == "json":
        for rec in records:
            print(json.dumps(rec))
    else:
        for rec in records:
            status = "pass" if rec["pass"] else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(rec["params"].items()))
            print(f"[{status}] {rec['identity']} {params} ({rec['ms']} ms)")
            if not rec["pass"]:
                print(f"    lhs: {rec['lhs'][:400]}")
                print(f"    rhs: {rec['rhs'][:400]}")
        print(f"{len(records) - failures}/{len(records)} checks passed")
    return 1 if failures else 0


def cmd_verify(args):
    # only the sizes given on the command line; the suites own the defaults
    sizes = {name: getattr(args, name) for name in verify.SIZE_NAMES if getattr(args, name) is not None}
    if "cores" in sizes:
        cores = sizes["cores"].split(",")
        if not all(c.strip().removeprefix("-").isdecimal() for c in cores):  # the digits int() reads
            raise ValueError(f"--cores takes comma-separated integers, got {sizes['cores']!r}")
        sizes["cores"] = tuple(_core_order(words.parse_int(c, "--cores")) for c in cores)
    if args.suite in ("insertion", "all") and (n := sizes.get("n", 0)) >= 7:
        print(f"note: the insertion suite checks 2^n*n! = {2 ** n * math.factorial(n):,} signed permutations"
              f" per core at n = {n}", file=sys.stderr)
    records = verify.run_suite(args.suite, sizes, jobs=args.jobs)
    return _emit_records(records, args.format)


class _Parser(argparse.ArgumentParser):
    """argparse with the one-line ``error:`` of every other usage error; the
    subcommand parsers inherit the class, and ``--help`` is unchanged."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="dominsert",
        description="Exact domino Schensted insertion, growth rules, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags several commands share, each declared once
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("ascii", "json"), default="ascii")
    core = argparse.ArgumentParser(add_help=False)
    core.add_argument("--core", type=_int_flag, default=0, help="staircase order of the 2-core")

    p_insert = sub.add_parser("insert", parents=[core, fmt], help="insert a signed word or biword")
    p_insert.add_argument("word", help="letters like \"3' 4 2 1'\" or pairs like \"1/2' 1/3\"")
    p_insert.add_argument("--trace", action="store_true", help="print the tableau after each step")
    p_insert.set_defaults(func=cmd_insert)

    p_growth = sub.add_parser("growth", parents=[core, fmt], help="print the growth diagram of a signed permutation")
    p_growth.add_argument("word")
    p_growth.add_argument("--cells", action="store_true", help="draw shapes as miniature diagrams")
    p_growth.set_defaults(func=cmd_growth)

    p_reverse = sub.add_parser("reverse", parents=[fmt], help="recover the word from a JSON (P, Q) pair")
    p_reverse.add_argument("--input", help="JSON file; standard input when omitted")
    p_reverse.set_defaults(func=cmd_reverse)

    p_imb = sub.add_parser("imbalance", parents=[fmt], help="signed count of standard Young tableaux")
    p_imb.add_argument("shape", nargs="?", default="", help="shape like 3,3,2")
    p_imb.add_argument("--all-of", type=_int_flag, metavar="M",
                       help="four-variable polynomial over all shapes of M")
    p_imb.set_defaults(func=cmd_imbalance)

    p_series = sub.add_parser("series", parents=[fmt], help="expand a truncated series")
    p_series.add_argument("action", choices=("expand",))
    p_series.add_argument("--core", type=_int_flag, help="staircase order of the 2-core of the weighted sum (default 0)")
    p_series.add_argument("--vars", type=_int_flag, default=2)
    p_series.add_argument("--degree", type=_int_flag, default=3)
    p_series.add_argument("--g-function", metavar="SHAPE", help="expand one domino function")
    p_series.add_argument("--schur", metavar="SHAPE", help="expand one Schur polynomial")
    p_series.add_argument("--params", help="substitutions like a=0,b=1,c=1,s=1")
    p_series.set_defaults(func=cmd_series)

    p_enum = sub.add_parser("enumerate", parents=[fmt], help="list shapes, tableaux, or involutions")
    p_enum.add_argument("what", choices=("shapes", "partitions", "sdt", "ssdt", "involutions"))
    p_enum.add_argument("shape", nargs="?", help="shape for sdt/ssdt")
    p_enum.add_argument("--n", type=_int_flag, help="dominoes (shapes) or size (partitions, involutions); default 0")
    p_enum.add_argument("--core", type=_int_flag, help="staircase order of the 2-core of shapes; default 0")
    p_enum.add_argument("--max-value", type=_int_flag, help="largest entry of ssdt; default 2")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", parents=[fmt], help="run a verification suite")
    p_verify.add_argument("suite", choices=verify.SUITES + ("all",))
    for name in verify.SIZE_NAMES:  # "cores" takes comma-separated core orders
        defaults = ", ".join(f"{suite} {sizes[name]}" for suite, sizes in verify.SUITE_SIZES.items() if name in sizes)
        p_verify.add_argument("--" + name.replace("_", "-"), type=None if name == "cores" else _int_flag, help=defaults)
    p_verify.add_argument("--jobs", type=_int_flag, default=1, help="worker processes")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _core_order(getattr(args, "core", None) or 0)
        return args.func(args)
    except BrokenPipeError:  # the reader left: the exit flush goes nowhere, the status is SIGPIPE's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The shared skeleton of the verify checks: failures surface, records stay fixed."""

import ast
import concurrent.futures
import hashlib
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import dominsert
from dominsert import insertion, involutions, polynomials, series, signimbalance, tableaux, verify, words
from dominsert.cli import main
from support import SUITE_READS, TINY_SIZES

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    return _load_perfbench("workloads")


def test_records_match_the_reference_digests():
    # every record at default sizes, ms dropped, against perfbench/expected.json
    workloads = _load_workloads()
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["records"]["verify-all"]
    got = {
        workloads.record_key(*instance): workloads.record_digest(verify.run_instance(instance))
        for _, instance in workloads.verify_instances(verify)
    }
    assert got == expected


def test_counting_records_past_the_defaults_match_their_digest(capsys):
    # the spin and involution polynomial strings up to n = 8 dominoes, ms dropped
    assert main(["verify", "counting", "--n", "7", "--poly-n", "8", "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    text = "\n".join(json.dumps({k: v for k, v in r.items() if k != "ms"}, sort_keys=True) for r in records)
    assert len(records) == 49
    assert hashlib.sha256(text.encode()).hexdigest() == "e17f4cd6848f7f340b3c730fab29d7e0ff701a6c13c4e4f6947277db13e81749"


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("semistandard", "c3c4b6bbb804fdf1f0cfbe631a84df33fc010412957af7d45d7a1bb1a911acfc"),
        ("dual", "b9ea16fd117dc736f40a26a3ce65b35963bb840a1f7063e732f388e011d97927"),
    ],
)
def test_biword_records_past_the_defaults_match_their_digest(capsys, suite, digest):
    # biwords of length 5, ms dropped: both suites compare standardized copies, and semistandard runs biword_reverse
    assert main(["verify", suite, "--length", "5", "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    text = "\n".join(json.dumps({k: v for k, v in r.items() if k != "ms"}, sort_keys=True) for r in records)
    assert len(records) == 12
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _run_roundtrip_workload(seed):
    # the benchmark's roundtrip-n200 ops (3 words of size 200) against perfbench/expected.json
    workload = _load_workloads().WORKLOADS["roundtrip-n200"]
    workload.build(dominsert, seed, json.loads((ROOT / "perfbench" / "expected.json").read_text()))
    ops = workload.one_pass()
    assert len(ops) == 3 and len(workload.digests) == 3
    for op in ops:
        assert op.check(op.call()), op.label


def test_roundtrip_workload_passes_at_seed_1():
    _run_roundtrip_workload(1)


def test_roundtrip_workload_passes_at_held_out_seed_2():
    # seed 2 has digests in expected.json but is not the benchmark's default seed
    _run_roundtrip_workload(2)


def test_traced_names_resolve():
    # every function the benchmark's tracer wraps or counts exists where it looks
    spans = _load_perfbench("spans")
    for module_name, path, *_ in spans.SPANS + spans.COUNTERS:
        owner = importlib.import_module(f"dominsert.{module_name}")
        if "." in path:
            cls_name, method = path.split(".")
            assert callable(vars(getattr(owner, cls_name))[method]), path
        else:
            assert callable(getattr(owner, path)), path


# every library name perfbench/workloads.py reaches, as (module, dotted path)
WORKLOAD_NAMES = (
    ("verify", "SUITES"),
    ("verify", "suite_instances"),
    ("verify", "run_instance"),
    ("insertion", "insert_word"),
    ("insertion", "growth"),
    ("insertion", "growth_reverse_word"),
    ("insertion", "GrowthDiagram.p_tableau"),
    ("insertion", "GrowthDiagram.q_tableau"),
    ("words", "Letter"),
    ("tableaux", "DominoTableau.to_json"),
)


def test_workload_names_resolve():
    # the benchmark calls these by name, so a deletion that breaks it fails here
    for module_name, path in WORKLOAD_NAMES:
        owner = importlib.import_module(f"dominsert.{module_name}")
        for name in path.split("."):
            owner = getattr(owner, name)
        assert owner == verify.SUITES or callable(owner), path
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    assert all(path.split(".")[-1] in source for _, path in WORKLOAD_NAMES)


def test_the_tracer_installs_and_restores_every_name():
    # perfbench/run.py --trace 1 patches each traced name where its module
    # holds it, and puts every module and class attribute back afterwards
    spans = _load_perfbench("spans")
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "dominsert"]
    owners += [tableaux.DominoTableau, series.TruncatedSeries, polynomials.MPoly]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    with tracer.installed():
        assert insertion.growth is not before[owners.index(insertion)]["growth"]
        insertion.growth(words.parse_word("2 1'"), 1)
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracer.summary()["insertion.growth"]["calls"] == 1


def _assert_fails(record, cases):
    assert record["pass"] is False
    assert record["rhs"] == f"0 violations in {cases} cases"
    found = int(record["lhs"].split()[0])
    assert found > 0 and record["lhs"].startswith(f"{found} violations in {cases} cases: ")


def test_exhaustive_checks_report_a_wrong_library(monkeypatch):
    cases = 2**3 * 6
    for check in ("check_standard_bijection", "check_oracle_equivalence", "check_inverse_symmetry"):
        assert verify.run_instance((check, {"n": 3, "core": 1}))["pass"]

    real_reverse = insertion.growth_reverse_word
    monkeypatch.setattr(insertion, "growth_reverse_word", lambda p, q: real_reverse(p, q)[::-1])
    _assert_fails(verify.check_standard_bijection(3, 1), cases)

    real_growth = insertion.growth
    monkeypatch.setattr(insertion, "growth", lambda word, core: real_growth(word[::-1], core))
    _assert_fails(verify.check_oracle_equivalence(3, 1), cases)

    monkeypatch.setattr(words, "group_inverse", lambda pi: pi)
    _assert_fails(verify.check_inverse_symmetry(3, 1), cases)


def test_a_fault_inside_a_case_fails_its_record(monkeypatch, capsys):
    # a ValueError is one violation that names the word, not an abort of the run
    planted = (words.Letter(2, True), words.Letter(1))
    real_reverse = insertion.growth_reverse_word

    def faulty(p, q):
        word = real_reverse(p, q)
        if word == planted:
            raise ValueError("planted fault")
        return word

    monkeypatch.setattr(insertion, "growth_reverse_word", faulty)
    record = verify.check_standard_bijection(2, 0)
    _assert_fails(record, 2**2 * 2)
    assert "(\"2' 1\", 'planted fault')" in record["lhs"]
    assert main(["verify", "insertion", "--n", "2"]) == 1
    assert "planted fault" in capsys.readouterr().out


def test_an_insertion_fault_fails_its_record(monkeypatch):
    # a step that raises under a prefix of the walk is one violation per word
    # below it, named by the word, with the message insert_word raises
    real_step = insertion._RowIndex.insert

    def faulty(index, letter):
        if len(index.entries) == 1:
            raise ValueError("planted fault")
        return real_step(index, letter)

    monkeypatch.setattr(insertion._RowIndex, "insert", faulty)
    for check in ("check_standard_bijection", "check_ascent_lemmas"):
        _assert_fails(verify.run_instance((check, {"n": 2, "core": 1})), 2**2 * 2)
    record = verify.check_ascent_lemmas(2, 1)
    assert record["lhs"].startswith("8 violations in 8 cases: [(\"2' 1'\", 'planted fault'), ")


# one fault per check with per-case claims: (check, params, (owner, name, fault), violations, first violation);
# every false claim of a case is one violation, and a word is named by its letters
PLANTED_FAULTS = [
    ("check_standard_bijection", {"n": 3, "core": 1},
     (insertion, "growth_reverse_word", lambda p, q, real=insertion.growth_reverse_word: real(p, q)[::-1]),
     48, ("3' 2' 1'", "reverse")),
    ("check_oracle_equivalence", {"n": 3, "core": 1},
     (insertion, "growth", lambda word, core, real=insertion.growth: real(word[::-1], core)),
     48, ("3' 2' 1'", "growth")),
    ("check_color_to_spin", {"n": 3, "core": 1},
     (words, "total_color", lambda w, real=words.total_color: real(w) + 1), 48, ("3' 2' 1'", "color-spin")),
    # several claims of one case fail: 3' 1' 2' breaks both of its P ascents
    ("check_ascent_lemmas", {"n": 3, "core": 1}, (words, "group_inverse", lambda pi: pi),
     40, ("3' 2' 1", "P-ascent-1")),
    ("check_semistandard", {"length": 2, "core": 0},
     (words, "total_color", lambda w, real=words.total_color: real(w) + 1), 36, ("1/1 1/1", "color-spin")),
    ("check_dual", {"length": 2, "core": 0},
     (words, "total_color", lambda w, real=words.total_color: real(w) + 1), 56, ("1/1 1/1'", "alpha-spin")),
    ("check_involution_statistics", {"n": 3, "core": 0},
     (involutions, "tableau_sign", lambda tab, real=tableaux.tableau_sign: -real(tab)),
     20, ("3' 2' 1'", "insertion sign")),
    ("check_split_sign_formula", {"max_size": 4},
     (tableaux, "tableau_sign", lambda tab, real=tableaux.tableau_sign: -real(tab)), 11, ("[core (1) | ]", "sign")),
    ("check_imbalance_via_dominoes", {"max_size": 4},
     (signimbalance, "domino_sign_sums", lambda lams, real=signimbalance.domino_sign_sums: [v + 1 for v in real(lams)]),
     10, ("(1,)", "imbalance")),
    # every tableau is fixed: 4 are no domino tableau's, and 2 shapes have too many fixed points in the closing
    ("check_pairing_involution", {"max_size": 4}, (signimbalance, "pairing_involution", lambda t: t),
     6, ("((1, 3), (2,), (4,))", "fixed-point-is-domino")),
    ("check_insertion_sign", {"n": 3, "core": 0},
     (involutions, "tableau_sign", lambda tab, real=tableaux.tableau_sign: -real(tab)), 20, ("3' 2' 1'", "sign")),
    ("check_bar_toggle", {"n": 3, "core": 0}, (involutions, "tableau_sign", lambda tab: 1),
     12, ("3' 2' 1'", "sign-reversing")),
    ("check_vertical_parity_difference", {"max_dominoes": 2, "core": 0},
     (tableaux.DominoTableau, "odd_vertical", lambda tab, real=tableaux.DominoTableau.odd_vertical: real(tab) + 1),
     9, ("[core () | ]", "parity-difference")),
    ("check_max_spin_split", {"max_dominoes": 1, "core": 0},
     (tableaux, "enumerate_standard", lambda lam, real=tableaux.enumerate_standard: real(lam) + real((1, 1))),
     2, ("()", "integer-cospin")),
]


@pytest.mark.parametrize("check, params, fault, count, first", PLANTED_FAULTS, ids=[f[0] for f in PLANTED_FAULTS])
def test_a_planted_fault_names_its_case_and_claim(monkeypatch, check, params, fault, count, first):
    assert verify.run_instance((check, params))["pass"]
    monkeypatch.setattr(*fault)
    record = verify.run_instance((check, params))
    assert record["pass"] is False
    head, listed = record["lhs"].split(": ", 1)
    assert int(head.split()[0]) == count
    assert ast.literal_eval(listed)[0] == first


# one fault per closing: (check, params, (owner, name, fault), first violation); a closing names its case as
# the cases do, so its violations are (case, claim) pairs too
CLOSING_FAULTS = [
    ("check_standard_bijection", {"n": 2, "core": 0},
     (involutions, "standard_tableau_count", lambda lam, real=involutions.standard_tableau_count: real(lam) + 1),
     ("[8] != 25", "image sizes")),
    ("check_inverse_symmetry", {"n": 2, "core": 1}, (words, "group_inverse", lambda pi: pi),
     ("2' 1", "inverse-symmetry")),
    ("check_semistandard", {"length": 2, "core": 0}, (words, "invert_colored", lambda w: w), ("1/1 1/2", "inverse")),
    ("check_dual", {"length": 2, "core": 0}, (words, "invert_dual", lambda w: w),
     ("1/1 1/1'", "alpha-beta-duality")),
    # every shape's image set gains the tableau of (2,), so every other shape has too few fixed points
    ("check_pairing_involution", {"max_size": 4},
     (tableaux, "enumerate_standard", lambda lam, real=tableaux.enumerate_standard: real(lam) + real((2,))),
     ("(1,)", "fixed-point-count")),
]


@pytest.mark.parametrize("check, params, fault, first", CLOSING_FAULTS, ids=[f[0] for f in CLOSING_FAULTS])
def test_a_planted_closing_fault_names_its_case_and_claim(monkeypatch, check, params, fault, first):
    assert verify.run_instance((check, params))["pass"]
    monkeypatch.setattr(*fault)
    record = verify.run_instance((check, params))
    assert record["pass"] is False
    listed = ast.literal_eval(record["lhs"].split(": ", 1)[1])
    assert all(isinstance(case, str) and isinstance(claim, str) for case, claim in listed)
    assert listed[0] == first


def test_closing_comparison_reports_a_wrong_image_size(monkeypatch):
    real_count = involutions.standard_tableau_count
    monkeypatch.setattr(involutions, "standard_tableau_count", lambda lam: real_count(lam) + 1)
    record = verify.check_standard_bijection(2, 0)
    _assert_fails(record, 2**2 * 2)
    assert "image sizes" in record["lhs"]


def test_symmetry_claims_look_up_a_wrong_inverse(monkeypatch):
    # the inverse biword's pair is looked up in the closing check; a wrong one is a violation
    monkeypatch.setattr(words, "invert_colored", lambda w: w)
    _assert_fails(verify.check_semistandard(2, 0), 36)
    monkeypatch.setattr(words, "invert_dual", lambda w: w)  # a dual word, never a beta case
    record = verify.check_dual(2, 0)
    _assert_fails(record, 56)
    assert "alpha-beta-duality" in record["lhs"]


def test_max_spin_split_reports_a_non_integer_cospin(monkeypatch):
    # a vertical count of the wrong parity is a failed claim, not an exception
    real_enumerate = tableaux.enumerate_standard
    monkeypatch.setattr(tableaux, "enumerate_standard", lambda lam: real_enumerate(lam) + real_enumerate((1, 1)))
    _assert_fails(verify.check_max_spin_split(1, 0), 3)


def test_max_spin_split_enumerates_each_shape_once(monkeypatch):
    calls = Counter()
    real_enumerate = tableaux.enumerate_standard

    def counted(lam):
        calls[lam] += 1
        return real_enumerate(lam)

    monkeypatch.setattr(tableaux, "enumerate_standard", counted)
    assert verify.check_max_spin_split(4, 1)["pass"]
    assert calls and set(calls.values()) == {1}


def test_insertion_checks_insert_each_prefix_once(monkeypatch):
    # the 384 signed permutations of 4 have 8 + 48 + 192 + 384 prefixes;
    # word by word, each check would insert 4 * 384 = 1,536 letters
    calls = _count_calls(monkeypatch, (insertion._RowIndex, "insert"))
    assert verify.check_standard_bijection(4, 1)["pass"]
    assert calls["insert"] == 632


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (module, name) for the rest of a test."""
    calls = Counter()
    for module, name in targets:

        def counted(*args, _inner=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("suite", ["insertion", "sym", "sign", "counting"])
def test_signed_permutation_suites_build_no_biword(suite, monkeypatch):
    calls = _count_calls(monkeypatch, (words, "biword"))
    assert all(record["pass"] for record in verify.run_suite(suite))
    assert calls["biword"] == 0


@pytest.mark.parametrize(
    "suite, inserted, grown",
    [
        ("sym", 315, 0),  # once per involution of n <= 4 and core 0-2
        # at cores 0 and 1: 76 involutions of n = 4 for the sign, and the toggle reads each of its involutions
        # once: the 60 with a two-cycle and their 60 toggles are the same 60 words
        ("sign", 272, 0),
        # each biword is inserted once; its reverse inserts nothing and the inverse is looked up
        ("semistandard", 990, 990),
        ("dual", 372, 372),  # the standardization claim grows each of the 372 standardized words
        ("insertion", 0, 1326),  # insert_all walks the words; bumping-vs-growth grows each (word, core) once
    ],
)
def test_default_suite_insertion_counts(suite, inserted, grown, monkeypatch):
    targets = ((insertion, "insert_word"), (involutions, "insert_word"), (insertion, "growth"))
    calls = _count_calls(monkeypatch, *targets)
    assert all(record["pass"] for record in verify.run_suite(suite))
    assert (calls["insert_word"], calls["growth"]) == (inserted, grown)


def test_spin_ledger_is_checked_on_the_grown_diagram(monkeypatch):
    # the ledger is a claim of the record that grows the word; color-to-spin reads bumping's P and Q alone
    monkeypatch.setattr(insertion.GrowthDiagram, "spin_ledger_holds", lambda diagram: False)
    record = verify.check_oracle_equivalence(3, 1)
    assert record["pass"] is False
    head, listed = record["lhs"].split(": ", 1)
    assert int(head.split()[0]) == 48
    assert ast.literal_eval(listed)[0] == ("3' 2' 1'", "spin-ledger")
    assert verify.check_color_to_spin(3, 1)["pass"]


@pytest.mark.parametrize(
    "owner, name, check, args, distinct",
    [
        # the 60 involutions of 4 with a two-cycle, which are also the 60 toggled words
        (involutions, "involution_statistics", verify.check_bar_toggle, (4, 0), lambda record: 60),
        # every image is itself a case, so the distinct tableaux are the cases
        (signimbalance, "pairing_involution", verify.check_pairing_involution, (5,),
         lambda record: int(record["rhs"].split()[3])),
    ],
    ids=["bar-toggle", "pairing-involution"],
)
def test_a_record_memo_never_outlives_its_record(owner, name, check, args, distinct, monkeypatch):
    # each record reads each distinct value once, and a second record reads them all again
    for _ in range(2):
        calls = _count_calls(monkeypatch, (owner, name))
        record = check(*args)
        monkeypatch.undo()
        assert record["pass"]
        assert calls[name] == distinct(record) > 0


def test_run_suite_caps_its_workers(monkeypatch):
    # a stand-in pool records its size and runs in this process, so no large pool ever starts
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    sizes = {"n": 1, "cores": (0,)}  # five records
    serial = verify.run_suite("insertion", sizes)
    for cpus, jobs, pool in ((64, 10**9, 5), (3, 10**9, 3), (64, 2, 2), (None, 8, None), (64, 1, None)):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        started.clear()
        records = verify.run_suite("insertion", sizes, jobs=jobs)
        assert started == ([] if pool is None else [pool])
        assert [{**r, "ms": 0} for r in records] == [{**r, "ms": 0} for r in serial]
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            verify.run_suite("insertion", sizes, jobs=jobs)


@pytest.mark.parametrize("suite", ["semistandard", "dual"])
def test_biword_suites_run_at_the_given_cores(suite):
    records = verify.run_suite(suite, {"length": 1, "cores": (2,)})
    assert len(records) == 2  # lengths 0 and 1
    assert all(record["pass"] and record["params"]["core"] == 2 for record in records)


@pytest.mark.parametrize("suite", sorted(SUITE_READS) + ["all"])
def test_each_suite_accepts_exactly_the_sizes_it_reads(suite):
    # the oracle is the read sets written out in support, not the library's table
    assert set(verify.SUITES) == set(SUITE_READS)
    reads = set().union(*SUITE_READS.values()) if suite == "all" else SUITE_READS[suite]
    for key, value in {**TINY_SIZES, "nn": 1}.items():
        if key in reads:
            assert verify.suite_instances(suite, {key: value})
        else:
            message = f"^suite {suite} reads no size {key}; it reads {', '.join(sorted(reads))}$"
            with pytest.raises(ValueError, match=message):
                verify.suite_instances(suite, {key: value})
    assert verify.suite_instances(suite, {key: TINY_SIZES[key] for key in reads})


def test_the_sign_records_that_list_tableaux_stop_at_their_caps():
    # read off the instances, none of them run: the records that list tableaux stop at their caps,
    # and the recursions over shapes, imbalance-via-dominoes among them, run to the size asked for
    instances = verify.suite_instances("sign", {"max_size": 24})
    listed = {name: params["max_size"] for name, params in instances if "max_size" in params}
    assert listed == {"check_split_sign_formula": 16, "check_imbalance_via_dominoes": 24, "check_pairing_involution": 7}
    for name, key in (("check_imbalance_polynomial", "m"), ("check_imbalance_hooks", "m"), ("check_signed_total", "n")):
        assert [params[key] for check, params in instances if check == name] == list(range(1, 25))
    # at the default size 8 only the pairing involution's cap binds
    defaults = {name: params["max_size"] for name, params in verify.suite_instances("sign", {}) if "max_size" in params}
    assert defaults == {"check_split_sign_formula": 8, "check_imbalance_via_dominoes": 8, "check_pairing_involution": 7}

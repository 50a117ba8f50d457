"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact integer arithmetic; the sizes below are the
stated desk-scale bounds.
"""

import json
from fractions import Fraction
from pathlib import Path

from dominsert import verify
from dominsert.cli import main as cli_main
from dominsert.insertion import growth, insert_word, word_matrix
from dominsert.partitions import DominoShape
from dominsert.words import parse_word


def report(number, description, records):
    bad = [rec for rec in records if not rec["pass"]]
    status = "PASS" if not bad else "FAIL"
    print(f"{status} criterion {number}: {description} ({len(records)} checks)")
    assert not bad, bad[:2]


def test_criterion_01_figure_reproduction(capsys):
    word = parse_word("3' 4 2 1'")
    result = insert_word(word, 0)
    assert result.p.shape() == (3, 3, 2)
    assert result.p.entries == (
        (1, DominoShape(1, 1, "v")),
        (2, DominoShape(1, 2, "v")),
        (3, DominoShape(3, 1, "h")),
        (4, DominoShape(1, 3, "v")),
    )
    diagram = growth(word, 0)
    assert diagram.p.chain() == ((), (1, 1), (2, 2), (2, 2, 2), (3, 3, 2))
    assert diagram.q.chain() == ((), (1, 1), (3, 1), (3, 3), (3, 3, 2))
    code = cli_main(["insert", "3' 4 2 1'", "--core", "0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["shape"] == [3, 3, 2]
    with capsys.disabled():
        print("\nPASS criterion 1: worked-example reproduction (insertion + growth grid)")


def _suite_records(suite, sizes):
    return verify.run_suite(suite, sizes)


def test_criterion_02_standard_bijection(capsys):
    records = [
        verify.check_standard_bijection(n, core)
        for n in range(1, 5)
        for core in (0, 1, 2)
    ]
    with capsys.disabled():
        report(2, "standard bijection with reverse, n<=4, cores 0..2", records)


def test_criterion_03_oracle_equivalence(capsys):
    records = [
        verify.check_oracle_equivalence(n, core)
        for n in range(1, 5)
        for core in (0, 1, 2)
    ]
    with capsys.disabled():
        report(3, "bumping agrees with the growth rules, whose diagram keeps the per-square spin ledger", records)


def test_criterion_04_color_to_spin(capsys):
    records = [
        verify.check_color_to_spin(n, core)
        for n in range(1, 5)
        for core in (0, 1, 2)
    ]
    with capsys.disabled():
        report(4, "color-to-spin on the P and Q of bumping", records)


def test_criterion_05_semistandard(capsys):
    records = [
        verify.check_semistandard(length, core)
        for length in range(0, 5)
        for core in (0, 1)
    ]
    with capsys.disabled():
        report(5, "semistandard bijection: weights, spins, standardization, round trip", records)


def test_criterion_06_dual(capsys):
    records = [
        verify.check_dual(length, core)
        for length in range(0, 4)
        for core in (0, 1)
    ]
    with capsys.disabled():
        report(6, "dual correspondences: bijectivity, duality, standardization", records)


def test_criterion_07_ascent(capsys):
    records = [
        verify.check_ascent_lemmas(n, core)
        for n in range(1, 5)
        for core in (0, 1, 2)
    ]
    with capsys.disabled():
        report(7, "ascent predicates against recording and insertion tableaux", records)


def test_criterion_08_symmetric_growth(capsys):
    records = [
        verify.check_involution_statistics(n, core)
        for n in range(0, 5)
        for core in (0, 1, 2)
    ]
    with capsys.disabled():
        report(8, "involution shape statistics and the vertical split", records)


def test_criterion_09_vertical_parity(capsys):
    records = [
        verify.check_vertical_parity_difference(5, core) for core in (0, 1, 2)
    ]
    with capsys.disabled():
        report(9, "vertical parity difference over all tableaux with <=5 dominoes", records)


def test_criterion_10_enumeration(capsys):
    records = [verify.check_spin_poly_examples()]
    records += [
        verify.check_spin_square_sum(n, core)
        for n in range(0, 5)
        for core in (0, 1, 2)
    ]
    records += [
        verify.check_involution_poly(n, cores=(0, 1, 2) if n <= 4 else ())
        for n in range(0, 7)
    ]
    records += [verify.check_classical_counts(n) for n in range(0, 9)]
    with capsys.disabled():
        report(10, "spin-square sums, involution polynomial, classical counts", records)


def test_criterion_11_sign_imbalance(capsys):
    records = [
        verify.check_split_sign_formula(8),
        verify.check_imbalance_via_dominoes(8),
    ]
    records += [verify.check_insertion_sign(4, core) for core in (0, 1)]
    records += [verify.check_imbalance_polynomial(m) for m in range(1, 9)]
    records += [verify.check_imbalance_hooks(m) for m in range(1, 9)]
    records += [verify.check_signed_total(n) for n in range(1, 9)]
    records += [verify.check_bar_toggle(4, core) for core in (0, 1)]
    with capsys.disabled():
        report(11, "sign formulas and the imbalance polynomial, sizes <= 8", records)


def test_criterion_12_series(capsys):
    records = [verify.check_domino_function_examples()]
    for core in (0, 1, 2):
        records.append(verify.check_cauchy(core, 2, 3))
        records.append(verify.check_dual_cauchy(core, 2, 3))
        records.append(verify.check_weighted_series(core, 2, 4))
    records.append(verify.check_series_core_independence(2, 4))
    records.append(verify.check_specializations(2, 4))
    with capsys.disabled():
        report(12, "series identities at two variables, degrees 3 and 4", records)


def test_readme_library_sketch_runs_as_commented():
    """README's library sketch runs, and each line's commented value holds."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library sketch\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
        else:
            shown.append((eval(expression, namespace), comment.strip()))
    values = [value for value, _ in shown]
    stated = [eval(comment.split(":")[0], {"Fraction": Fraction}) for _, comment in shown[:4]]
    assert stated == [(3, 3, 2), Fraction(3, 2), True, ((), (1, 1), (2, 2), (2, 2, 2), (3, 3, 2))]
    word = parse_word("3' 4 2 1'")
    assert values == stated + [word, word_matrix(word)]

"""Verification suites: every identity as a machine-checkable record.

Each check returns a dict with the identity name, its parameters, rendered
left and right sides, and a pass flag that is true exactly when the two
rendered sides are identical strings.  Suites are deterministic and sorted,
so their output is reproducible.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor

from . import insertion, involutions, series, signimbalance, tableaux, words
from .partitions import (
    enumerate_partitions,
    enumerate_with_core,
    odd_rows,
    staircase,
    staircase_order,
    two_core,
)
from .polynomials import MPoly, PARAMS
from .words import (
    COLORED,
    DUAL,
    Biletter,
    Letter,
    biword,
    enumerate_involutions,
    enumerate_signed_permutations,
    invert_colored,
    invert_dual,
    standardize,
    dual_standardize,
    total_color,
    with_kind,
)

SUITES = ("insertion", "semistandard", "dual", "sym", "sign", "counting", "series")


def _record(identity, params, lhs, rhs, started):
    lhs, rhs = str(lhs), str(rhs)
    return {
        "identity": identity,
        "params": params,
        "lhs": lhs,
        "rhs": rhs,
        "pass": lhs == rhs,
        "ms": round((time.perf_counter() - started) * 1000, 1),
    }


def _violations(identity, params, bad, total, started):
    lhs = f"{len(bad)} violations in {total} cases" + (f": {bad[:3]}" if bad else "")
    rhs = f"0 violations in {total} cases"
    return _record(identity, params, lhs, rhs, started)


# ---------------------------------------------------------------------------
# insertion suite (standard correspondence)


def check_standard_bijection(n, core):
    started = time.perf_counter()
    perms = enumerate_signed_permutations(n)
    image = {}
    bad = []
    for pi in perms:
        result = insertion.insert_word(pi, core)
        pair = (result.p, result.q)
        if not (result.p.is_standard() and result.q.is_standard()):
            bad.append(words.word_str(pi))
        if result.p.shape() != result.q.shape() or two_core(result.p.shape()) != staircase(core):
            bad.append(words.word_str(pi))
        if pair in image:
            bad.append(words.word_str(pi))
        image[pair] = pi
        if insertion.growth_reverse_word(result.p, result.q) != pi:
            bad.append(words.word_str(pi))
    expected = sum(
        involutions.standard_tableau_count(lam) ** 2
        for lam in enumerate_with_core(core, n)
    )
    if len(image) != expected:
        bad.append(f"image size {len(image)} != {expected}")
    return _violations("standard-bijection", {"n": n, "core": core}, bad, len(perms), started)


def check_oracle_equivalence(n, core):
    started = time.perf_counter()
    perms = enumerate_signed_permutations(n)
    bad = []
    for pi in perms:
        result = insertion.insert_word(pi, core)
        diagram = insertion.growth(pi, core)
        if diagram.p_tableau() != result.p or diagram.q_tableau() != result.q:
            bad.append(words.word_str(pi))
    return _violations("bumping-vs-growth", {"n": n, "core": core}, bad, len(perms), started)


def check_color_to_spin(n, core):
    started = time.perf_counter()
    perms = enumerate_signed_permutations(n)
    bad = []
    for pi in perms:
        result = insertion.insert_word(pi, core)
        diagram = insertion.growth(pi, core)
        if 2 * total_color(pi) != result.p.vertical_count() + result.q.vertical_count():
            bad.append(words.word_str(pi))
        if not diagram.spin_ledger_holds():
            bad.append(words.word_str(pi))
    return _violations("color-to-spin", {"n": n, "core": core}, bad, len(perms), started)


def _strictly_left(dom_a, dom_b):
    return dom_a.max_col < dom_b.min_col


def check_ascent_lemmas(n, core):
    started = time.perf_counter()
    perms = enumerate_signed_permutations(n)
    bad = []
    for pi in perms:
        result = insertion.insert_word(pi, core)
        inverse = words.group_inverse(pi)
        q_doms = {value: dom for value, dom in result.q.entries}
        p_doms = {value: dom for value, dom in result.p.entries}
        for i in range(1, n):
            ascent = pi[i - 1].neg < pi[i].neg
            if ascent != _strictly_left(q_doms[i], q_doms[i + 1]):
                bad.append(("Q", words.word_str(pi), i))
            ascent_inv = inverse[i - 1].neg < inverse[i].neg
            if ascent_inv != _strictly_left(p_doms[i], p_doms[i + 1]):
                bad.append(("P", words.word_str(pi), i))
    return _violations("ascent-lemmas", {"n": n, "core": core}, bad, len(perms), started)


def check_inverse_symmetry(n, core):
    started = time.perf_counter()
    perms = enumerate_signed_permutations(n)
    bad = []
    for pi in perms:
        result = insertion.insert_word(pi, core)
        other = insertion.insert_word(words.group_inverse(pi), core)
        if result.p != other.q or result.q != other.p:
            bad.append(words.word_str(pi))
    return _violations("inverse-symmetry", {"n": n, "core": core}, bad, len(perms), started)


# ---------------------------------------------------------------------------
# semistandard suite


def all_colored_biwords(max_top, max_bottom, length, kind=COLORED):
    types = [
        Biletter(Letter(t), Letter(b, bar))
        for t in range(1, max_top + 1)
        for b in range(1, max_bottom + 1)
        for bar in (False, True)
    ]
    return [biword(combo, kind) for combo in itertools.combinations_with_replacement(types, length)]


def all_multiplicity_free(max_top, max_bottom, length, kind):
    types = [
        Biletter(Letter(t), Letter(b, bar))
        for t in range(1, max_top + 1)
        for b in range(1, max_bottom + 1)
        for bar in (False, True)
    ]
    return [biword(combo, kind) for combo in itertools.combinations(types, length)]


def check_semistandard(length, core, max_value=2):
    started = time.perf_counter()
    biwords = all_colored_biwords(max_value, max_value, length)
    image = {}
    bad = []
    for w in biwords:
        p, q = insertion.biword_insert(w, core)
        if not (p.is_semistandard() and q.is_semistandard() and p.shape() == q.shape()):
            bad.append(str(w))
        if p.weight() != w.bottom_weight() or q.weight() != w.top_weight():
            bad.append(str(w))
        if 2 * total_color(w) != p.vertical_count() + q.vertical_count():
            bad.append(str(w))
        ps, qs = insertion.biword_insert(standardize(w), core)
        if p.standardized() != ps or q.standardized() != qs:
            bad.append(str(w))
        p2, q2 = insertion.biword_insert(invert_colored(w), core)
        if (p, q) != (q2, p2):
            bad.append(str(w))
        if insertion.biword_reverse(p, q, core) != w:
            bad.append(str(w))
        if (p, q) in image:
            bad.append(str(w))
        image[(p, q)] = w
    expected = sum(
        len(tableaux.enumerate_semistandard(lam, max_value)) ** 2
        for lam in enumerate_with_core(core, length)
    )
    if len(image) != expected:
        bad.append(f"image size {len(image)} != {expected}")
    return _violations(
        "semistandard-bijection",
        {"length": length, "core": core, "values": max_value},
        bad,
        len(biwords),
        started,
    )


# ---------------------------------------------------------------------------
# dual suite


def check_dual(length, core, max_value=2):
    started = time.perf_counter()
    duals = all_multiplicity_free(max_value, max_value, length, DUAL)
    coloreds = all_multiplicity_free(max_value, max_value, length, COLORED)
    image_alpha = {}
    image_beta = {}
    bad = []
    for w in duals:
        p, q = insertion.dual_insert_alpha(w, core)
        if not (p.is_semistandard() and q.is_column_semistandard() and p.shape() == q.shape()):
            bad.append(("alpha", str(w)))
        if p.weight() != w.bottom_weight() or q.weight() != w.top_weight():
            bad.append(("alpha-weight", str(w)))
        if 2 * total_color(w) != p.vertical_count() + q.vertical_count():
            bad.append(("alpha-spin", str(w)))
        std = with_kind(dual_standardize(w), COLORED)
        pd, qd = insertion.biword_insert(std, core)
        if (p.standardized(columns=False), q.standardized(columns=True)) != (pd, qd):
            bad.append(("alpha-std", str(w)))
        pb, qb = insertion.dual_insert_beta(invert_dual(w), core)
        if (q, p) != (pb, qb):
            bad.append(("alpha-beta-duality", str(w)))
        if (p, q) in image_alpha:
            bad.append(("alpha-injective", str(w)))
        image_alpha[(p, q)] = w
    for w in coloreds:
        p, q = insertion.dual_insert_beta(w, core)
        if not (p.is_column_semistandard() and q.is_semistandard() and p.shape() == q.shape()):
            bad.append(("beta", str(w)))
        if p.weight() != w.bottom_weight() or q.weight() != w.top_weight():
            bad.append(("beta-weight", str(w)))
        if 2 * total_color(w) != p.vertical_count() + q.vertical_count():
            bad.append(("beta-spin", str(w)))
        std = with_kind(dual_standardize(w), COLORED)
        pd, qd = insertion.biword_insert(std, core)
        if (p.standardized(columns=True), q.standardized(columns=False)) != (pd, qd):
            bad.append(("beta-std", str(w)))
        if (p, q) in image_beta:
            bad.append(("beta-injective", str(w)))
        image_beta[(p, q)] = w
    expected = sum(
        len(tableaux.enumerate_semistandard(lam, max_value))
        * len(tableaux.enumerate_column_semistandard(lam, max_value))
        for lam in enumerate_with_core(core, length)
    )
    if len(image_alpha) != expected or len(image_beta) != expected:
        bad.append(f"image sizes {len(image_alpha)}, {len(image_beta)} != {expected}")
    return _violations(
        "dual-bijections",
        {"length": length, "core": core, "values": max_value},
        bad,
        len(duals) + len(coloreds),
        started,
    )


# ---------------------------------------------------------------------------
# symmetric-growth suite


def check_involution_statistics(n, core):
    started = time.perf_counter()
    invs = enumerate_involutions(n)
    bad = []
    for pi in invs:
        for cmp in involutions.check_involution_stats(pi, core):
            if not cmp.holds:
                bad.append((words.word_str(pi), cmp.name))
        for cmp in involutions.check_vertical_split(pi, core):
            if not cmp.holds:
                bad.append((words.word_str(pi), cmp.name))
    return _violations("involution-statistics", {"n": n, "core": core}, bad, len(invs), started)


# ---------------------------------------------------------------------------
# sign suite


def check_split_sign_formula(max_size):
    started = time.perf_counter()
    bad = []
    total = 0
    for m in range(1, max_size + 1):
        for lam in enumerate_partitions(m):
            if staircase_order(two_core(lam)) in (0, 1):
                for tab in tableaux.enumerate_standard(lam):
                    total += 1
                    if tableaux.tableau_sign(tab) != (-1) ** tab.even_vertical():
                        bad.append(str(tab))
    return _violations("split-sign-formula", {"max_size": max_size}, bad, total, started)


def check_imbalance_via_dominoes(max_size):
    started = time.perf_counter()
    bad = []
    total = 0
    for m in range(1, max_size + 1):
        for lam in enumerate_partitions(m):
            total += 1
            r = staircase_order(two_core(lam))
            value = signimbalance.imbalance(lam)
            if r in (0, 1):
                if value != signimbalance.domino_sign_sum(lam):
                    bad.append(lam)
            elif value != 0:
                bad.append(lam)
    return _violations("imbalance-via-dominoes", {"max_size": max_size}, bad, total, started)


def check_pairing_involution(max_size):
    started = time.perf_counter()
    from .young import enumerate_syt, syt_sign
    from .tableaux import associated_young_tableau

    bad = []
    total = 0
    for m in range(1, max_size + 1):
        for lam in enumerate_partitions(m):
            r = staircase_order(two_core(lam))
            if r not in (0, 1):
                continue
            split_images = {
                associated_young_tableau(tab) for tab in tableaux.enumerate_standard(lam)
            }
            for t in enumerate_syt(lam):
                total += 1
                image = signimbalance.pairing_involution(t, r)
                if signimbalance.pairing_involution(image, r) != t:
                    bad.append((lam, t))
                if image == t:
                    if t not in split_images:
                        bad.append((lam, t, "fixed-not-domino"))
                elif syt_sign(image) != -syt_sign(t):
                    bad.append((lam, t, "not-sign-reversing"))
            if len(split_images) != sum(
                1 for t in enumerate_syt(lam) if signimbalance.pairing_involution(t, r) == t
            ):
                bad.append((lam, "fixed-point-count"))
    return _violations("pairing-involution", {"max_size": max_size}, bad, total, started)


def check_insertion_sign(n, core):
    started = time.perf_counter()
    invs = enumerate_involutions(n)
    bad = []
    for pi in invs:
        if not involutions.check_insertion_sign(pi, core).holds:
            bad.append(words.word_str(pi))
    return _violations("insertion-sign", {"n": n, "core": core}, bad, len(invs), started)


def check_imbalance_polynomial(m):
    started = time.perf_counter()
    lhs = signimbalance.imbalance_polynomial(m)
    rhs = signimbalance.imbalance_target(m)
    return _record("imbalance-polynomial", {"m": m}, lhs, rhs, started)


def check_imbalance_hooks(m):
    started = time.perf_counter()
    lhs = signimbalance.imbalance_polynomial_hooks(m)
    rhs = signimbalance.imbalance_target(m)
    return _record("imbalance-hook-restriction", {"m": m}, lhs, rhs, started)


def check_signed_total(n):
    started = time.perf_counter()
    return _record(
        "signed-tableau-total",
        {"n": n},
        signimbalance.signed_tableau_total(n),
        2 ** (n // 2),
        started,
    )


def check_bar_toggle(n, core):
    """Toggling the bar on the lowest two-cycle reverses the sign and keeps
    the shape statistics."""
    started = time.perf_counter()
    invs = enumerate_involutions(n)
    bad = []
    for pi in invs:
        profile = involutions.involution_profile(pi)
        if profile.two_cycles + profile.barred_two_cycles == 0:
            continue
        toggled = _toggle_lowest_two_cycle(pi)
        if _toggle_lowest_two_cycle(toggled) != pi:
            bad.append(words.word_str(pi))
        stats_a = [cmp.lhs for cmp in involutions.check_involution_stats(pi, core)[1:]]
        stats_b = [cmp.lhs for cmp in involutions.check_involution_stats(toggled, core)[1:]]
        if stats_a != stats_b:
            bad.append(words.word_str(pi))
        sign_a = involutions.check_insertion_sign(pi, core).lhs
        sign_b = involutions.check_insertion_sign(toggled, core).lhs
        if sign_a != -sign_b:
            bad.append(words.word_str(pi))
    return _violations("two-cycle-bar-toggle", {"n": n, "core": core}, bad, len(invs), started)


def _toggle_lowest_two_cycle(pi):
    letters = list(pi)
    for i, letter in enumerate(letters, start=1):
        if letter.value != i:
            j = letter.value
            low, high = min(i, j), max(i, j)
            flipped = not letters[low - 1].barred
            letters[low - 1] = Letter(letters[low - 1].value, flipped)
            letters[high - 1] = Letter(letters[high - 1].value, flipped)
            return tuple(letters)
    raise ValueError("no two-cycle to toggle")


# ---------------------------------------------------------------------------
# counting suite


def check_vertical_parity_difference(max_dominoes, core):
    started = time.perf_counter()
    bad = []
    total = 0
    base = staircase(core)
    for n in range(max_dominoes + 1):
        for lam in enumerate_with_core(core, n):
            for tab in tableaux.enumerate_standard(lam):
                total += 1
                lhs = 2 * (tab.odd_vertical() - tab.even_vertical())
                if lhs != odd_rows(lam) - odd_rows(base):
                    bad.append(str(tab))
    return _violations(
        "vertical-parity-difference", {"max_dominoes": max_dominoes, "core": core}, bad, total, started
    )


def check_max_spin_split(max_dominoes, core):
    started = time.perf_counter()
    bad = []
    total = 0
    for n in range(max_dominoes + 1):
        for lam in enumerate_with_core(core, n):
            total += 1
            tabs = tableaux.enumerate_standard(lam)
            best = max(2 * t.spin() for t in tabs)
            if best != tableaux.max_odd_vertical(lam) + tableaux.max_even_vertical(lam):
                bad.append(lam)
            for t in tabs:
                tableaux.cospin(t)  # raises if not an integer
    return _violations("max-spin-split", {"max_dominoes": max_dominoes, "core": core}, bad, total, started)


def check_spin_square_sum(n, core):
    started = time.perf_counter()
    return _record(
        "spin-square-sum",
        {"n": n, "core": core},
        involutions.spin_square_sum(n, core),
        involutions.spin_square_target(n),
        started,
    )


def check_involution_poly(n, cores=(0, 1, 2)):
    started = time.perf_counter()
    reference = involutions.involution_poly_recursive(n)
    sides = [involutions.involution_poly_direct(n), involutions.involution_poly_egf(n)]
    sides.extend(involutions.involution_poly(n, core) for core in cores)
    lhs = " == ".join(str(side) for side in sides)
    rhs = " == ".join(str(reference) for _ in sides)
    return _record("involution-poly", {"n": n, "cores": list(cores)}, lhs, rhs, started)


def check_classical_counts(n):
    started = time.perf_counter()
    counts = involutions.classical_counts(n)
    lhs = f"{counts['sum_fsq']}, {counts['sum_f']}"
    rhs = f"{counts['factorial']}, {counts['involutions']}"
    return _record("classical-counts", {"n": n}, lhs, rhs, started)


def check_spin_poly_examples():
    started = time.perf_counter()
    lhs = f"{tableaux.spin_poly((3, 1, 1))}; {tableaux.spin_poly((2, 2))}"
    rhs = "2*s; 1 + s^2"
    return _record("spin-poly-examples", {}, lhs, rhs, started)


# ---------------------------------------------------------------------------
# series suite


def check_domino_function_examples():
    started = time.perf_counter()
    q = MPoly.var("s", PARAMS, power=2)
    s = MPoly.var("s", PARAMS)
    lhs = series.domino_function((2, 2), 2, 4)
    rhs = series.schur((2,), 2, 4) * q + series.schur((1, 1), 2, 4)
    lhs2 = series.domino_function((3, 1, 1), 2, 4)
    rhs2 = (series.schur((2,), 2, 4) + series.schur((1, 1), 2, 4)) * s
    left = f"{lhs}\n--\n{lhs2}"
    right = f"{rhs}\n--\n{rhs2}"
    return _record("domino-function-examples", {"vars": 2}, left, right, started)


def check_cauchy(core, nx, bound):
    started = time.perf_counter()
    lhs, rhs = series.check_cauchy(core, nx, bound)
    return _record("cauchy", {"core": core, "vars": nx, "degree": bound}, lhs, rhs, started)


def check_dual_cauchy(core, nx, bound):
    started = time.perf_counter()
    lhs, rhs = series.check_dual_cauchy(core, nx, bound)
    return _record("dual-cauchy", {"core": core, "vars": nx, "degree": bound}, lhs, rhs, started)


def check_weighted_series(core, nx, bound):
    started = time.perf_counter()
    lhs, rhs = series.check_weighted_sum(core, nx, bound)
    return _record("weighted-series-product", {"core": core, "vars": nx, "degree": bound}, lhs, rhs, started)


def check_series_core_independence(nx, bound, cores=(0, 1, 2)):
    started = time.perf_counter()
    sums = [series.weighted_domino_sum(core, nx, bound) for core in cores]
    lhs = "\n==\n".join(str(s) for s in sums)
    rhs = "\n==\n".join(str(sums[0]) for _ in sums)
    return _record("series-core-independence", {"vars": nx, "degree": bound, "cores": list(cores)}, lhs, rhs, started)


def check_specializations(nx, bound):
    started = time.perf_counter()
    results = []
    lhs, rhs = series.specialization_square(nx, bound)
    results.append(lhs == rhs)
    l2, r2, p2 = series.specialization_zero_spin(nx, bound)
    results.append(l2 == r2 == p2)
    l3, r3 = series.specialization_even_rows(nx, bound)
    results.append(l3 == r3)
    l4, r4 = series.specialization_even_both(nx, bound)
    results.append(l4 == r4)
    lhs_text = ", ".join("equal" if ok else "DIFFERENT" for ok in results)
    rhs_text = ", ".join("equal" for _ in results)
    return _record("series-specializations", {"vars": nx, "degree": bound}, lhs_text, rhs_text, started)


# ---------------------------------------------------------------------------
# suite assembly


def suite_instances(suite, sizes):
    n_max = sizes.get("n", 4)
    cores = sizes.get("cores", (0, 1, 2))
    degree = sizes.get("degree", 3)
    nx = sizes.get("vars", 2)
    max_size = sizes.get("max_size", 8)
    if suite == "insertion":
        for n in range(1, n_max + 1):
            for core in cores:
                yield ("check_standard_bijection", {"n": n, "core": core})
                yield ("check_oracle_equivalence", {"n": n, "core": core})
                yield ("check_color_to_spin", {"n": n, "core": core})
                yield ("check_ascent_lemmas", {"n": n, "core": core})
                yield ("check_inverse_symmetry", {"n": n, "core": core})
    elif suite == "semistandard":
        for length in range(0, sizes.get("length", 4) + 1):
            for core in (0, 1):
                yield ("check_semistandard", {"length": length, "core": core})
    elif suite == "dual":
        for length in range(0, sizes.get("length", 3) + 1):
            for core in (0, 1):
                yield ("check_dual", {"length": length, "core": core})
    elif suite == "sym":
        for n in range(0, n_max + 1):
            for core in cores:
                yield ("check_involution_statistics", {"n": n, "core": core})
    elif suite == "sign":
        yield ("check_split_sign_formula", {"max_size": max_size})
        yield ("check_imbalance_via_dominoes", {"max_size": max_size})
        yield ("check_pairing_involution", {"max_size": min(max_size, 7)})
        for core in (0, 1):
            yield ("check_insertion_sign", {"n": n_max, "core": core})
            yield ("check_bar_toggle", {"n": n_max, "core": core})
        for m in range(1, max_size + 1):
            yield ("check_imbalance_polynomial", {"m": m})
            yield ("check_imbalance_hooks", {"m": m})
        for n in range(1, max_size + 1):
            yield ("check_signed_total", {"n": n})
    elif suite == "counting":
        yield ("check_spin_poly_examples", {})
        for core in cores:
            yield ("check_vertical_parity_difference", {"max_dominoes": 5, "core": core})
            yield ("check_max_spin_split", {"max_dominoes": 4, "core": core})
            for n in range(0, n_max + 1):
                yield ("check_spin_square_sum", {"n": n, "core": core})
        for n in range(0, sizes.get("poly_n", 6) + 1):
            yield ("check_involution_poly", {"n": n, "cores": tuple(cores) if n <= 4 else ()})
        for n in range(0, max_size + 1):
            yield ("check_classical_counts", {"n": n})
    elif suite == "series":
        yield ("check_domino_function_examples", {})
        for core in cores:
            yield ("check_cauchy", {"core": core, "nx": nx, "bound": degree})
            yield ("check_dual_cauchy", {"core": core, "nx": nx, "bound": degree})
            yield ("check_weighted_series", {"core": core, "nx": nx, "bound": degree})
        yield ("check_series_core_independence", {"nx": nx, "bound": degree, "cores": tuple(cores)})
        yield ("check_specializations", {"nx": nx, "bound": degree})
    else:
        raise ValueError(f"unknown suite {suite!r}")


_CHECKS = {
    name: obj
    for name, obj in list(globals().items())
    if name.startswith("check_") and callable(obj)
}


def run_instance(instance):
    name, params = instance
    return _CHECKS[name](**params)


def run_suite(suite, sizes=None, jobs=1):
    """Run one suite (or 'all'); returns records sorted canonically."""
    sizes = sizes or {}
    names = SUITES if suite == "all" else (suite,)
    instances = []
    for name in names:
        instances.extend(suite_instances(name, sizes))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_instance, instances))
    else:
        records = [run_instance(instance) for instance in instances]
    records.sort(key=lambda rec: (rec["identity"], sorted(rec["params"].items())))
    return records

"""Verification suites: every identity as a machine-checkable record.

Each check returns a dict with the identity name, its parameters, rendered
left and right sides, and a pass flag that is true exactly when the two
rendered sides are identical strings; an exhaustive check states named claims
about each case and lists the false ones as (case, claim) pairs.  Suites are
deterministic and sorted, so their output is reproducible.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from functools import cache, partial

from . import insertion, involutions, series, signimbalance, tableaux, words
from .partitions import (
    conjugate,
    enumerate_partitions,
    enumerate_with_core,
    odd_rows,
    staircase,
    two_core,
)
from .polynomials import MPoly, PARAMS
from .young import enumerate_syt, syt_sign

# the sizes each suite reads, with their defaults; the sign suite always runs at cores 0 and 1,
# as its insertion sign is a tableau sign, defined only over a core of at most one box
SUITE_SIZES = {
    "insertion": {"n": 4, "cores": (0, 1, 2)},
    "semistandard": {"length": 4, "cores": (0, 1)},
    "dual": {"length": 3, "cores": (0, 1)},
    "sym": {"n": 4, "cores": (0, 1, 2)},
    "sign": {"max_size": 8, "n": 4},
    "counting": {"n": 4, "cores": (0, 1, 2), "poly_n": 6, "max_size": 8},
    "series": {"vars": 2, "degree": 3, "cores": (0, 1, 2)},
}
SUITES = tuple(SUITE_SIZES)
SIZE_NAMES = tuple(dict.fromkeys(name for sizes in SUITE_SIZES.values() for name in sizes))
VALUES = 2  # the largest top and bottom value of the semistandard and dual suites' biwords


def _record(identity, params, sides):
    """Time ``sides()`` and compare the two sides it returns as strings."""
    started = time.perf_counter()
    lhs, rhs = (str(side) for side in sides())
    return {
        "identity": identity,
        "params": params,
        "lhs": lhs,
        "rhs": rhs,
        "pass": lhs == rhs,
        "ms": round((time.perf_counter() - started) * 1000, 1),
    }


def _exhaustive(identity, params, cases, claims, closing=None):
    """The skeleton of every exhaustive check.

    ``claims(case)`` gives the (claim name, holds) pairs of one case.  Each
    false claim is one violation, (case, claim name), and a ValueError inside
    the case is one, (case, message).  ``closing()`` gives what is wrong with
    the cases taken together, as (case, claim name) pairs too.  A case is
    named by its letters if it is a word and by str otherwise.  The record
    counts the cases and shows the first three violations.  ``cases`` is
    consumed inside the clock, so a generator times its own enumeration.
    """

    def label(case):
        word = isinstance(case, tuple) and case and all(isinstance(letter, words.Letter) for letter in case)
        return words.word_str(case) if word else str(case)

    def sides():
        bad = []
        total = 0
        for case in cases:
            total += 1
            try:
                false = [name for name, holds in claims(case) if not holds]
            except ValueError as exc:
                false = [str(exc)]
            if false:
                bad.extend((label(case), name) for name in false)
        if closing is not None:
            bad.extend((label(case), name) for case, name in closing())
        lhs = f"{len(bad)} violations in {total} cases" + (f": {bad[:3]}" if bad else "")
        return lhs, f"0 violations in {total} cases"

    return _record(identity, params, sides)


def _image_sizes(core, size, pairs, *images):
    """Closing check of a bijection: each image has as many elements as the
    shapes of the given core and size have tableau pairs, ``pairs(lam)`` each."""
    expected = sum(pairs(lam) for lam in enumerate_with_core(core, size))
    if any(len(image) != expected for image in images):
        yield f"{[len(image) for image in images]} != {expected}", "image sizes"


# ---------------------------------------------------------------------------
# insertion suite (standard correspondence)


def _insertion_check(identity, n, core, claims, closing=None):
    """``claims(pi, result)`` for each signed permutation of n, inserted by
    ``insert_all``, or inside its case, raising, where the walk could not."""
    results = {}

    def cases():
        for pi, result in insertion.insert_all(n, core):
            results[pi] = result
            yield pi

    def case(pi):
        return claims(pi, results.pop(pi) or insertion.insert_word(pi, core))

    return _exhaustive(identity, {"n": n, "core": core}, cases(), case, closing)


def check_standard_bijection(n, core):
    image = {}

    def claims(pi, result):
        p, q = result.p, result.q
        shape = p.semistandard_shape()  # replayed, not the shape insertion stored
        found = (
            ("values", p.values() == q.values() == tuple(range(1, n + 1))),
            ("shape", shape is not None and shape == q.semistandard_shape() and two_core(shape) == staircase(core)),
            ("injective", (p, q) not in image),
            ("reverse", insertion.growth_reverse_word(p, q) == pi),
        )
        image[p, q] = pi
        return found

    closing = partial(_image_sizes, core, n, lambda lam: involutions.standard_tableau_count(lam) ** 2, image)
    return _insertion_check("standard-bijection", n, core, claims, closing)


def check_oracle_equivalence(n, core):
    def claims(pi, result):
        diagram = insertion.growth(pi, core)
        return ("growth", (diagram.p, diagram.q) == (result.p, result.q)), ("spin-ledger", diagram.spin_ledger_holds())

    return _insertion_check("bumping-vs-growth", n, core, claims)


def check_color_to_spin(n, core):
    def claims(pi, result):
        return [("color-spin", 2 * words.total_color(pi) == result.p.vertical_count() + result.q.vertical_count())]

    return _insertion_check("color-to-spin", n, core, claims)


def check_ascent_lemmas(n, core):
    """i is an ascent of the word (of its inverse) exactly when domino i lies
    strictly left of domino i + 1 in Q (in P)."""

    def claims(pi, result):
        for name, word, tab in (("Q", pi, result.q), ("P", words.group_inverse(pi), result.p)):
            doms = dict(tab.entries)
            for i in range(1, n):
                yield f"{name}-ascent-{i}", (word[i - 1].neg < word[i].neg) == (doms[i].max_col < doms[i + 1].col)

    return _insertion_check("ascent-lemmas", n, core, claims)


def check_inverse_symmetry(n, core):
    pairs = {}

    def claims(pi, result):
        pairs[pi] = (result.p, result.q)
        return ()

    def closing():
        # the inverse's pair is looked up, not inserted again
        for pi, (p, q) in pairs.items():
            if pairs.get(words.group_inverse(pi)) != (q, p):
                yield pi, "inverse-symmetry"

    return _insertion_check("inverse-symmetry", n, core, claims, closing)


# ---------------------------------------------------------------------------
# semistandard suite


def check_semistandard(length, core):
    image = {}

    def claims(w):
        p, q = insertion.biword_insert(w, core)
        std = insertion.growth(words.standardize(w).bottom, core)  # growth, independent of bumping
        shape = p.semistandard_shape()  # replayed, as in check_standard_bijection
        found = (
            ("shape", shape is not None and shape == q.semistandard_shape()),
            ("weight", p.weight() == w.bottom_weight() and q.weight() == w.top_weight()),
            ("color-spin", 2 * words.total_color(w) == p.vertical_count() + q.vertical_count()),
            ("standardization", (p.standardized(), q.standardized()) == (std.p_tableau(), std.q_tableau())),
            ("reverse", insertion.biword_reverse(p, q) == w),
            ("injective", (p, q) not in image),
        )
        image[p, q] = w
        return found

    def closing():
        # the inverse biword is a case too: its pair is looked up, not inserted again
        for (p, q), w in image.items():
            if image.get((q, p)) != words.invert_colored(w):
                yield w, "inverse"
        table = tableaux.strip_transfer(staircase(core), VALUES, length)  # each shape's tableaux, counted
        yield from _image_sizes(core, length, lambda lam: sum(table.get(lam, {}).values()) ** 2, image)

    biwords = words.enumerate_biwords(VALUES, length)
    params = {"length": length, "core": core, "values": VALUES}
    return _exhaustive("semistandard-bijection", params, biwords, claims, closing)


# ---------------------------------------------------------------------------
# dual suite


def check_dual(length, core):
    """Both dual correspondences: alpha on dual biwords, beta on colored ones.
    Alpha's P is row-semistandard and its Q column-semistandard; beta's are
    the other way round."""
    images = {"alpha": {}, "beta": {}}

    def claims(w):
        alpha = w.kind == words.DUAL
        tag = "alpha" if alpha else "beta"
        p, q = (insertion.dual_insert_alpha if alpha else insertion.dual_insert_beta)(w, core)
        rows, columns = (p, q) if alpha else (q, p)
        row_shape, column_shape = rows.semistandard_shape(), columns.conjugated().semistandard_shape()  # replayed
        std = insertion.growth(words.dual_standardize(w).bottom, core)  # growth, independent of bumping
        found = (
            (f"{tag}-shape", None not in (row_shape, column_shape) and row_shape == conjugate(column_shape)),
            (f"{tag}-weight", p.weight() == w.bottom_weight() and q.weight() == w.top_weight()),
            (f"{tag}-spin", 2 * words.total_color(w) == p.vertical_count() + q.vertical_count()),
            (f"{tag}-std", (p.standardized(columns=not alpha), q.standardized(columns=alpha)) == (std.p, std.q)),
            (f"{tag}-injective", (p, q) not in images[tag]),
        )
        images[tag][p, q] = w
        return found

    def closing():
        # each alpha case's inverse is a beta case: its pair is looked up, not inserted again
        for (p, q), w in images["alpha"].items():
            if images["beta"].get((q, p)) != words.invert_dual(w):
                yield w, "alpha-beta-duality"
        table = tableaux.strip_transfer(staircase(core), VALUES, length)  # lam' counts lam's column tableaux
        count = {lam: sum(row.values()) for lam, row in table.items()}.get
        yield from _image_sizes(core, length, lambda lam: count(lam, 0) * count(conjugate(lam), 0), *images.values())

    biwords = itertools.chain.from_iterable(
        words.enumerate_biwords(VALUES, length, kind, multiplicity_free=True)
        for kind in (words.DUAL, words.COLORED)
    )
    params = {"length": length, "core": core, "values": VALUES}
    return _exhaustive("dual-bijections", params, biwords, claims, closing)


# ---------------------------------------------------------------------------
# symmetric-growth suite


def check_involution_statistics(n, core):
    def claims(pi):
        return ((name, lhs == rhs) for name, (lhs, rhs) in involutions.involution_statistics(pi, core).items())

    return _exhaustive("involution-statistics", {"n": n, "core": core}, words.enumerate_involutions(n), claims)


# ---------------------------------------------------------------------------
# sign suite


def _shapes_up_to(max_size):
    for m in range(1, max_size + 1):
        yield from enumerate_partitions(m)


def _split_shapes(max_size):
    """Every shape whose 2-core has at most one box."""
    return (lam for lam in _shapes_up_to(max_size) if sum(two_core(lam)) <= 1)


def check_split_sign_formula(max_size):
    def claims(tab):
        return [("sign", tableaux.tableau_sign(tab) == (-1) ** tab.even_vertical())]

    tabs = (tab for lam in _split_shapes(max_size) for tab in tableaux.enumerate_standard(lam))
    return _exhaustive("split-sign-formula", {"max_size": max_size}, tabs, claims)


def check_imbalance_via_dominoes(max_size):
    agree = {}  # shape -> imbalance == domino sign sum (0 past a one-box core), each side by one walk in the clock

    def cases():
        shapes, split = list(_shapes_up_to(max_size)), list(_split_shapes(max_size))
        signs = dict(zip(split, signimbalance.domino_sign_sums(split)))
        agree.update((lam, value == signs.get(lam, 0)) for lam, value in zip(shapes, signimbalance.imbalances(shapes)))
        yield from shapes

    return _exhaustive("imbalance-via-dominoes", {"max_size": max_size}, cases(), lambda lam: [("imbalance", agree[lam])])


def check_pairing_involution(max_size):
    split = {}  # shape -> the Young tableaux its domino tableaux are associated with
    fixed = Counter()
    pairing, sign = cache(signimbalance.pairing_involution), cache(syt_sign)  # each image is itself a case

    def cases():
        for lam in _split_shapes(max_size):
            split[lam] = {tableaux.associated_young_tableau(tab) for tab in tableaux.enumerate_standard(lam)}
            yield from enumerate_syt(lam)

    def claims(t):
        lam = tuple(map(len, t))
        image = pairing(t)
        involution = ("involution", pairing(image) == t)
        if image == t:
            fixed[lam] += 1
            return involution, ("fixed-point-is-domino", t in split[lam])
        return involution, ("sign-reversing", sign(image) == -sign(t))

    def closing():
        return ((lam, "fixed-point-count") for lam, images in split.items() if fixed[lam] != len(images))

    return _exhaustive("pairing-involution", {"max_size": max_size}, cases(), claims, closing)


def check_insertion_sign(n, core):
    def claims(pi):
        lhs, rhs = involutions.involution_statistics(pi, core)["insertion sign"]
        return [("sign", lhs == rhs)]

    return _exhaustive("insertion-sign", {"n": n, "core": core}, words.enumerate_involutions(n), claims)


def check_imbalance_polynomial(m):
    return _record(
        "imbalance-polynomial",
        {"m": m},
        lambda: (signimbalance.imbalance_polynomial(m), signimbalance.imbalance_target(m)),
    )


def check_imbalance_hooks(m):
    return _record(
        "imbalance-hook-restriction",
        {"m": m},
        lambda: (signimbalance.imbalance_polynomial_hooks(m), signimbalance.imbalance_target(m)),
    )


def check_signed_total(n):
    return _record(
        "signed-tableau-total", {"n": n}, lambda: (signimbalance.signed_tableau_total(n), 2 ** (n // 2))
    )


def check_bar_toggle(n, core):
    """Toggling the bar on the lowest two-cycle reverses the sign and keeps
    the shape statistics."""
    statistics = cache(partial(involutions.involution_statistics, core=core))  # a toggled word is another case

    def claims(pi):
        profile = involutions.involution_profile(pi)
        if profile.two_cycles + profile.barred_two_cycles == 0:
            return ()
        toggled = _toggle_lowest_two_cycle(pi)
        before, after = map(statistics, (pi, toggled))
        return (
            ("involution", _toggle_lowest_two_cycle(toggled) == pi),
            ("shape", all(before[name][0] == after[name][0] for name in ("odd rows", "odd columns", "d statistic"))),
            ("sign-reversing", before["insertion sign"][0] == -after["insertion sign"][0]),
        )

    return _exhaustive("two-cycle-bar-toggle", {"n": n, "core": core}, words.enumerate_involutions(n), claims)


def _toggle_lowest_two_cycle(pi):
    # the lowest point that moves goes up, because every lower value is fixed
    letters = list(pi)
    for i, letter in enumerate(pi):
        if letter.value != i + 1:
            flipped = not letter.barred
            letters[i] = words.Letter(letter.value, flipped)
            letters[letter.value - 1] = words.Letter(pi[letter.value - 1].value, flipped)
            return tuple(letters)
    raise ValueError("no two-cycle to toggle")


# ---------------------------------------------------------------------------
# counting suite


def check_vertical_parity_difference(max_dominoes, core):
    base = staircase(core)

    def claims(tab):
        lhs = 2 * (tab.odd_vertical() - tab.even_vertical())
        return [("parity-difference", lhs == odd_rows(tab.shape()) - odd_rows(base))]

    shapes = (lam for n in range(max_dominoes + 1) for lam in enumerate_with_core(core, n))
    tabs = (tab for lam in shapes for tab in tableaux.enumerate_standard(lam))
    params = {"max_dominoes": max_dominoes, "core": core}
    return _exhaustive("vertical-parity-difference", params, tabs, claims)


def check_max_spin_split(max_dominoes, core):
    """Twice the largest spin splits into the largest odd and even vertical
    counts, and every cospin (half of best - vertical count) is an integer;
    both claims are read off one enumeration of the shape."""

    def claims(lam):
        tabs = tableaux.enumerate_standard(lam)
        best = max(t.vertical_count() for t in tabs)
        return (
            ("split", best == max(t.odd_vertical() for t in tabs) + max(t.even_vertical() for t in tabs)),
            ("integer-cospin", all((best - t.vertical_count()) % 2 == 0 for t in tabs)),
        )

    shapes = (lam for n in range(max_dominoes + 1) for lam in enumerate_with_core(core, n))
    return _exhaustive("max-spin-split", {"max_dominoes": max_dominoes, "core": core}, shapes, claims)


def check_spin_square_sum(n, core):
    return _record(
        "spin-square-sum",
        {"n": n, "core": core},
        lambda: (involutions.spin_square_sum(n, core), involutions.spin_square_target(n)),
    )


def check_involution_poly(n, cores=(0, 1, 2)):
    def sides():
        reference = involutions.involution_poly_recursive(n)
        polys = [involutions.involution_poly_direct(n), involutions.involution_poly_egf(n)]
        polys.extend(involutions.involution_poly(n, core) for core in cores)
        return " == ".join(str(poly) for poly in polys), " == ".join(str(reference) for _ in polys)

    return _record("involution-poly", {"n": n, "cores": list(cores)}, sides)


def check_classical_counts(n):
    def sides():
        counts = involutions.classical_counts(n)
        return f"{counts['sum_fsq']}, {counts['sum_f']}", f"{counts['factorial']}, {counts['involutions']}"

    return _record("classical-counts", {"n": n}, sides)


def check_spin_poly_examples():
    return _record(
        "spin-poly-examples",
        {},
        lambda: (f"{tableaux.spin_poly((3, 1, 1))}; {tableaux.spin_poly((2, 2))}", "2*s; 1 + s^2"),
    )


# ---------------------------------------------------------------------------
# series suite


def check_domino_function_examples():
    def sides():
        q = MPoly.var("s", PARAMS, power=2)
        s = MPoly.var("s", PARAMS)
        lhs = series.domino_function((2, 2), 2, 4)
        rhs = series.schur((2,), 2, 4) * q + series.schur((1, 1), 2, 4)
        lhs2 = series.domino_function((3, 1, 1), 2, 4)
        rhs2 = (series.schur((2,), 2, 4) + series.schur((1, 1), 2, 4)) * s
        return f"{lhs}\n--\n{lhs2}", f"{rhs}\n--\n{rhs2}"

    return _record("domino-function-examples", {"vars": 2}, sides)


def _sum_product(identity, sum_side, product_side, core, nx, bound):
    params = {"core": core, "vars": nx, "degree": bound}
    return _record(identity, params, lambda: (sum_side(core, nx, bound), product_side(nx, bound)))


def check_cauchy(core, nx, bound):
    return _sum_product("cauchy", series.cauchy_sum, series.cauchy_product, core, nx, bound)


def check_dual_cauchy(core, nx, bound):
    return _sum_product("dual-cauchy", series.dual_cauchy_sum, series.dual_cauchy_product, core, nx, bound)


def check_weighted_series(core, nx, bound):
    return _sum_product(
        "weighted-series-product", series.weighted_domino_sum, series.weighted_domino_product, core, nx, bound
    )


def check_series_core_independence(nx, bound, cores=(0, 1, 2)):
    def sides():
        sums = [series.weighted_domino_sum(core, nx, bound) for core in cores]
        return "\n==\n".join(str(s) for s in sums), "\n==\n".join(str(sums[0]) for _ in sums)

    return _record("series-core-independence", {"vars": nx, "degree": bound, "cores": list(cores)}, sides)


def check_specializations(nx, bound):
    def sides():
        total = series.weighted_domino_sum(0, nx, bound)  # built once for all four
        lhs, rhs = series.specialization_square(total)
        l2, r2, p2 = series.specialization_zero_spin(total)
        l3, r3 = series.specialization_even_rows(total)
        l4, r4 = series.specialization_even_both(total)
        results = [lhs == rhs, l2 == r2 == p2, l3 == r3, l4 == r4]
        return ", ".join("equal" if ok else "DIFFERENT" for ok in results), ", ".join("equal" for _ in results)

    return _record("series-specializations", {"vars": nx, "degree": bound}, sides)


# ---------------------------------------------------------------------------
# suite assembly


def suite_instances(suite, sizes):
    """The (check name, kwargs) pairs of one suite, or of 'all', at the given sizes.

    A suite reads the sizes of its ``SUITE_SIZES`` entry, at their defaults
    unless given.  An unknown suite, a size no named suite reads, a negative
    size, or sizes that leave a suite nothing to check is a ValueError: no
    selection passes vacuously.
    """
    names = SUITES if suite == "all" else (suite,)
    if not set(names) <= SUITE_SIZES.keys():
        raise ValueError(f"unknown suite {suite!r}")
    reads = sorted(set().union(*(SUITE_SIZES[name] for name in names)))
    for key, value in sizes.items():
        if key not in reads:
            raise ValueError(f"suite {suite} reads no size {key}; it reads {', '.join(reads)}")
        low = 1 if key == "vars" else 0  # a series in no variables is a constant
        if any(v < low for v in (value if key == "cores" else (value,))):
            raise ValueError(f"size {key} must be at least {low}, got {value}")
        if key == "cores" and len(set(value)) < len(value):
            raise ValueError(f"cores must be distinct, got {value}")
    instances = []
    for name in names:
        resolved = {key: sizes.get(key, default) for key, default in SUITE_SIZES[name].items()}
        found = list(_instances(name, resolved))
        if not found:
            raise ValueError(f"suite {name} has nothing to check at sizes {resolved}")
        instances += found
    return instances


def _instances(suite, sizes):
    if suite == "insertion":
        for n in range(1, sizes["n"] + 1):
            for core in sizes["cores"]:
                for check in ("check_standard_bijection", "check_oracle_equivalence", "check_color_to_spin",
                              "check_ascent_lemmas", "check_inverse_symmetry"):
                    yield (check, {"n": n, "core": core})
    elif suite in ("semistandard", "dual"):
        for length in range(0, sizes["length"] + 1):
            for core in sizes["cores"]:
                yield ("check_" + suite, {"length": length, "core": core})
    elif suite == "sym":
        for n in range(0, sizes["n"] + 1):
            for core in sizes["cores"]:
                yield ("check_involution_statistics", {"n": n, "core": core})
    elif suite == "sign":
        yield ("check_imbalance_via_dominoes", {"max_size": sizes["max_size"]})
        yield ("check_split_sign_formula", {"max_size": min(sizes["max_size"], 16)})  # these two list tableaux,
        yield ("check_pairing_involution", {"max_size": min(sizes["max_size"], 7)})  # so they stop within reach
        for core in (0, 1):
            yield ("check_insertion_sign", {"n": sizes["n"], "core": core})
            yield ("check_bar_toggle", {"n": sizes["n"], "core": core})
        for m in range(1, sizes["max_size"] + 1):
            yield ("check_imbalance_polynomial", {"m": m})
            yield ("check_imbalance_hooks", {"m": m})
        for n in range(1, sizes["max_size"] + 1):
            yield ("check_signed_total", {"n": n})
    elif suite == "counting":
        yield ("check_spin_poly_examples", {})
        for core in sizes["cores"]:
            yield ("check_vertical_parity_difference", {"max_dominoes": 5, "core": core})
            yield ("check_max_spin_split", {"max_dominoes": 4, "core": core})
            for n in range(0, sizes["n"] + 1):
                yield ("check_spin_square_sum", {"n": n, "core": core})
        for n in range(0, sizes["poly_n"] + 1):
            yield ("check_involution_poly", {"n": n, "cores": tuple(sizes["cores"]) if n <= 4 else ()})
        for n in range(0, sizes["max_size"] + 1):
            yield ("check_classical_counts", {"n": n})
    else:
        nx, bound, cores = sizes["vars"], sizes["degree"], sizes["cores"]
        yield ("check_domino_function_examples", {})
        for core in cores:
            yield ("check_cauchy", {"core": core, "nx": nx, "bound": bound})
            yield ("check_dual_cauchy", {"core": core, "nx": nx, "bound": bound})
            yield ("check_weighted_series", {"core": core, "nx": nx, "bound": bound})
        yield ("check_series_core_independence", {"nx": nx, "bound": bound, "cores": tuple(cores)})
        yield ("check_specializations", {"nx": nx, "bound": bound})


_CHECKS = {
    name: obj
    for name, obj in list(globals().items())
    if name.startswith("check_") and callable(obj)
}


def run_instance(instance):
    name, params = instance
    return _CHECKS[name](**params)


def run_suite(suite, sizes=None, jobs=1):
    """Run one suite (or 'all') in at most ``jobs`` processes; returns records sorted canonically."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    instances = suite_instances(suite, sizes or {})
    workers = min(jobs, os.cpu_count() or 1, len(instances))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_instance, instances))
    else:
        records = [run_instance(instance) for instance in instances]
    records.sort(key=lambda rec: (rec["identity"], sorted(rec["params"].items())))
    return records

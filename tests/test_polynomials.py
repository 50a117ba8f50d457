from dominsert.polynomials import IMBALANCE, MPoly, PARAMS


def test_constants_and_vars():
    one = MPoly.const(1, PARAMS)
    a = MPoly.var("a", PARAMS)
    assert one + a - 1 == a
    assert a * 0 == MPoly.zero(PARAMS)
    assert (a + 1) * (a - 1) == a * a - 1


def test_pow_and_degree():
    s = MPoly.var("s", ("s",))
    p = (1 + s) ** 3
    assert p.terms[(2,)] == 3
    assert max(sum(e) for e in p.terms) == 3
    assert (s**0) == MPoly.const(1, ("s",))


def test_subs_partial():
    a = MPoly.var("a", PARAMS)
    b = MPoly.var("b", PARAMS)
    p = a * a * b + 2 * b
    assert p.subs({"a": 3}) == 9 * b + 2 * b
    assert p.subs({"a": 0}) == 2 * b
    assert p.subs({"a": 1, "b": 1}) == MPoly.const(3, PARAMS)
    assert (a * b - b).subs({"a": 1}) == 0  # a coefficient that cancels is dropped


def test_mixed_ring_rejected():
    import pytest

    with pytest.raises(ValueError):
        MPoly.var("s", ("s",)) + MPoly.var("s", PARAMS)


def test_str_is_sorted_and_signed():
    x = MPoly.var("x", IMBALANCE)
    y = MPoly.var("y", IMBALANCE)
    assert str(x - y) == "-y + x"
    assert str(MPoly.zero(IMBALANCE)) == "0"
    assert str(2 * x * x) == "2*x^2"

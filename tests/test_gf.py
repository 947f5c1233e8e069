import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from blockfuse import gf
from blockfuse.gf import factor, factor_over_subfield, make_tower
from oracles import (expand, field_add_digits, field_mul_digits, field_neg_digits,
                     field_pow_digits, make_poly, polynomial_roots_brute,
                     primitive_element_walk, smallest_irreducible_scan)


def test_trivial_tower_f2():
    t = make_tower(2, 1, 1)
    assert t.q == 2 and t.gamma_order == 1
    assert t.add(1, 1) == 0 and t.mul(1, 1) == 1


def test_f4_over_f2():
    t = make_tower(2, 1, 2)
    assert t.gamma_order == 2
    assert t.modulus == (1, 1, 1)  # x^2 + x + 1
    w = 2  # the class of x
    assert t.mul(w, w) == t.add(w, 1)  # w^2 = w + 1


def test_f9_frobenius_order_two():
    t = make_tower(3, 1, 2)
    assert t.q == 9 and t.gamma_order == 2
    for a in range(9):
        assert t.frob_power(a, 2) == a
    assert any(t.frob_power(a, 1) != a for a in range(9))


def test_make_tower_errors():
    with pytest.raises(ValueError):
        make_tower(4, 1, 1)
    with pytest.raises(ValueError):
        make_tower(2, 2, 3)


def test_frobenius_fixed_field_and_identity():
    t = make_tower(2, 1, 2)
    w = 2
    assert t.frob_power(w, 1) == t.add(w, 1)  # w^2 = w + 1
    assert t.frob_power(w, 0) == w
    for a in range(t.k_order):
        assert t.frob_power(a, 1) == a


@pytest.mark.parametrize("p,m,n", [(2, 1, 2), (2, 2, 4), (3, 1, 2), (2, 1, 8), (2, 2, 8)])
def test_frobenius_fixed_point_count(p, m, n):
    t = make_tower(p, m, n)
    fixed = sum(1 for a in range(t.q) if t.frob_power(a, 1) == a)
    assert fixed == p ** m
    for a in range(t.q):
        assert t.frob_power(a, t.gamma_order) == a


@pytest.mark.parametrize("p,m,n", [(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 6), (3, 1, 3)])
def test_field_axioms_exhaustive(p, m, n):
    t = make_tower(p, m, n)
    assert t.q <= 64
    elems = range(t.q)
    for a, b in itertools.product(elems, repeat=2):
        assert t.add(a, b) == t.add(b, a)
        assert t.mul(a, b) == t.mul(b, a)
        if b:
            assert t.mul(t.mul(a, t.inv(b)), b) == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
        assert t.mul(a, t.mul(b, c)) == t.mul(t.mul(a, b), c)
    for a in elems:
        assert t.add(a, 0) == a and t.mul(a, 1) == a
        assert t.add(a, t.neg(a)) == 0
        if a:
            assert t.mul(a, t.inv(a)) == 1


def _fields(max_q: int, primes=None) -> list[tuple[int, int]]:
    primes = primes or [p for p in range(2, max_q + 1) if all(p % d for d in range(2, p))]
    return [(p, n) for p in primes for n in range(1, max_q.bit_length()) if p ** n <= max_q]


def _check_kernels(t, a: int, b: int) -> None:
    total = field_add_digits(t, a, b)
    assert t.add(a, b) == total
    assert t.neg(b) == field_neg_digits(t, b)
    assert t.sub(total, b) == a
    assert t.mul(a, b) == field_mul_digits(t, a, b)


# Every field with q <= 81: XOR kernels (p = 2) and Zech-logarithm kernels
# (odd p, prime fields included).
@pytest.mark.parametrize("p,n", _fields(81))
def test_field_kernels_match_digit_oracles_exhaustive(p, n):
    t = make_tower(p, 1, n)
    for a, b in itertools.product(range(t.q), repeat=2):
        _check_kernels(t, a, b)


@pytest.mark.parametrize("p,m,n", [(2, 7, 14), (3, 1, 10)])
def test_field_kernels_match_digit_oracles_random(p, m, n):
    t = make_tower(p, m, n)
    rng = random.Random(0)
    for _ in range(500):
        a, b = rng.randrange(t.q), rng.randrange(1, t.q)
        for x, y in ((a, b), (a, 0), (0, b), (b, b), (b, t.neg(b))):
            _check_kernels(t, x, y)


@pytest.mark.parametrize("p,n", _fields(2 ** 10, primes=(2, 3, 5, 7)))
def test_modulus_and_primitive_element_match_scan_oracles(p, n):
    assert gf._smallest_irreducible(p, n) == smallest_irreducible_scan(p, n)
    t = make_tower(p, 1, n)
    assert t._exp == primitive_element_walk(t)


def test_field_tables_share_one_int_per_value():
    """_exp, _log and _frob of F_{2^14}/F_{2^7} hold at most q distinct int
    objects: each code and each log is one shared int."""
    t = make_tower(2, 7, 14)
    tables = itertools.chain(t._exp, t._log, t._frob)
    assert len({id(x) for x in tables if x is not None}) <= t.q


@pytest.mark.parametrize("p,m,n,modulus,generator", [
    (2, 7, 14, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1), 7),
    (2, 8, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 6),
    (3, 1, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1), 34),
])
def test_large_tower_modulus_and_primitive_element_pinned(p, m, n, modulus, generator):
    t = make_tower(p, m, n)
    assert gf._smallest_irreducible(p, n) == modulus == t.modulus
    assert t._exp[1] == generator


def _check_logexp(t, indices) -> None:
    """_exp lists each nonzero code once, _log inverts it, and at the given
    indices each power is the one before it times g, by the digit oracle."""
    exp, log = t._exp, t._log
    assert sorted(exp) == list(range(1, t.q))
    assert log[0] is None and all(log[c] == i for i, c in enumerate(exp))
    for i in indices:
        assert exp[(i + 1) % (t.q - 1)] == field_mul_digits(t, exp[i], exp[1])


@pytest.mark.parametrize("p,m,n", [(2, 8, 16), (3, 1, 10)])
def test_largest_tower_tables_follow_the_generator(p, m, n):
    t = make_tower(p, m, n)
    _check_logexp(t, random.Random(0).sample(range(t.q - 1), 2000))


@pytest.mark.parametrize("p,n,generator", [(65521, 1, 17), (251, 2, 256)])
def test_large_prime_tower_tables_in_full(p, n, generator):
    """One digit of up to 16 bits, or two of 8: int64 products at most."""
    t = make_tower(p, 1, n)
    assert t._exp[1] == generator
    _check_logexp(t, range(t.q - 1))


@pytest.mark.parametrize("p,m,n", [(2, 2, 8), (2, 5, 10), (3, 3, 6), (5, 1, 4), (31, 1, 2),
                                   (2, 7, 14), (2, 8, 16), (3, 5, 10)])
def test_frobenius_table_is_the_p_to_the_m_power(p, m, n):
    """Every code when q <= 2^10, else 300 seeded ones."""
    t = make_tower(p, m, n)
    codes = range(t.q) if t.q <= 2 ** 10 else random.Random(1).sample(range(t.q), 300)
    for a in codes:
        assert t._frob[a] == field_pow_digits(t, a, p ** m)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2)])
def test_logexp_refuses_a_generator_of_short_period(monkeypatch, p, n):
    """With no prime factor of q - 1 to test, g = 1 passes the order test;
    its powers have period 1, and the build must raise."""
    prime_factors = gf._prime_factors
    monkeypatch.setattr(gf, "_prime_factors",
                        lambda x: [] if x == p ** n - 1 else prime_factors(x))
    with pytest.raises(AssertionError, match="period q - 1"):
        gf.FieldTower(p, 1, n)


def test_logexp_period_check_survives_optimized_mode():
    """The period check is a raise, not an assert: `python -O` keeps it."""
    src = str(Path(gf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("from blockfuse import gf\n"
            "factors = gf._prime_factors\n"
            "gf._prime_factors = lambda x: [] if x == 15 else factors(x)\n"
            "try:\n    gf.FieldTower(2, 1, 4)\n"
            "except AssertionError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "period q - 1" in proc.stdout


def test_modulus_search_skips_candidates_with_roots(monkeypatch):
    tested = []
    is_irreducible = gf._fp_is_irreducible

    def counted(p, f):
        tested.append(f)
        return is_irreducible(p, f)

    monkeypatch.setattr(gf, "_fp_is_irreducible", counted)
    assert gf._smallest_irreducible(2, 14) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    assert len(tested) <= 16


@pytest.mark.parametrize("p,m,n", [(2, 1, 3), (5, 1, 1), (3, 1, 2)])
def test_tower_pickle_roundtrip(p, m, n):
    t = make_tower(p, m, n)
    u = pickle.loads(pickle.dumps(t))
    assert u is not t and u.modulus == t.modulus
    assert u.add.__self__ is u and u.neg.__self__ is u and u.sub.__self__ is u
    for a, b in itertools.product(range(t.q), repeat=2):
        assert (u.add(a, b), u.sub(a, b), u.neg(a), u.mul(a, b)) == \
            (t.add(a, b), t.sub(a, b), t.neg(a), t.mul(a, b))


def test_frobenius_is_field_automorphism():
    t = make_tower(2, 1, 4)
    for a, b in itertools.product(range(t.q), repeat=2):
        assert t.frob_power(t.add(a, b), 1) == t.add(t.frob_power(a, 1), t.frob_power(b, 1))
        assert t.frob_power(t.mul(a, b), 1) == t.mul(t.frob_power(a, 1), t.frob_power(b, 1))


def test_poly_normalization():
    assert make_poly([1, 2, 0, 0]) == (1, 2)
    assert make_poly([0, 0]) == ()


def test_factor_x2_plus_x_over_f2():
    t = make_tower(2, 1, 1)
    unit, factors = factor(t, make_poly([0, 1, 1]))  # x^2 + x
    assert unit == 1
    assert set(factors) == {((0, 1), 1), ((1, 1), 1)}


def test_factor_x3_plus_1_over_f2():
    t = make_tower(2, 1, 1)
    f = make_poly([1, 0, 0, 1])
    _, factors = factor(t, f)
    # oracle: the only degree-1 monic divisors are found by root search
    assert polynomial_roots_brute(t, f) == [1]
    assert set(factors) == {((1, 1), 1), ((1, 1, 1), 1)}


def test_factor_x2_x_1_over_f4():
    t = make_tower(2, 1, 2)
    f = make_poly([1, 1, 1])
    # oracle: roots by exhaustive evaluation are the two cube roots of 1
    roots = polynomial_roots_brute(t, f)
    assert roots == [2, 3]
    _, factors = factor(t, f)
    assert set(factors) == {((2, 1), 1), ((3, 1), 1)}


def test_factor_zero_polynomial_rejected():
    t = make_tower(2, 1, 1)
    with pytest.raises(ValueError):
        factor(t, make_poly([]))


def test_factor_over_subfield_merges_orbits():
    t = make_tower(2, 1, 2)
    f = make_poly([1, 0, 0, 1])  # x^3 + 1, fixed by Frobenius
    _, l_factors = factor(t, f)
    assert len(l_factors) == 3  # splits completely over F4
    _, k_factors = factor_over_subfield(t, f)
    assert set(k_factors) == {((1, 1), 1), ((1, 1, 1), 1)}


def test_factor_over_subfield_rejects_non_rational():
    t = make_tower(2, 1, 2)
    with pytest.raises(ValueError):
        factor_over_subfield(t, make_poly([2, 1]))


_TOWERS = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (5, 1, 1)]


@given(tower_key=st.sampled_from(_TOWERS),
       coeffs=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=13),
       seed=st.integers(min_value=0, max_value=3))
def test_factor_product_roundtrip(tower_key, coeffs, seed):
    t = make_tower(*tower_key)
    f = make_poly([c % t.q for c in coeffs])
    if not f:
        return
    fac = factor(t, f, seed=seed)
    assert expand(t, fac) == f
    for codes, mult in fac[1]:
        assert mult >= 1
        assert codes[-1] == 1  # monic
        if len(codes) > 2:
            assert polynomial_roots_brute(t, codes) == []


@given(tower_key=st.sampled_from([(2, 1, 2), (3, 1, 2)]),
       coeffs=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=9))
def test_factor_over_subfield_roundtrip(tower_key, coeffs):
    t = make_tower(*tower_key)
    f = make_poly([c % t.k_order for c in coeffs])
    if not f:
        return
    fac = factor_over_subfield(t, f)
    assert expand(t, fac) == f
    for codes, _ in fac[1]:
        assert all(t.is_k_rational(c) for c in codes)


def _product_of_small_factors(t, parts, modulus):
    """The monic product of the drawn factors of degree 1 to 3, coefficients
    reduced mod `modulus` (t.q, or t.k_order for a Frobenius-fixed f)."""
    codes = (1,)
    for part in parts:
        codes = gf._pmul(t, codes, [c % modulus for c in part] + [1])
    return make_poly(codes)


_SMALL_FACTORS = st.lists(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                                   min_size=1, max_size=3), min_size=1, max_size=5)


@given(tower_key=st.sampled_from(_TOWERS), parts=_SMALL_FACTORS,
       seed=st.integers(min_value=1, max_value=3))
def test_factor_does_not_depend_on_the_seed(tower_key, parts, seed):
    """The seed only drives the equal-degree splitting, which f reaches with
    several factors of one degree: every seed returns seed 0's result."""
    t = make_tower(*tower_key)
    f = _product_of_small_factors(t, parts, t.q)
    assert factor(t, f, seed=seed) == factor(t, f, seed=0)


@given(tower_key=st.sampled_from([(2, 1, 2), (3, 1, 2), (2, 1, 4)]), parts=_SMALL_FACTORS,
       seed=st.integers(min_value=1, max_value=3))
def test_factor_over_subfield_does_not_depend_on_the_seed(tower_key, parts, seed):
    t = make_tower(*tower_key)
    f = _product_of_small_factors(t, parts, t.k_order)
    assert factor_over_subfield(t, f, seed=seed) == factor_over_subfield(t, f, seed=0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_factor_matches_sympy_over_prime_fields(p):
    """Differential check: over F_p, factor and sympy's factor_list agree on
    the unit and on the monic irreducible factors with multiplicities."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    t = make_tower(p, 1, 1)
    rng = random.Random(p)
    for trial in range(40):
        codes = [rng.randrange(p) for _ in range(rng.randint(1, 12))] + [rng.randrange(1, p)]
        if trial % 4 == 0:  # repeated factors
            codes = list(gf._pmul(t, codes, codes))
        unit, factors = factor(t, make_poly(codes))
        lc, pairs = sympy.Poly(codes[::-1], x, modulus=p).factor_list()
        expected = []
        for fac, mult in pairs:
            coeffs = [int(c) % p for c in fac.all_coeffs()[::-1]]
            scale = pow(coeffs[-1], -1, p)
            expected.append((tuple(c * scale % p for c in coeffs), mult))
            lc *= coeffs[-1] ** mult
        assert unit == int(lc) % p
        assert sorted(factors) == sorted(expected)

"""Arithmetic in finite-field towers F_{p^m} <= F_{p^n}.

The top field L = F_{p^n} is realised as F_p[x] modulo a fixed monic
irreducible of degree n: the lexicographically smallest one, coefficient
tuples compared constant term first.  Elements are integer codes in
[0, p^n); the polynomial sum(c_i x^i) has code sum(c_i p^i), so the code
digits base p are the coefficients, least significant first.

The distinguished subfield K = F_{p^m} is never built as a separate ring.
It lives inside L as the fixed field of the Frobenius generator
a -> a^(p^m), whose powers form the cyclic Galois group of L over K, and
every K-rationality question is decided by that fixed-point test.

The modulus search scans monic degree-n candidates in that order, skips
every candidate with a root in F_p (a linear factor) and runs the full
irreducibility test only on the rest.  The primitive element g is the
smallest code whose order is q - 1, found by testing g^((q-1)/r) != 1 for
each prime r | q - 1.  Multiplying by g is an F_p-linear map on digit
vectors, so numpy matrix products fill the discrete-log tables a block of
powers at a time; multiplication, inversion, powering and Frobenius are
then table lookups, and tower sizes are bounded (p^n up to 2^16).
Addition is chosen once per tower: XOR of codes when p = 2, and otherwise
a Zech-logarithm table Z[k] = log(1 + g^k), with -1 = g^((q-1)/2).

Univariate polynomials over L are tuples of codes, least significant
coefficient first, with no trailing zeros; the zero polynomial is the
empty tuple.  `factor` performs squarefree splitting, then distinct-degree
and seeded equal-degree refinement, entirely over L; `factor_over_subfield`
refines a Frobenius-fixed polynomial into its K-irreducible factors by
merging Galois orbits of L-factors.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

_MAX_TOWER = 2 ** 16


def _prime_factors(x: int) -> list[int]:
    """The distinct primes dividing x, ascending."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _is_prime(x: int) -> bool:
    return x >= 2 and _prime_factors(x) == [x]


# ---------------------------------------------------------------------------
# prime-field polynomial helpers: the tower modulus and its primitive element
# ---------------------------------------------------------------------------

def _fp_mul(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pnorm(out)


def _fp_mod(p: int, a: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...]:
    # m monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - dm
            for k in range(dm + 1):
                r[shift + k] = (r[shift + k] - lead * m[k]) % p
        r.pop()
    return _pnorm(r)


def _fp_powmod(p: int, a: tuple[int, ...], e: int, m: tuple[int, ...]) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _fp_mod(p, a, m)
    while e:
        if e & 1:
            result = _fp_mod(p, _fp_mul(p, result, base), m)
        base = _fp_mod(p, _fp_mul(p, base, base), m)
        e >>= 1
    return result


def _fp_gcd(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    while b:
        inv_lead = pow(b[-1], -1, p)
        bm = tuple((c * inv_lead) % p for c in b)
        a, b = b, _fp_mod(p, a, bm)
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


def _fp_is_irreducible(p: int, f: tuple[int, ...]) -> bool:
    n = len(f) - 1
    x = (0, 1)
    if _fp_powmod(p, x, p ** n, f) != _fp_mod(p, x, f):
        return False
    for ell in _prime_factors(n):
        h = _fp_powmod(p, x, p ** (n // ell), f)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        if _fp_gcd(p, _pnorm(diff), f) != (1,):
            return False
    return True


def _fp_has_root(p: int, f: tuple[int, ...]) -> bool:
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Monic irreducible of degree n over F_p, lexicographically first.

    A candidate with a root in F_p has a linear factor, so for n >= 2 it is
    skipped before the irreducibility test, and the scan starts past the
    candidates with constant term 0 (the root 0); the scan order is unchanged.
    """
    if n == 1:
        return (0, 1)
    for low in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        f = low + (1,)
        if not _fp_has_root(p, f) and _fp_is_irreducible(p, f):
            return f
    raise AssertionError("no irreducible found")  # unreachable


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

class FieldTower:
    """L = F_{p^n} with distinguished subfield K = F_{p^m}, m | n.

    Not constructed directly; use `make_tower`, which caches, so towers
    with equal parameters are the same object and element comparisons may
    rely on tower identity.
    """

    def __init__(self, p: int, m: int, n: int):
        if m < 1 or n < 1 or n % m != 0:
            raise ValueError(f"m={m} must divide n={n}")
        # the size test comes before the primality test, which is trial division
        if n > _MAX_TOWER.bit_length() or p ** n > _MAX_TOWER:
            raise ValueError(f"tower F_{p}^{n} too large (limit {_MAX_TOWER})")
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self.p = p
        self.m = m
        self.n = n
        self.q = p ** n
        self.k_order = p ** m
        self.gamma_order = n // m
        self.modulus: tuple[int, ...] = _smallest_irreducible(p, n)
        self._build_logexp()
        # Addition kernels are bound methods, never lambdas, so the tower
        # stays picklable.
        if p == 2:
            self.add = self.sub = self._xor
            self.neg = self._same
        else:
            # -1 = g^half; Z[k] = log(1 + g^k), where adding 1 changes only
            # the constant digit, and Z[half] = log(0) = None
            self._half = (self.q - 1) // 2
            self._zech = [self._log[c - c % p + (c + 1) % p] for c in self._exp]
            self.add, self.neg, self.sub = self._add_zech, self._neg_zech, self._sub_zech
        # frob(g^i) = g^(i p^m), and frob(0) = 0
        exp, log, frob_e, period = self._exp, self._log, p ** m, self.q - 1
        self._frob: list[int] = [exp[log[a] * frob_e % period] if a else 0
                                 for a in range(self.q)]

    # -- construction internals

    def _code_digits(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            code, digit = divmod(code, self.p)
            out.append(digit)
        return tuple(out)

    def _build_logexp(self) -> None:
        # g has order q - 1 exactly when g^((q-1)/r) != 1 for every prime
        # r | q - 1; g = 1 passes only for q = 2, where it is primitive.
        p, n, q, f = self.p, self.n, self.q, self.modulus
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        g = next(g for g in range(1, q)
                 if all(_fp_powmod(p, self._code_digits(g), e, f) != (1,) for e in cofactors))
        # x -> g x is F_p-linear: digits(g x) = digits(x) . step.  Doubling
        # fills g^0 .. g^(B-1), B near sqrt(q); each later block of B powers is
        # the one before times step^B.  int64: n (p - 1)^2 overflows int32.
        # np.dot, not @: matmul's integer loops are code nothing else in
        # blockfuse runs, and loading them cost about 64 KB of peak RSS.
        # Codes and logs are shared ints, one object per value in every table.
        rows = [_fp_mod(p, (0,) * j + self._code_digits(g), f) for j in range(n)]  # g x^j
        step = np.array([r + (0,) * (n - len(r)) for r in rows], dtype=np.int64)
        block = np.array([[1] + [0] * (n - 1)], dtype=np.int64)
        weights = np.array([p ** j for j in range(n)])
        while len(block) < 1 << (q - 1).bit_length() // 2:
            block = np.concatenate((block, np.dot(block, step) % p))
            step = np.dot(step, step) % p
        ints, exp = list(range(q)), []
        while len(exp) < q - 1:
            exp.extend(map(ints.__getitem__, np.dot(block, weights)[:q - 1 - len(exp)]))
            block = np.dot(block, step) % p
        log: list[int | None] = [None] * q
        for i, c in enumerate(exp):
            log[c] = ints[i]
        if log.count(None) != 1:  # the q - 1 nonzero codes, each once: period q - 1
            raise AssertionError(f"the powers of {g} do not have period q - 1")
        self._exp, self._log = exp, log

    # -- code arithmetic; add, neg and sub are bound in __init__

    def _xor(self, a: int, b: int) -> int:
        return a ^ b

    def _same(self, a: int) -> int:
        return a

    def _add_zech(self, a: int, b: int) -> int:
        # g^i + g^j = g^i (1 + g^(j-i)) = g^(i + Z[j-i])
        if a == 0:
            return b
        if b == 0:
            return a
        i = self._log[a]
        z = self._zech[(self._log[b] - i) % (self.q - 1)]
        if z is None:
            return 0
        return self._exp[(i + z) % (self.q - 1)]

    def _neg_zech(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._half) % (self.q - 1)]

    def _sub_zech(self, a: int, b: int) -> int:
        return self._add_zech(a, self._neg_zech(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def pth_root(self, a: int) -> int:
        return self.pow(a, self.p ** (self.n - 1))

    def frob_power(self, a: int, j: int) -> int:
        for _ in range(j % self.gamma_order):
            a = self._frob[a]
        return a

    def is_k_rational(self, a: int) -> bool:
        return self._frob[a] == a

    def coeffs(self, code: int) -> tuple[int, ...]:
        return self._code_digits(code)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.p, self.m, self.n)

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, m={self.m}, n={self.n})"


@functools.lru_cache(maxsize=None)
def make_tower(p: int, m: int, n: int) -> FieldTower:
    """Tower F_{p^m} <= F_{p^n}; cached, so equal parameters give one object."""
    return FieldTower(p, m, n)


@dataclass(frozen=True)
class FieldElement:
    """An element of the top field of a tower, wrapped around its code."""

    tower: FieldTower
    code: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.tower.coeffs(self.code)

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        return f"GF({self.tower.p}^{self.tower.n}):{list(self.coeffs)}"


# ---------------------------------------------------------------------------
# polynomials over the top field (raw tuples of codes, low degree first)
# ---------------------------------------------------------------------------

def _pnorm(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(t: FieldTower, a, b) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = t.add(out[i], c)
    return _pnorm(out)


def _psub(t: FieldTower, a, b) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = t.sub(out[i], c)
    return _pnorm(out)


def _pscale(t: FieldTower, a, c: int) -> tuple[int, ...]:
    if c == 0:
        return ()
    return _pnorm([t.mul(x, c) for x in a])


def _pmul(t: FieldTower, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = t.add(out[i + j], t.mul(ca, cb))
    return _pnorm(out)


def _pdivmod(t: FieldTower, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv_lead = t.inv(b[-1])
    quo = [0] * max(len(a) - db, 0)
    while len(r) - 1 >= db and r:
        if r[-1] == 0:
            r.pop()
            continue
        c = t.mul(r[-1], inv_lead)
        shift = len(r) - 1 - db
        quo[shift] = c
        for k in range(db + 1):
            r[shift + k] = t.sub(r[shift + k], t.mul(c, b[k]))
        r.pop()
    return _pnorm(quo), _pnorm(r)


def _pmod(t, a, b):
    return _pdivmod(t, a, b)[1]


def _pdiv(t, a, b):
    q, r = _pdivmod(t, a, b)
    if r:
        raise ValueError("polynomial division is not exact")
    return q


def _monic(t: FieldTower, a) -> tuple[int, tuple[int, ...]]:
    if not a:
        return 0, ()
    lead = a[-1]
    if lead == 1:
        return 1, tuple(a)
    return lead, _pscale(t, a, t.inv(lead))


def _pgcd(t: FieldTower, a, b) -> tuple[int, ...]:
    while b:
        a, b = b, _pmod(t, a, b)
    return _monic(t, a)[1]


def _pinvmod(t: FieldTower, a, mod) -> tuple[int, ...]:
    # extended Euclid; requires gcd(a, mod) = 1
    r0, r1 = mod, _pmod(t, a, mod)
    s0, s1 = (), (1,)
    while r1:
        q, r2 = _pdivmod(t, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, _psub(t, s0, _pmul(t, q, s1))
    if len(r0) != 1:
        raise ValueError("polynomial is not invertible modulo the given modulus")
    return _pmod(t, _pscale(t, s0, t.inv(r0[0])), mod)


def _ppowmod(t: FieldTower, a, e: int, mod) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _pmod(t, a, mod)
    while e:
        if e & 1:
            result = _pmod(t, _pmul(t, result, base), mod)
        base = _pmod(t, _pmul(t, base, base), mod)
        e >>= 1
    return result


def _pderiv(t: FieldTower, a) -> tuple[int, ...]:
    out = []
    for i in range(1, len(a)):
        c = a[i]
        k = i % t.p
        acc = 0
        for _ in range(k):
            acc = t.add(acc, c)
        out.append(acc)
    return _pnorm(out)


def _pfrob(t: FieldTower, a, j: int = 1) -> tuple[int, ...]:
    return tuple(t.frob_power(c, j) for c in a)


def _pth_root_poly(t: FieldTower, a) -> tuple[int, ...]:
    # defined when a = g(x^p); returns g with g^p = a
    out = []
    for i in range(0, len(a), t.p):
        out.append(t.pth_root(a[i]))
    return _pnorm(out)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over the tower's top field.

    `codes` holds field codes, least significant coefficient first, with
    no trailing zeros; the zero polynomial has empty codes.
    """

    tower: FieldTower
    codes: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not self.codes

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.tower, _padd(self.tower, self.codes, other.codes))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.tower, _pmul(self.tower, self.codes, other.codes))

    def __mod__(self, other: "Poly") -> "Poly":
        return Poly(self.tower, _pmod(self.tower, self.codes, other.codes))

    def __repr__(self) -> str:
        return f"Poly{list(self.codes)}"


@dataclass(frozen=True)
class Factorization:
    unit: FieldElement
    factors: tuple[tuple[Poly, int], ...]


def _edf(t: FieldTower, f, d: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Split monic squarefree f whose irreducible factors all have degree d."""
    if len(f) - 1 == d:
        return [f]
    q = t.q
    while True:
        a = _pnorm([rng.randrange(q) for _ in range(len(f) - 1)])
        if len(a) < 1:
            continue
        g = _pgcd(t, a, f)
        if not 0 < len(g) - 1 < len(f) - 1:
            if t.p == 2:
                # additive trace from F_{q^d} down to F_2
                acc = _pmod(t, a, f)
                cur = acc
                for _ in range(t.n * d - 1):
                    cur = _ppowmod(t, cur, 2, f)
                    acc = _padd(t, acc, cur)
                g = _pgcd(t, acc, f)
            else:
                e = (q ** d - 1) // 2
                b = _ppowmod(t, a, e, f)
                g = _pgcd(t, _psub(t, b, (1,)), f)
        if 0 < len(g) - 1 < len(f) - 1:
            return _edf(t, g, d, rng) + _edf(t, _pdiv(t, f, g), d, rng)


def _factor_squarefree(t: FieldTower, f, rng: random.Random) -> list[tuple[int, ...]]:
    """Distinct-degree then equal-degree splitting of monic squarefree f."""
    out: list[tuple[int, ...]] = []
    rem = f
    h: tuple[int, ...] = _pmod(t, (0, 1), rem)
    d = 0
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(t, h, t.q, rem)
        g = _pgcd(t, _psub(t, h, (0, 1)), rem)
        if len(g) - 1 > 0:
            out.extend(_edf(t, g, d, rng))
            rem = _pdiv(t, rem, g)
            h = _pmod(t, h, rem)
    if len(rem) - 1 > 0:
        out.append(rem)
    return out


def factor(f: Poly, seed: int = 0) -> Factorization:
    """Complete factorization over the tower's top field.

    The product of the returned monic irreducible factors, taken with
    multiplicity and scaled by the unit, equals the input.  The seed feeds
    the equal-degree splitting; the returned factor set is canonical and
    identical for every seed.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    t = f.tower
    rng = random.Random(seed)
    unit, monic = _monic(t, f.codes)
    irreducibles: set[tuple[int, ...]] = set()
    stack = [monic]
    while stack:
        h = stack.pop()
        if len(h) - 1 < 1:
            continue
        hp = _pderiv(t, h)
        if not hp:
            stack.append(_pth_root_poly(t, h))
            continue
        g = _pgcd(t, h, hp)
        w = _pdiv(t, h, g)
        if len(w) - 1 > 0:
            irreducibles.update(_factor_squarefree(t, w, rng))
        if len(g) - 1 > 0:
            stack.append(g)
    result = []
    rem = monic
    for u in sorted(irreducibles, key=lambda c: (len(c), c)):
        mult = 0
        while True:
            quo, r = _pdivmod(t, rem, u)
            if r:
                break
            rem = quo
            mult += 1
        result.append((Poly(t, u), mult))
    if len(rem) != 1 or rem[0] != 1:
        raise AssertionError("irreducible factors do not multiply back to the polynomial")
    return Factorization(FieldElement(t, unit), tuple(result))


def factor_over_subfield(f: Poly, seed: int = 0) -> Factorization:
    """Factor a Frobenius-fixed polynomial into K-irreducible factors.

    Works inside L: factor over L, then merge each Galois orbit of
    L-factors into its product, which is irreducible over K.
    """
    t = f.tower
    if not all(t.is_k_rational(c) for c in f.codes):
        raise ValueError("polynomial coefficients are not fixed by the Galois action")
    base = factor(f, seed)
    pool: dict[tuple[int, ...], int] = {p.codes: m for p, m in base.factors}
    merged = []
    for codes in sorted(pool, key=lambda c: (len(c), c)):
        if codes not in pool:
            continue
        mult = pool.pop(codes)
        product = codes
        cur = _pfrob(t, codes)
        while cur != codes:
            if pool.pop(cur, None) != mult:
                raise AssertionError("Frobenius orbit of a factor changes multiplicity")
            product = _pmul(t, product, cur)
            cur = _pfrob(t, cur)
        merged.append((Poly(t, product), mult))
    merged.sort(key=lambda pm: (len(pm[0].codes), pm[0].codes))
    return Factorization(base.unit, tuple(merged))

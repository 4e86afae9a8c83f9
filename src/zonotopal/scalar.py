"""Exact arithmetic foundation.

A cyclotomic number is a vector of integer numerators over one positive
denominator in the power basis of Q(zeta_n), so its arithmetic runs on ints
with one gcd per result; a rational is such a number of order 1.
``fractions.Fraction`` is where rationals enter and leave (`Cyclotomic`'s
constructor, `coeffs`, `to_rational` and printing) and in the inverse.  On
top of them: sparse multivariate polynomials with cyclotomic coefficients
and degree-capped power series.  A Todd factor p / (1 - c e^{-p}) is a
series in its linear form p alone: its coefficients, and those of its log,
are found in one variable and expanded in powers of p.  Three bounded
tables serve it: the coefficients and the logs per (c, cap), and the powers
of p per (p, cap).  They are keyed on the representation (a cyclotomic's
order, numerators and denominator), not the value, because equal values of
different orders print differently.

All values are immutable; every operation returns a fresh object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import InternalError, NonMember

_F0 = Fraction(0)
_F1 = Fraction(1)


def rat_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------

def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficient tuple of Phi_n, low degree first.

    Computed from x^n - 1 = prod_{d | n} Phi_d by exact polynomial division.
    """
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divide_exact(num, den):
    """Exact division of integer coefficient lists (low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise InternalError(f"{den} does not divide the coefficient {c}")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, di in enumerate(den):
                num[k + i] -= q * di
    if any(num):
        raise InternalError(f"division by {den} leaves remainder {num}")
    return out


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple:
    """Rows: zeta_n^(phi+k) expanded in the power basis, in integers.

    Row k is derived from x^(phi+k) = x * x^(phi+k-1) reduced modulo Phi_n.
    Covers both raw products (up to x^(2*phi-2)) and plain powers up to
    x^(n-1).  Phi_n is monic with integer coefficients, so the rows are
    integers and a vector of ints reduces to ints.
    """
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    # x^phi = -(Phi_n - x^phi)  since Phi_n is monic
    base = [-c for c in mod[:phi]]
    rows = [tuple(base)]
    for _ in range(max(phi - 2, n - phi - 1)):
        prev = rows[-1]
        shifted = [0] + list(prev[: phi - 1])
        top = prev[phi - 1]
        if top:
            shifted = [s + top * b for s, b in zip(shifted, base)]
        rows.append(tuple(shifted))
    return tuple(rows)


def _convolve(a, b):
    """Polynomial product of coefficient vectors (len = len(a)+len(b)-1)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _reduce_mod(vec, deg, red_table):
    """Reduce a raw product vector (at least ``deg`` long) modulo the
    minimal polynomial.

    ``red_table[k]`` is the length-``deg`` expansion of x^(deg+k) in the
    power basis.  Entries of ``vec`` beyond ``deg`` are folded back in.
    """
    out = list(vec[:deg])
    for k in range(deg, len(vec)):
        c = vec[k]
        if not c:
            continue
        row = red_table[k - deg]
        for i in range(deg):
            if row[i]:
                out[i] = out[i] + c * row[i]
    return out


@lru_cache(maxsize=None)
def _embed_powers(m: int, n: int) -> tuple:
    """Power-basis expansions in Q(zeta_n) of zeta_m^j, j = 0..phi(m)-1,
    as integer rows."""
    if n % m:
        raise InternalError(f"order {m} does not divide {n}")
    phi_n = euler_phi(n)
    step = n // m
    rows = []
    for j in range(euler_phi(m)):
        e = (j * step) % n
        vec = [0] * max(phi_n, e + 1)
        vec[e] = 1
        rows.append(tuple(_reduce_mod(vec, phi_n, _reduction_table(n))))
    return tuple(rows)


class Cyclotomic:
    """sum_j nums[j] zeta_n^j / den in Q(zeta_n), n = order, over the
    power basis zeta^0..zeta^(phi(n)-1).

    ``nums`` is a tuple of phi(n) ints and ``den`` a positive int with
    gcd(den, *nums) = 1, so each value has one stored form at each order,
    and +, -, * and == run on ints with one gcd per result.  ``coeffs``
    gives the rational coefficients nums[j] / den.  The order is whatever
    the computation declared; values of different orders are embedded into
    the lcm on the fly.  Order 1 is the rational fast path used by the vast
    majority of coefficients.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        """From phi(order) rational coefficients (ints or Fractions)."""
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(f"order {order} needs {euler_phi(order)} "
                             f"coefficients, got {len(coeffs)}")
        den = math.lcm(*[q.denominator for q in coeffs])
        value = _reduced(order, [q.numerator * (den // q.denominator)
                                 for q in coeffs], den)
        self.order, self.nums, self.den = order, value.nums, value.den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "Cyclotomic":
        return _CYC_ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _CYC_ONE

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k, stored in the field of its reduced order."""
        k %= n
        g = math.gcd(k, n)
        n, k = n // g, k // g
        if n == 1:
            return _CYC_ONE
        phi = euler_phi(n)
        vec = [0] * max(phi, k + 1)
        vec[k] = 1
        return _make(n, tuple(_reduce_mod(vec, phi, _reduction_table(n))), 1)

    @staticmethod
    def from_powers(n: int, ints, den: int = 1) -> "Cyclotomic":
        """sum_j ints[j] * zeta_n^j / den in Q(zeta_n), for n integers
        ints and a positive integer den: one reduction modulo Phi_n in
        integers, then one division by the gcd."""
        return _reduced(n, _reduce_mod(ints, euler_phi(n),
                                       _reduction_table(n)), den)

    @staticmethod
    def from_angle(q) -> "Cyclotomic":
        """e^(2 pi i q) for rational q."""
        q = Fraction(q) % 1
        return Cyclotomic.root_of_unity(q.denominator, q.numerator)

    # -- structure ---------------------------------------------------------

    def embed(self, n: int) -> "Cyclotomic":
        """Exact embedding into Q(zeta_n); requires order | n.

        Z[zeta_order] is a direct summand of Z[zeta_n], so the numerators'
        gcd, and with it the lowest terms, carry over."""
        if n == self.order:
            return self
        if n % self.order:
            raise InternalError(f"order {self.order} does not divide {n}")
        out = [0] * euler_phi(n)
        for c, row in zip(self.nums, _embed_powers(self.order, n)):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return _make(n, tuple(out), self.den)

    def _common(self, other: "Cyclotomic"):
        """Both values embedded in Q(zeta_lcm) of the two orders."""
        n = self.order * other.order // math.gcd(self.order, other.order)
        return self.embed(n), other.embed(n)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self.nums[0], self.den)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and self.is_rational()

    def __bool__(self) -> bool:
        return any(self.nums)

    def __hash__(self):
        # A rational value hashes as its Fraction.  Any other value lies in
        # Q(zeta_m) exactly for the multiples m of one least order, where it
        # has one power-basis vector; hashing that pair makes equal values
        # of every declared order hash equal and keeps conjugates such as
        # zeta_5 and zeta_5^2 apart.
        if self.is_rational():
            return hash(self.nums[0]) if self.den == 1 \
                else hash(Fraction(self.nums[0], self.den))
        return hash(self._least_form())

    def _least_form(self) -> tuple:
        """(m, coeffs) of this value in Q(zeta_m) for the least such m."""
        n = self.order
        for m in range(3, n):
            # Q(zeta_m) = Q(zeta_(m/2)) for m = 2 mod 4, tried already
            if n % m or m % 4 == 2:
                continue
            coords = linalg.solve([list(r) for r in zip(*_embed_powers(m, n))],
                                  list(self.coeffs))
            if coords is not None:
                return m, tuple(coords)
        return n, self.coeffs

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return _as_cyc(x)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Cyclotomic:
            other = Cyclotomic._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = (self, other) if self.order == other.order \
            else self._common(other)
        return _sum(a.order, a.nums, a.den, b.nums, b.den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple([-v for v in self.nums]), self.den)

    def __sub__(self, other):
        if type(other) is not Cyclotomic:
            other = Cyclotomic._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = (self, other) if self.order == other.order \
            else self._common(other)
        return _sum(a.order, a.nums, a.den, [-v for v in b.nums], b.den)

    def __rsub__(self, other):
        return Cyclotomic._coerce(other).__sub__(self)

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            other = Cyclotomic._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.order == 1:
            if other.order == 1:
                p, q = self.nums[0] * other.nums[0], self.den * other.den
                if q != 1:
                    g = math.gcd(p, q)
                    if g != 1:
                        p, q = p // g, q // g
                return _make(1, (p,), q)
            return _scaled(other, self.nums[0], self.den)
        if other.order == 1:
            return _scaled(self, other.nums[0], other.den)
        a, b = (self, other) if self.order == other.order \
            else self._common(other)
        n, phi = a.order, len(a.nums)
        return _reduced(n, _reduce_mod(_convolve(a.nums, b.nums), phi,
                                       _reduction_table(n)), a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("inversion of zero cyclotomic")
        if self.order == 1:
            p = self.nums[0]
            return _make(1, (self.den if p > 0 else -self.den,), abs(p))
        # (nums / den)^-1 = den * nums^-1, nums^-1 found over Q
        phi = len(self.nums)
        u = _poly_xgcd_mod(self.nums, cyclotomic_polynomial(self.order))
        u = u + [_F0] * (phi - len(u))
        return Cyclotomic(self.order, [q * self.den for q in u[:phi]])

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return Cyclotomic._coerce(other) * self.inv()

    def __eq__(self, other):
        if type(other) is not Cyclotomic:
            other = Cyclotomic._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = (self, other) if self.order == other.order \
            else self._common(other)
        return a.den == b.den and a.nums == b.nums

    def __repr__(self):
        if self.is_rational():
            return rat_str(Fraction(self.nums[0], self.den))
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(rat_str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else rat_str(c) + "*")
                parts.append(f"{head}z{self.order}^{j}" if j > 1
                             else f"{head}z{self.order}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def to_json(self):
        return {"order": self.order, "coeffs": [rat_str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "Cyclotomic":
        order, coeffs = obj["order"], obj["coeffs"]
        # phi(n) >= sqrt(n/2): the bound rejects a huge order before
        # euler_phi factors it
        if type(order) is not int or order < 1 \
                or not isinstance(coeffs, list) \
                or order > 2 * len(coeffs) ** 2 \
                or len(coeffs) != euler_phi(order):
            raise ValueError(f"a cyclotomic needs an order n >= 1 and "
                             f"phi(n) coefficients, got {obj}")
        return Cyclotomic(order, [Fraction(str(c)) for c in coeffs])


_new = object.__new__


def _make(order: int, nums: tuple, den: int) -> Cyclotomic:
    """The Cyclotomic stored as (order, nums, den), already in lowest
    terms."""
    c = _new(Cyclotomic)
    c.order, c.nums, c.den = order, nums, den
    return c


def _reduced(order: int, nums, den: int) -> Cyclotomic:
    """sum_j nums[j] zeta^j / den for ints nums and a positive int den,
    divided once by gcd(den, *nums)."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    return _make(order, tuple(nums), den)


def _sum(order: int, a, da: int, b, db: int) -> Cyclotomic:
    """a / da + b / db for integer vectors a, b at one order."""
    if da == db:
        return _reduced(order, [x + y for x, y in zip(a, b)], da)
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    return _reduced(order, [x * sa + y * sb for x, y in zip(a, b)], da * sa)


def _scaled(c: Cyclotomic, p: int, q: int) -> Cyclotomic:
    """c * p / q for ints p and q > 0."""
    return _reduced(c.order, [v * p for v in c.nums], c.den * q)


_CYC_ZERO = _make(1, (0,), 1)
_CYC_ONE = _make(1, (1,), 1)


def _poly_xgcd_mod(a, mod):
    """Inverse of the coefficient list ``a`` modulo ``mod`` over Q.

    Extended Euclid in Q[x]; gcd(a, mod) is a nonzero constant because mod is
    a product of distinct irreducibles none of which divides a != 0.
    """

    def deg(p):
        d = len(p) - 1
        while d >= 0 and not p[d]:
            d -= 1
        return d

    def divmod_poly(num, den):
        num = list(num)
        dd = deg(den)
        q = [_F0] * max(deg(num) - dd + 1, 0)
        lead = den[dd]
        for k in range(deg(num) - dd, -1, -1):
            c = num[k + dd] / lead
            q[k] = c
            if c:
                for i in range(dd + 1):
                    num[k + i] -= c * den[i]
        return q, num[: dd] if dd > 0 else [_F0]

    def mul(p, q):
        return _convolve(p, q) if p and q else [_F0]

    def sub(p, q):
        n = max(len(p), len(q))
        p = list(p) + [_F0] * (n - len(p))
        q = list(q) + [_F0] * (n - len(q))
        return [x - y for x, y in zip(p, q)]

    r0, r1 = [Fraction(c) for c in mod], [Fraction(c) for c in a]
    s0, s1 = [_F0], [_F1]
    while deg(r1) > 0:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
    c = r1[deg(r1)]
    return [x / c for x in s1]


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------

def s_vars(d: int, with_s0: bool = False) -> tuple:
    names = tuple(f"s{i}" for i in range(1, d + 1))
    return (("s0",) + names) if with_s0 else names


def t_vars(d: int) -> tuple:
    return tuple(f"t{i}" for i in range(1, d + 1))


def _as_cyc(c) -> Cyclotomic:
    if isinstance(c, Cyclotomic):
        return c
    if type(c) is int:
        return _make(1, (c,), 1)
    c = Fraction(c)
    return _make(1, (c.numerator,), c.denominator)


class MPoly:
    """Sparse multivariate polynomial with cyclotomic coefficients.

    ``terms`` maps dense exponent tuples to nonzero Cyclotomic coefficients;
    the variable name tuple is fixed per polynomial and must agree between
    operands.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _as_cyc(c)
                if c:
                    if len(e) != len(self.vars):
                        raise ValueError(f"exponent {e} does not match "
                                         f"the variables {self.vars}")
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(vars, c) -> "MPoly":
        return MPoly(vars, {(0,) * len(vars): _as_cyc(c)})

    @staticmethod
    def variable(vars, i) -> "MPoly":
        e = [0] * len(vars)
        e[i] = 1
        return MPoly(vars, {tuple(e): _CYC_ONE})

    @staticmethod
    def linear_form(vars, coeffs) -> "MPoly":
        """sum coeffs[i] * vars[i]."""
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * len(vars)
                e[i] = 1
                terms[tuple(e)] = _as_cyc(c)
        return MPoly(vars, terms)

    # -- queries -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self) -> Cyclotomic:
        return self.terms.get((0,) * len(self.vars), _CYC_ZERO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def slices(self):
        """Nonzero homogeneous slices as {degree: MPoly}."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {k: MPoly(self.vars, t) for k, t in sorted(out.items())}

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp) -> Cyclotomic:
        return self.terms.get(tuple(exp), _CYC_ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = MPoly.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            cur = terms.get(e)
            s = c if cur is None else cur + c
            if s:
                terms[e] = s
            elif cur is not None:
                del terms[e]
        out = MPoly.__new__(MPoly)
        out.vars, out.terms = self.vars, terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MPoly.__new__(MPoly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = MPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            c = _as_cyc(other)
            if not c:
                return MPoly(self.vars)
            out = MPoly.__new__(MPoly)
            out.vars = self.vars
            out.terms = {e: v * c for e, v in self.terms.items()}
            return out
        self._check(other)
        return self.mul_capped(other, None)

    __rmul__ = __mul__

    def mul_capped(self, other, cap):
        """Product, discarding total degree > cap when cap is not None.

        The right operand's terms are sorted by degree once, so the inner
        loop stops at the first term past the cap.
        """
        right = sorted(((sum(e), e, c) for e, c in other.terms.items()),
                       key=lambda t: t[0])
        terms = {}
        for e1, c1 in self.terms.items():
            room = math.inf if cap is None else cap - sum(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                e = tuple(a + b for a, b in zip(e1, e2))
                cur = terms.get(e)
                s = c1 * c2 if cur is None else cur + c1 * c2
                if s:
                    terms[e] = s
                elif cur is not None:
                    del terms[e]
        out = MPoly.__new__(MPoly)
        out.vars, out.terms = self.vars, terms
        return out

    def truncate(self, cap: int) -> "MPoly":
        return MPoly(self.vars,
                     {e: c for e, c in self.terms.items() if sum(e) <= cap})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = MPoly.constant(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        """Hashes the terms in sorted order, so equal polynomials built in
        any term order hash equal.  Computed once and kept: every
        constructor sets ``terms`` once, and nothing changes it after."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.vars, tuple(self.sorted_terms())))
            return self._hash

    # -- calculus ------------------------------------------------------------

    def derivative(self, i: int) -> "MPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return MPoly(self.vars, terms)

    def apply_diff(self, f: "MPoly") -> "MPoly":
        """Act on ``f`` as a constant-coefficient differential operator.

        Variable i of the operator differentiates variable i of ``f`` (the
        s/t index pairing); leftover s0 exponents are not allowed here.
        """
        result = MPoly(f.vars)
        for e, c in self.terms.items():
            g = f
            for i, k in enumerate(e):
                for _ in range(k):
                    g = g.derivative(i)
                    if not g:
                        break
            if g:
                result = result + g * c
        return result

    def evaluate(self, point) -> Cyclotomic:
        """Exact evaluation at a rational/cyclotomic point.

        At a point of ints and Fractions each monomial is one int or
        Fraction product, which scales its coefficient's numerators once,
        and the terms of each declared order are summed in integers over a
        common denominator.  A point needs one coordinate per variable.
        """
        if len(point) != len(self.vars):
            raise ValueError(f"a point of {self.vars} needs {len(self.vars)} "
                             f"coordinates, got {len(point)}")
        total = _CYC_ZERO
        if not all(type(v) is int or type(v) is Fraction for v in point):
            for e, c in self.terms.items():
                v = c
                for i, k in enumerate(e):
                    for _ in range(k):
                        v = v * point[i]
                total = total + v
            return total
        sums = {}           # order -> (numerators, denominator)
        for e, c in self.terms.items():
            m = 1
            for i, k in enumerate(e):
                if k:
                    m *= point[i] ** k
            if type(m) is Fraction:
                p, q = m.numerator, m.denominator * c.den
            else:
                p, q = m, c.den
            acc = sums.get(c.order)
            if acc is None:
                sums[c.order] = ([v * p for v in c.nums], q)
                continue
            nums, den = acc
            if den % q:
                g = q // math.gcd(den, q)
                nums, den = [v * g for v in nums], den * g
            p *= den // q
            sums[c.order] = ([a + v * p for a, v in zip(nums, c.nums)], den)
        for order, (nums, den) in sums.items():
            total = total + _reduced(order, nums, den)
        return total

    def substitute(self, new_vars, images) -> "MPoly":
        """Ring map sending variable i to images[i] (MPolys over new_vars)."""
        result = MPoly(new_vars)
        for e, c in self.terms.items():
            term = MPoly.constant(new_vars, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * images[i]
                    if not term:
                        break
            result = result + term
        return result

    # -- serialization -------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k)
            cs = repr(c)
            if " " in cs or (not c.is_rational() and "/" in cs):
                cs = f"({cs})"
            if mono:
                bits.append(mono if c.is_one() else f"{cs}*{mono}")
            else:
                bits.append(cs)
        return " + ".join(bits)

    def to_json(self):
        return [{"exp": list(e), "coeff": c.to_json()}
                for e, c in self.sorted_terms()]

    @staticmethod
    def from_json(vars, obj) -> "MPoly":
        terms = {}
        for t in obj:
            e = t["exp"]
            if not isinstance(e, list) or len(e) != len(vars) \
                    or any(type(k) is not int or k < 0 for k in e):
                raise ValueError(f"an exponent needs {len(vars)} "
                                 f"non-negative integers, got {e}")
            terms[tuple(e)] = Cyclotomic.from_json(t["coeff"])
        return MPoly(vars, terms)


def divide_by_linear(p: MPoly, linear: MPoly) -> MPoly:
    """Exact division by a degree-1 form; raises NonMember on a remainder.

    The pivot is the variable of the form's first term.  Each step takes
    the leading term of the remainder, with the pivot exponent first and
    then the exponent tuple, as the next quotient term q, and subtracts q
    times the form from one remainder dict in place.  That step cancels
    the leading term and touches only terms whose pivot exponent is one
    lower, so the leading terms are those of each pivot exponent in turn,
    from the highest down to 1, each in decreasing order.  A remainder
    left with pivot exponent 0 is not a multiple.
    """
    if linear.total_degree() != 1 or not linear.is_homogeneous():
        raise ValueError("divisor must be a homogeneous linear form")
    p._check(linear)
    form = [(e.index(1), c) for e, c in linear.terms.items()]
    pivot, c_piv = form[0]
    inv = c_piv.inv()
    rest = form[1:]
    rem = dict(p.terms)
    quot = {}
    for level in range(max((e[pivot] for e in rem), default=0), 0, -1):
        for lead in sorted([e for e in rem if e[pivot] == level],
                           reverse=True):
            q = rem.pop(lead) * inv
            ne = (*lead[:pivot], level - 1, *lead[pivot + 1:])
            quot[ne] = q
            for k, c in rest:
                e = (*ne[:k], ne[k] + 1, *ne[k + 1:])
                cur = rem.get(e)
                if cur is None:
                    rem[e] = -(q * c)
                else:
                    s = cur - q * c
                    if s:
                        rem[e] = s
                    else:
                        del rem[e]
    if rem:
        raise NonMember(f"division of {p} by {linear} leaves remainder "
                        f"{MPoly(p.vars, rem)}")
    out = MPoly.__new__(MPoly)
    out.vars, out.terms = p.vars, quot
    return out


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """An MPoly together with a total-degree cap.

    Addition keeps the cap; multiplication takes the min cap and truncates.
    """

    __slots__ = ("cap", "body")

    def __init__(self, body: MPoly, cap: int):
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.cap = cap
        self.body = body.truncate(cap)

    @staticmethod
    def constant(vars, c, cap) -> "TruncatedSeries":
        return TruncatedSeries(MPoly.constant(vars, c), cap)

    @property
    def vars(self):
        return self.body.vars

    def _same_cap(self, other):
        """Sums need one cap: a mismatch is a truncation bug upstream."""
        if self.cap != other.cap:
            raise InternalError(f"adding series with caps {self.cap} and "
                                f"{other.cap}")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._same_cap(other)
            return TruncatedSeries(self.body + other.body, self.cap)
        return TruncatedSeries(self.body + other, self.cap)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._same_cap(other)
            return TruncatedSeries(self.body - other.body, self.cap)
        return TruncatedSeries(self.body - other, self.cap)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            cap = min(self.cap, other.cap)
            return TruncatedSeries(self.body.mul_capped(other.body, cap), cap)
        return TruncatedSeries(self.body * other, self.cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.cap == other.cap and self.body == other.body)

    def __repr__(self):
        return f"({self.body!r}) + O(deg {self.cap + 1})"

    def inverse(self) -> "TruncatedSeries":
        """Reciprocal of a series with invertible constant term."""
        c0 = self.body.constant_term()
        if not c0:
            raise ZeroDivisionError("series has no constant term")
        inv0 = c0.inv()
        g = MPoly.constant(self.body.vars, 1) - self.body * inv0
        acc = MPoly.constant(self.body.vars, 1)
        pw = MPoly.constant(self.body.vars, 1)
        for _ in range(self.cap):
            pw = pw.mul_capped(g, self.cap)
            if not pw:
                break
            acc = acc + pw
        return TruncatedSeries(acc * inv0, self.cap)


def exp_series(p: MPoly, cap: int) -> TruncatedSeries:
    """exp of a polynomial with zero constant term, truncated at cap.

    Degree by degree, by the graded Euler recursion
    m E_m = sum_k k P_k E_{m-k}, where P_k is the degree-k part of p and
    E_m that of exp(p) (Knuth, TAOCP vol. 2, 4.7).  So degree m costs one
    product of each part of p with a part of the result found already, and
    no power of p is formed.
    """
    if p.constant_term():
        raise ValueError(f"exp_series needs a zero constant term, got {p}")
    parts = [(k, [(e, c * k) for e, c in part.terms.items()])
             for k, part in p.slices().items() if k <= cap]
    levels = [{(0,) * len(p.vars): _CYC_ONE}]
    terms = dict(levels[0])
    for m in range(1, cap + 1):
        level = {}
        for k, part in parts:
            if k > m:
                break
            for e2, c2 in levels[m - k].items():
                for e1, c1 in part:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    cur = level.get(e)
                    level[e] = c1 * c2 if cur is None else cur + c1 * c2
        inv_m = _as_cyc(Fraction(1, m))
        level = {e: c * inv_m for e, c in level.items() if c}
        levels.append(level)
        terms.update(level)
    body = MPoly.__new__(MPoly)
    body.vars, body.terms = p.vars, terms
    return TruncatedSeries(body, cap)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2."""
    if k == 0:
        return _F1
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    total = _F0
    for j in range(k):
        total += math.comb(k + 1, j) * bernoulli(j)
    return -total / (k + 1)


def todd_factor(linear: MPoly, c, cap: int) -> TruncatedSeries:
    """Truncation of p / (1 - c * exp(-p)) for a linear form p.

    The factor is a series in p alone: sum_k a_k p^k, where a_k are the
    coefficients of t / (1 - c e^{-t}), Apostol-Bernoulli numbers in c
    (Apostol, Pacific J. Math. 1951).  Both parts come from bounded tables:
    a_0..a_cap from `_todd_coefficients`, computed once per (c, cap) in the
    one-variable ring, and the powers of p from `_linear_powers`, once per
    (p, cap).  So no multivariate series is inverted or multiplied here.

    The tables are keyed on representations, not values: c as its stored
    (order, nums, den) and p as its coefficients'.  Equal values of different
    orders (an order-2 and an order-1 -1) give the same numbers but print
    different JSON, so each keeps its own entry and the factor's
    coefficients keep c's order.
    """
    _check_form(linear, cap)
    c = _as_cyc(c)
    terms = {}
    for a, power in zip(_todd_coefficients(c.order, c.nums, c.den, cap),
                        _linear_powers(len(linear.vars), _form_key(linear),
                                       cap)):
        if a:
            for e, m in power:
                terms[e] = m * a
    body = MPoly.__new__(MPoly)
    body.vars, body.terms = linear.vars, terms
    return TruncatedSeries(body, cap)


def todd_log(linear: MPoly, c, cap: int) -> tuple:
    """(lead, v, log) with p / (1 - c e^{-p}) = lead * p^v * exp(log) for a
    linear form p, where log = sum_{k=1..cap} l_k p^k.

    v is 0 for c = 1 (then lead = 1) and 1 otherwise (lead = 1/(1 - c)).
    So a product of Todd factors is its leads and its p^v times the exp
    of the sum of the logs: the logs add where the factors multiply.  The
    l_k come from `_todd_logs`, one bounded table per (c, cap) keyed as
    `_todd_coefficients` is, and the powers of p from `_linear_powers`.
    """
    _check_form(linear, cap)
    c = _as_cyc(c)
    lead, v, logs = _todd_logs(c.order, c.nums, c.den, cap)
    terms = {}
    for l, power in zip(logs, _linear_powers(len(linear.vars),
                                             _form_key(linear), cap)[1:]):
        if l:
            for e, m in power:
                terms[e] = m * l
    body = MPoly.__new__(MPoly)
    body.vars, body.terms = linear.vars, terms
    return lead, v, body


@lru_cache(maxsize=256)
def _todd_logs(order: int, nums: tuple, den: int, cap: int) -> tuple:
    """(lead, v, (l_1..l_cap)) with t / (1 - c e^{-t}) = lead t^v
    exp(sum_k l_k t^k), c the Cyclotomic stored as (order, nums, den).

    The factor comes from `todd_factor` in one variable at cap + 1, so that
    u = factor / (lead t^v) is known to degree cap.  Its log follows from
    u' = (log u)' u, that is k l_k = k u_k - sum_{0<j<k} j l_j u_{k-j}.
    """
    t = MPoly.variable(("t",), 0)
    body = todd_factor(t, _make(order, nums, den), cap + 1).body
    v = 0 if body.constant_term() else 1
    lead = body.coefficient((v,))
    inv = lead.inv()
    u = [body.coefficient((v + k,)) * inv for k in range(cap + 1)]
    logs = []
    for k in range(1, cap + 1):
        acc = u[k] * k
        for j in range(1, k):
            acc = acc - logs[j - 1] * u[k - j] * j
        logs.append(acc * Fraction(1, k))
    return lead, v, tuple(logs)


def _check_form(linear: MPoly, cap: int):
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if linear and (linear.total_degree() != 1 or not linear.is_homogeneous()):
        raise ValueError("expected a homogeneous linear form")


def _form_key(linear: MPoly) -> tuple:
    """A linear form as the `_linear_powers` key: (i, order, nums, den)
    over its nonzero coefficients."""
    return tuple((e.index(1), a.order, a.nums, a.den)
                 for e, a in linear.terms.items())


@lru_cache(maxsize=256)
def _todd_coefficients(order: int, nums: tuple, den: int, cap: int) -> tuple:
    """a_0..a_cap of t / (1 - c e^{-t}), c the Cyclotomic stored as
    (order, nums, den).

    c = 1 gives (-1)^k B_k / k! (removable singularity); c != 1 multiplies
    t by the series inverse of 1 - c e^{-t}, whose constant term 1 - c is
    invertible.
    """
    c = _make(order, nums, den)
    if c.is_one():
        return tuple(_as_cyc(bernoulli(k) * Fraction((-1) ** k,
                                                     math.factorial(k)))
                     for k in range(cap + 1))
    t = MPoly.variable(("t",), 0)
    den = TruncatedSeries.constant(t.vars, 1, cap) - exp_series(-t, cap) * c
    series = (TruncatedSeries(t, cap) * den.inverse()).body
    return tuple(series.coefficient((k,)) for k in range(cap + 1))


@lru_cache(maxsize=256)
def _linear_powers(nvars: int, form: tuple, cap: int) -> tuple:
    """p^0..p^cap of p = sum alpha_i s_i, given as
    ((i, order, nums, den), ...) over its nonzero alpha_i.

    Row k lists (e, k!/e! alpha^e) over the exponents e with |e| = k, in the
    order repeated multiplication by p first produces them.
    """
    alphas = [(i, _make(order, nums, den)) for i, order, nums, den in form]
    rows = [(((0,) * nvars, _CYC_ONE),)]
    exps = [(0,) * nvars]
    for k in range(1, cap + 1):
        exps = list(dict.fromkeys(e1[:i] + (e1[i] + 1,) + e1[i + 1:]
                                  for e1 in exps for i, _ in alphas))
        row = []
        for e in exps:
            m = _as_cyc(math.factorial(k) // math.prod(
                math.factorial(e[i]) for i, _ in alphas))
            for i, alpha in alphas:
                for _ in range(e[i]):
                    m = m * alpha
            row.append((e, m))
        rows.append(tuple(row))
    return tuple(rows)

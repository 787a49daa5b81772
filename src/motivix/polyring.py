"""Bivariate polynomial and rational-function arithmetic over small
constant fields, plus the univariate resultant mod p.

Scalars live in Q(eps, cbrt4, i), presented as a product of univariate
quotients (eps^2 = eps - 1, cbrt4^3 = 4, i^2 = -1).  Each value carries
the tuple of generators it actually uses and operations join those
tuples on the fly, so no primitive element is ever computed and plain
rational values stay one-dimensional.  Only MultiNf arithmetic joins
generator sets: a BiPoly keeps none of its own, and its coefficients
meet only when MultiNf combines them.
"""

import itertools
import operator
from fractions import Fraction as Rat

from .errors import InvalidInput, ShapeError, VerificationError
from .exact import solve_field

# name -> monic minpoly, ascending coefficients
KNOWN_GENS = (
    ("eps", (Rat(1), Rat(-1), Rat(1))),
    ("cbrt4", (Rat(-4), Rat(0), Rat(0), Rat(1))),
    ("i", (Rat(1), Rat(0), Rat(1))),
)
_GEN_INDEX = {name: k for k, (name, _) in enumerate(KNOWN_GENS)}
_GEN_POLY = {name: poly for name, poly in KNOWN_GENS}
_GEN_DEG = {name: len(poly) - 1 for name, poly in KNOWN_GENS}


def check_spec(spec):
    spec = tuple(spec)
    seen = set()
    for name in spec:
        if name not in _GEN_INDEX:
            raise InvalidInput("unknown constant %r" % (name,))
        if name in seen:
            raise InvalidInput("repeated constant %r" % (name,))
        seen.add(name)
    if list(spec) != sorted(spec, key=_GEN_INDEX.__getitem__):
        raise InvalidInput("constants out of canonical order: %r" % (spec,))
    return spec


def join_specs(a, b):
    names = set(a) | set(b)
    return tuple(n for n, _ in KNOWN_GENS if n in names)


def _reduce(spec, items):
    """Coefficient dict of sum(q * gens^exps) over (exps, q) items:
    every exponent below its generator's degree, no zero values."""
    degs = tuple(_GEN_DEG[n] for n in spec)
    clean = {}
    work = list(items)
    while work:
        exps, q = work.pop()
        if not q:
            continue
        hot = None
        for k, e in enumerate(exps):
            if e >= degs[k]:
                hot = k
                break
        if hot is None:
            clean[exps] = clean.get(exps, 0) + q
            continue
        # rewrite gen^d via the minpoly, once, and requeue
        poly = _GEN_POLY[spec[hot]]
        d = degs[hot]
        base = list(exps)
        base[hot] -= d
        for k in range(d):
            if poly[k] == 0:
                continue
            e2 = list(base)
            e2[hot] += k
            work.append((tuple(e2), -poly[k] * q))
    return {e: v for e, v in clean.items() if v}


class MultiNf:
    """Element of the product presentation Q[gens]/(minpolys).

    The public constructors validate; arithmetic on valid values builds
    its results with _make, which does not check again.
    """

    __slots__ = ("spec", "c")

    def __init__(self, spec, coeffs):
        spec = check_spec(spec)
        items = []
        for exps, q in coeffs.items():
            q = Rat(q)
            if q == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(spec):
                raise ShapeError("exponent tuple %r for spec %r" % (exps, spec))
            items.append((exps, q))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "c", _reduce(spec, items))

    @classmethod
    def _make(cls, spec, c):
        """Trusted constructor: spec canonical, c reduced, Rat, no zeros."""
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "c", c)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MultiNf is immutable")

    # -- constructors

    @classmethod
    def from_fraction(cls, q, spec=()):
        spec = check_spec(spec)
        return cls(spec, {(0,) * len(spec): Rat(q)})

    @classmethod
    def zero(cls, spec=()):
        return cls.from_fraction(0, spec)

    @classmethod
    def one(cls, spec=()):
        return cls.from_fraction(1, spec)

    @classmethod
    def gen(cls, name):
        spec = check_spec((name,))
        return cls(spec, {(1,): Rat(1)})

    # -- structure

    def lift(self, spec):
        if spec == self.spec:
            return self
        spec = check_spec(spec)
        pos = []
        for n in self.spec:
            if n not in spec:
                raise ShapeError("cannot lift %r into spec %r" % (self.spec, spec))
            pos.append(spec.index(n))
        out = {}
        for exps, q in self.c.items():
            e2 = [0] * len(spec)
            for k, e in enumerate(exps):
                e2[pos[k]] = e
            out[tuple(e2)] = q
        return MultiNf._make(spec, out)

    def is_zero(self):
        return not self.c

    def _pair(self, other):
        if isinstance(other, MultiNf):
            if other.spec == self.spec:
                return self, other
            spec = join_specs(self.spec, other.spec)
            return self.lift(spec), other.lift(spec)
        if isinstance(other, (int, Rat)):
            c = {(0,) * len(self.spec): Rat(other)} if other else {}
            return self, MultiNf._make(self.spec, c)
        return None

    # -- arithmetic

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = dict(a.c)
        for e, q in b.c.items():
            s = out.pop(e, 0) + q
            if s:
                out[e] = s
        return MultiNf._make(a.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiNf._make(self.spec, {e: -q for e, q in self.c.items()})

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0] + -pair[1]

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if len(a.c) == 1 == len(b.c):  # one term each: rewrite only a wrap
            ((e1, q1),) = a.c.items()
            ((e2, q2),) = b.c.items()
            e = tuple(map(operator.add, e1, e2))
            if all(k < _GEN_DEG[n] for n, k in zip(a.spec, e)):
                return MultiNf._make(a.spec, {e: q1 * q2})
            return MultiNf._make(a.spec, _reduce(a.spec, [(e, q1 * q2)]))
        out = {}
        for e1, q1 in a.c.items():
            for e2, q2 in b.c.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + q1 * q2
        return MultiNf._make(a.spec, _reduce(a.spec, out.items()))

    __rmul__ = __mul__

    def inverse(self):
        """1 / self.  A one-term value q * prod g^e is inverted in closed
        form, as q^-1 * prod (g^-1)^e, and back-checked with one product;
        a value of two or more terms solves a linear system."""
        if self.is_zero():
            raise InvalidInput("division by zero in the constant field")
        if len(self.c) > 1:
            return self._inverse_by_solve()
        ((exps, q),) = self.c.items()
        inv = MultiNf._make(self.spec, {(0,) * len(exps): 1 / q})
        for k, e in enumerate(exps):
            for _ in range(e):
                inv = inv * _gen_inverse(self.spec, k)
        if self * inv != 1:
            raise VerificationError("closed-form inverse fails its back-check")
        return inv

    def _inverse_by_solve(self):
        """The inverse as the solution x of self * x = 1, one linear
        system over Q in the coordinates of the basis monomials."""
        basis = list(itertools.product(*[range(_GEN_DEG[n]) for n in self.spec]))
        index = {e: k for k, e in enumerate(basis)}
        cols = []
        for e in basis:
            prod = self * MultiNf._make(self.spec, {e: Rat(1)})
            col = [Rat(0)] * len(basis)
            for e2, q in prod.c.items():
                col[index[e2]] = q
            cols.append(col)
        rows = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
        rhs = [Rat(0)] * len(basis)
        rhs[index[(0,) * len(self.spec)]] = Rat(1)
        sol = solve_field(rows, rhs)
        if sol is None:
            raise VerificationError("nonzero field element must be invertible")
        return MultiNf._make(
            self.spec, {e: q for e, q in zip(basis, sol) if q != 0}
        )

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        if isinstance(other, (int, Rat)):
            c = {e: q * other for e, q in inv.c.items()} if other else {}
            return MultiNf._make(inv.spec, c)
        return inv * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = MultiNf._make(self.spec, {(0,) * len(self.spec): Rat(1)})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            if not other:
                return not self.c
            return len(self.c) == 1 and self.c.get((0,) * len(self.spec)) == other
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.c == b.c

    def __hash__(self):
        q = self.c.get((0,) * len(self.spec), 0)
        if len(self.c) == (q != 0):  # rational: hash as the Fraction
            return hash(q)
        lifted = self.lift(tuple(n for n, _ in KNOWN_GENS))
        return hash(frozenset(lifted.c.items()))

    # -- output

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for exps in sorted(self.c):
            q = self.c[exps]
            mono = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(self.spec, exps)
                if e
            )
            if mono:
                parts.append("%s*%s" % (q, mono) if q != 1 else mono)
            else:
                parts.append(str(q))
        return " + ".join(parts)


ZERO = MultiNf._make((), {})  # immutable, so one zero serves every caller


def _gen_inverse(spec, k):
    """g^-1 for g = spec[k], from its monic minpoly g^d + ... + c_0:
    g * (g^(d-1) + ... + c_1) = -c_0."""
    poly = _GEN_POLY[spec[k]]
    c = {}
    for j, cj in enumerate(poly[1:]):
        if cj:
            c[tuple(j if m == k else 0 for m in range(len(spec)))] = -cj / poly[0]
    return MultiNf._make(spec, c)


def _coerce_scalar(v):
    if isinstance(v, MultiNf):
        return v
    if isinstance(v, (int, Rat)):  # as MultiNf.from_fraction(v) gives it
        return MultiNf._make((), {(): Rat(v)} if v else {})
    raise InvalidInput("cannot use %r as a field scalar" % (v,))


class BiPoly:
    """Polynomial in x, y with MultiNf coefficients; immutable.

    Each coefficient keeps its own spec.  The public constructor
    validates; arithmetic on valid values builds its results with _make,
    which does not check again.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        items = [(key, _coerce_scalar(v)) for key, v in coeffs.items()]
        clean = {}
        for (i, j), v in items:
            if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                raise InvalidInput("bad monomial (%r, %r)" % (i, j))
            if (i, j) in clean:
                v = clean[(i, j)] + v
            clean[(i, j)] = v
        object.__setattr__(
            self, "c", {k: v for k, v in clean.items() if not v.is_zero()}
        )

    @classmethod
    def _make(cls, c):
        """Trusted constructor: c maps (i, j) pairs of ints >= 0 to
        nonzero MultiNf values."""
        self = object.__new__(cls)
        object.__setattr__(self, "c", c)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def const(cls, v):
        return cls({(0, 0): v})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def var_x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def var_y(cls):
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, i, j, v=1):
        return cls({(i, j): v})

    def is_zero(self):
        return not self.c

    @property
    def deg_x(self):
        return max((i for (i, _) in self.c), default=-1)

    @property
    def deg_y(self):
        return max((j for (_, j) in self.c), default=-1)

    def coeff(self, i, j):
        return self.c.get((i, j), ZERO)

    def __add__(self, other):
        if isinstance(other, (int, Rat, MultiNf)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.c)
        for k, v in other.c.items():
            if k in out:
                v = out[k] + v
            out[k] = v
        return BiPoly._make({k: v for k, v in out.items() if not v.is_zero()})

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._make({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Rat, MultiNf)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Rat, MultiNf)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                k = (i1 + i2, j1 + j2)
                t = v1 * v2
                if k in out:
                    t = out[k] + t
                out[k] = t
        return BiPoly._make({k: v for k, v in out.items() if not v.is_zero()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise InvalidInput("polynomial powers take n >= 0")
        out = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Rat, MultiNf)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # a nonzero coefficient times a positive integer stays nonzero
    def diff_x(self):
        return BiPoly._make({(i - 1, j): v * i for (i, j), v in self.c.items() if i})

    def diff_y(self):
        return BiPoly._make({(i, j - 1): v * j for (i, j), v in self.c.items() if j})

    def x_slice(self, j):
        """The coefficient of y^j, as a polynomial in x alone."""
        return BiPoly._make({(i, 0): v for (i, jj), v in self.c.items() if jj == j})

    def y_reduce(self, f):
        """The remainder of long division by f in the variable y, built
        in place on one dict with no quotient; f must be monic in y."""
        d = f.deg_y if isinstance(f, BiPoly) else 0
        if d < 1 or list(f.x_slice(d).c) != [(0, 0)] or f.c[(0, d)] != 1:
            raise InvalidInput("y_reduce needs a monic divisor of positive y-degree")
        tail = [(a, b - d, -v) for (a, b), v in f.c.items() if b < d]
        r = dict(self.c)
        for dr in range(self.deg_y, d - 1, -1):
            for i, c in [(i, r.pop((i, j))) for (i, j) in list(r) if j == dr]:
                for a, b, v in tail:
                    k = (i + a, dr + b)
                    t = c * v if k not in r else r.pop(k) + c * v
                    if t.c:
                        r[k] = t
        return BiPoly._make(r)

    def subst(self, u, v):
        """Substitute rational functions u = a/b and v = c/d for x and y;
        returns a RatFunc over one common denominator.

        With dx, dy the degrees of self in x and y, the numerator is
        sum c_ij a^i b^(dx-i) c^j d^(dy-j) and the denominator is
        b^dx d^dy; a zero result is 0/1.  Each power is formed once per
        call.  Summing term by term over the product of the terms'
        denominators would give the numerator and denominator times
        b^(si - dx) d^(sj - dy), where si and sj sum the x- and
        y-exponents over the monomials of self: the same value, and the
        same representation when each variable occurs in at most one
        monomial."""
        u = _as_ratfunc(u)
        v = _as_ratfunc(v)
        memo = {}

        def power(p, n):
            """p^n for n >= 1, by halving, each power formed once."""
            key = (id(p), n)
            if key not in memo:
                if n == 1:
                    memo[key] = p
                else:
                    h = power(p, n // 2)
                    memo[key] = h * h * p if n % 2 else h * h
            return memo[key]

        def product(*factors):
            """The product of the powers p^n with n > 0."""
            out = None
            for p, n in factors:
                if n:
                    out = power(p, n) if out is None else out * power(p, n)
            return _ONE_POLY if out is None else out

        a, b, c, d = u.num, u.den, v.num, v.den
        dx, dy = self.deg_x, self.deg_y
        num = {}
        for (i, j), cv in self.c.items():
            t = product((a, i), (b, dx - i), (c, j), (d, dy - j))
            for k, w in t.c.items():
                s = cv * w
                num[k] = num[k] + s if k in num else s
        num = {k: s for k, s in num.items() if s.c}
        if not num:
            return RatFunc._make(BiPoly._make({}), _ONE_POLY)
        return RatFunc._make(BiPoly._make(num), product((b, dx), (d, dy)))

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for (i, j) in sorted(self.c):
            v = self.c[(i, j)]
            mono = "*".join(
                s
                for s in (
                    "x" if i == 1 else ("x^%d" % i if i else ""),
                    "y" if j == 1 else ("y^%d" % j if j else ""),
                )
                if s
            )
            vs = repr(v)
            if " + " in vs:
                vs = "(%s)" % vs
            parts.append("%s*%s" % (vs, mono) if mono and vs != "1" else (mono or vs))
        return " + ".join(parts)


_ONE_POLY = BiPoly._make({(0, 0): MultiNf._make((), {(): Rat(1)})})


def _as_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, BiPoly):
        return RatFunc(v, BiPoly.const(1))
    if isinstance(v, (int, Rat, MultiNf)):
        return RatFunc.const(v)
    raise InvalidInput("cannot use %r as a rational function" % (v,))


class RatFunc:
    """Formal quotient of two BiPoly values (no gcd normalization)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not isinstance(num, BiPoly) or not isinstance(den, BiPoly):
            raise InvalidInput("RatFunc takes two BiPoly values")
        if den.is_zero():
            raise InvalidInput("zero denominator")
        if num.is_zero():
            den = BiPoly.const(1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, num, den):
        """Trusted constructor: num and den are BiPoly values, den is
        nonzero, and den is the constant 1 when num is zero."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, v):
        return cls(BiPoly.const(v), BiPoly.const(1))

    @classmethod
    def var_x(cls):
        return cls(BiPoly.var_x(), BiPoly.const(1))

    @classmethod
    def var_y(cls):
        return cls(BiPoly.var_y(), BiPoly.const(1))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _as_ratfunc(other)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other.num.is_zero():
            raise InvalidInput("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise InvalidInput("rational function powers take integers")
        if n < 0:
            if self.num.is_zero():
                raise InvalidInput("division by the zero function")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        other = _as_ratfunc(other)
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def dx(self):
        return RatFunc(
            self.num.diff_x() * self.den - self.num * self.den.diff_x(),
            self.den * self.den,
        )

    def dy(self):
        return RatFunc(
            self.num.diff_y() * self.den - self.num * self.den.diff_y(),
            self.den * self.den,
        )

    def subst(self, u, v):
        top = self.num.subst(u, v)
        bot = self.den.subst(u, v)
        if bot.num.is_zero():
            raise InvalidInput("substitution lands on a zero denominator")
        return top / bot

    def __repr__(self):
        if self.den == BiPoly.const(1):
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# the resultant mod p (dense lists of residues in range(p), low degree
# first).  No package code calls it: the tests' finite-field degree
# oracle builds on it, and the benchmark tracer wraps it by this name.


def fp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_reduce(r, g, p):
    """r mod g, top-down in one pass, overwriting the list r and
    returning it trimmed; g is trimmed and nonzero."""
    dg = len(g) - 1
    lead_inv = pow(g[-1], p - 2, p)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg] * lead_inv % p
        if c:
            for t in range(dg):
                r[k + t] = (r[k + t] - c * g[t]) % p
    del r[dg:]
    return fp_trim(r)


def fp_resultant(f, g, p):
    f, g = fp_trim(list(f)), fp_trim(list(g))
    if not f or not g:
        return 0
    res = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return res * pow(g[0], df, p) % p
        if df < dg:
            if df * dg % 2:
                res = -res % p
            f, g = g, f
            continue
        r = _fp_reduce(f, g, p)
        if not r:
            return 0
        dr = len(r) - 1
        if df * dg % 2:
            res = -res % p
        res = res * pow(g[-1], df - dr, p) % p
        f, g = g, r


__all__ = [
    "KNOWN_GENS",
    "MultiNf",
    "BiPoly",
    "RatFunc",
    "join_specs",
    "fp_trim",
    "fp_resultant",
]

"""Exact arithmetic foundation.

Arbitrary-precision rationals (stdlib Fraction, re-exported as Rat),
imaginary-quadratic-field elements, Gaussian elimination over any exact
field, and integer-lattice linear algebra via row Hermite normal form.

No floating point anywhere in this module.
"""

import math
from fractions import Fraction as Rat

from .errors import InvalidInput, RankError, ShapeError

__all__ = [
    "Rat",
    "QuadInt",
    "row_echelon",
    "solve_field",
    "ZLattice",
]


def _xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g = gcd(a,b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _is_squarefree(n):
    if n < 1:
        raise InvalidInput("squarefree test needs n >= 1, got %r" % (n,))
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


def _is_int(x):
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


_ZERO = Rat(0)
_ONE = Rat(1)

# d is limited to this bound, which keeps the squarefree check's trial
# division to at most sqrt(MAX_D), about 31,623 steps
MAX_D = 10 ** 9


class QuadInt:
    """Element a + b*sqrt(-d) of the imaginary quadratic field Q(sqrt(-d)).

    d is a positive squarefree integer fixed per element; mixing elements
    with different d raises InvalidInput.  The public constructors check
    d; arithmetic results are built with _make, which does not check again.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        d = QuadInt.check_d(d)
        object.__setattr__(self, "a", Rat(a))
        object.__setattr__(self, "b", Rat(b))
        object.__setattr__(self, "d", d)

    @staticmethod
    def check_d(d):
        """d itself; InvalidInput unless it is an int, positive, squarefree
        and at most MAX_D."""
        if not _is_int(d):
            raise InvalidInput("d must be an integer, got %r" % (d,))
        if d > MAX_D:
            raise InvalidInput("d = %d exceeds the bound MAX_D = %d" % (d, MAX_D))
        if d < 1 or not _is_squarefree(d):
            raise InvalidInput("d must be a positive squarefree integer, got %r" % (d,))
        return d

    @classmethod
    def _make(cls, a, b, d):
        """Trusted constructor: a and b Rat, d already validated."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QuadInt is immutable")

    def _coerce(self, other):
        if isinstance(other, QuadInt):
            if other.d != self.d:
                raise InvalidInput(
                    "mixed quadratic fields: d=%d vs d=%d" % (self.d, other.d)
                )
            return other
        if isinstance(other, (int, Rat)):
            return QuadInt._make(Rat(other), _ZERO, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt._make(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt._make(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt._make(o.a - self.a, o.b - self.b, self.d)

    def __neg__(self):
        return QuadInt._make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b w)(a' + b' w) with w^2 = -d
        return QuadInt._make(
            self.a * o.a - self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(-%d))" % self.d)
        return QuadInt._make(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = QuadInt._make(_ONE, _ZERO, self.d)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        return QuadInt._make(self.a, -self.b, self.d)

    def norm(self):
        # a^2 + d b^2, nonnegative, zero only at zero
        return self.a * self.a + self.d * self.b * self.b

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadInt):
            return NotImplemented
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "QuadInt(%s, %s, d=%d)" % (self.a, self.b, self.d)


def row_echelon(rows, ncols):
    """Forward Gaussian elimination over a field, in place.

    rows: list of mutable row lists whose entries support +, -, *, /,
    ** 0 and == 0 (Rat, QuadInt, MultiNf); the list and its rows are
    overwritten.
    Pivots are sought in the first ncols columns only. Returns the pivot
    columns: afterwards row k has its pivot at pivots[k], scaled to
    exactly 1, and zeros below it in that column, and the rows past
    len(pivots) are zero in the first ncols columns.

    Each pivot is inverted once, to scale its row; eliminating it from a
    row below touches only the columns where the pivot row is nonzero.
    """
    m = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        p = lead[c]
        inv = _ONE / p
        nonzero = [j for j in range(c + 1, len(lead)) if lead[j] != 0]
        for j in nonzero:
            lead[j] = inv * lead[j]
        lead[c] = p ** 0  # exactly 1, of the pivot's own type
        zero = p * 0
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            if f != 0:
                row[c] = zero
                for j in nonzero:
                    row[j] = row[j] - f * lead[j]
        pivots.append(c)
    return pivots


def solve_field(rows, rhs):
    """Solve rows*x = rhs over a field: row_echelon, then back substitution.

    rows: list of rows; rhs: list. Returns a solution list (free
    variables set to 0) or None if the system is inconsistent.
    The pivots row_echelon leaves are 1, so back substitution divides by
    nothing.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m:
        raise ShapeError("rhs length %d vs %d rows" % (len(rhs), m))
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    zero = aug[0][0] * 0 if m else None
    pivots = row_echelon(aug, n)
    if any(aug[i][n] != 0 for i in range(len(pivots), m)):
        return None
    x = [zero] * n
    for k in range(len(pivots) - 1, -1, -1):
        row = aug[k]
        acc = row[n]
        for c in pivots[k + 1:]:
            if row[c] != 0:
                acc = acc - row[c] * x[c]
        x[pivots[k]] = acc
    return x


# ---------------------------------------------------------------------------
# integer lattices


def _int_hnf(rows):
    """Row Hermite normal form of an integer matrix.

    Returns the nonzero rows in echelon order: positive pivots, entries
    above each pivot reduced into [0, pivot).

    The rows enter one at a time into an echelon basis, piv[c] holding
    the row whose pivot is in column c. Once the basis has full rank,
    the product D of its pivots is its determinant, so D Z^n lies in
    its span: an entering row is kept reduced mod D, and a pivot row a
    gcd step changes is reduced by the pivot rows after it. No entry
    then outgrows D, where eliminating column by column multiplies the
    rows below by a pivot at every column (16 glue vectors over 999983
    at g = 20 took 12 s that way).
    """
    n = len(rows[0]) if rows else 0
    piv = [None] * n
    det = None  # D, once every column has a pivot
    for row in rows:
        v = [x % det for x in row] if det else list(row)
        for c in range(n):
            x = v[c]
            if not x:
                continue
            p = piv[c]
            if p is None:
                piv[c] = _reduce_tail(v if x > 0 else [-y for y in v], c, piv)
                if all(piv):
                    det = math.prod(r[i] for i, r in enumerate(piv))
                break
            a = p[c]
            if x % a:
                g, s, t = _xgcd(a, x)
                u, w = a // g, x // g
                # unimodular: det [[s, t], [-w, u]] = s u + t w = 1
                piv[c] = _reduce_tail([s * pj + t * vj for pj, vj in zip(p, v)], c, piv)
                v = [u * vj - w * pj for pj, vj in zip(p, v)]
                if det:
                    det = det // a * g
            else:
                q = x // a
                v = [vj - q * pj for pj, vj in zip(p, v)]
            if det:
                v = [y % det for y in v]
    basis = [r for r in piv if r is not None]
    pivots = [next(c for c, x in enumerate(r) if x) for r in basis]
    for k, (r, c) in enumerate(zip(basis, pivots)):
        for i in range(k):
            q = basis[i][c] // r[c]
            if q:
                basis[i] = [xi - q * xr for xi, xr in zip(basis[i], r)]
    return basis


def _reduce_tail(v, c, piv):
    """v, its pivot in column c, with each entry after c that has a pivot
    row in piv reduced into [0, pivot) by that row."""
    for j in range(c + 1, len(v)):
        r = piv[j]
        if r is not None:
            q = v[j] // r[j]
            if q:
                v = [vi - q * ri for vi, ri in zip(v, r)]
    return v


class ZLattice:
    """Full-rank lattice in Q^n, canonicalized as (1/den) times an integer
    matrix in row Hermite normal form.

    Membership testing is basis-independent because construction always
    canonicalizes.
    """

    __slots__ = ("ambient_rank", "den", "hbasis")

    def __init__(self, ambient_rank, den, hbasis):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "hbasis", hbasis)

    def __setattr__(self, name, value):
        raise AttributeError("ZLattice is immutable")

    @classmethod
    def from_rows(cls, int_rows, den):
        """The lattice (1/den) times the integer row span of int_rows, a
        generating set of integer row vectors (need not be a basis; must
        span a full-rank lattice) over a positive integer den."""
        if not _is_int(den) or den < 1:
            raise InvalidInput("lattice denominator must be a positive integer, got %r" % (den,))
        if not int_rows:
            raise RankError("empty generating set")
        n = len(int_rows[0])
        if any(len(r) != n for r in int_rows):
            raise ShapeError("generating rows of unequal length")
        if not all(_is_int(x) for row in int_rows for x in row):
            raise InvalidInput("lattice generators must have integer entries")
        h = _int_hnf(int_rows)
        if len(h) < n:
            raise RankError("lattice has rank %d < ambient rank %d" % (len(h), n))
        # strip any common factor shared by den and every entry
        g = den
        for row in h:
            for x in row:
                g = math.gcd(g, x)
        if g > 1:
            den //= g
            h = [[x // g for x in row] for row in h]
        return cls(n, den, tuple(tuple(row) for row in h))

    def contains(self, v):
        if len(v) != self.ambient_rank:
            raise ShapeError(
                "vector length %d vs ambient rank %d" % (len(v), self.ambient_rank)
            )
        w = []
        for x in v:
            x = Rat(x) * self.den
            if x.denominator != 1:
                return False
            w.append(x.numerator)
        return self.spans(w, 1)

    def spans(self, w, scale):
        """Whether the integer vector w lies in scale times the integer row
        span of hbasis, i.e. whether w / (scale * den) is in the lattice.

        Back-substitutes against the upper-triangular basis, left to right,
        overwriting w. The last pivot step leaves w zero."""
        n = self.ambient_rank
        for i, row in enumerate(self.hbasis):
            x = w[i]
            if x:
                q, r = divmod(x, scale * row[i])
                if r:
                    return False
                q *= scale
                for k in range(i + 1, n):
                    w[k] -= q * row[k]
        return True

    def __eq__(self, other):
        if not isinstance(other, ZLattice):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.den == other.den
            and self.hbasis == other.hbasis
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.den, self.hbasis))

    def __repr__(self):
        return "ZLattice(rank=%d, den=%d, hbasis=%r)" % (
            self.ambient_rank,
            self.den,
            [list(r) for r in self.hbasis],
        )


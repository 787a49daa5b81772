"""Exact arithmetic foundation.

Arbitrary-precision rationals (stdlib Fraction, re-exported as Rat),
imaginary-quadratic-field elements, dense exact matrices and Gaussian
elimination over any exact field, and integer-lattice linear algebra via
row Hermite normal form.

No floating point anywhere in this module.
"""

import math
from fractions import Fraction as Rat

from .errors import InvalidInput, RankError, ShapeError

__all__ = [
    "Rat",
    "QuadInt",
    "ExactMatrix",
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
    assert n >= 1
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

    @classmethod
    def zero(cls, d):
        return cls(0, 0, d)

    @classmethod
    def one(cls, d):
        return cls(1, 0, d)

    @classmethod
    def sqrt_minus_d(cls, d):
        return cls(0, 1, d)

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


# ---------------------------------------------------------------------------
# dense exact matrices over a generic coefficient ring


class ExactMatrix:
    """Dense matrix with exact entries (Rat, QuadInt, or anything with
    ring operations and equality to 0)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        ents = tuple(tuple(row) for row in rows_of_entries)
        if not ents or not ents[0]:
            raise ShapeError("matrix needs at least one row and column")
        ncols = len(ents[0])
        if any(len(r) != ncols for r in ents):
            raise ShapeError("ragged rows in matrix input")
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, n, one, zero):
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("sub: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        return ExactMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self):
        return self.map_entries(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ShapeError(
                    "mul: %dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols)
                )
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = self.entries[i][0] * other.entries[0][j]
                    for k in range(1, self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return ExactMatrix(out)
        return self.scale(other)

    def __rmul__(self, other):
        # scalar * matrix
        return self.scale(other)

    def scale(self, c):
        return self.map_entries(lambda x: c * x)

    def map_entries(self, fn):
        return ExactMatrix([[fn(x) for x in row] for row in self.entries])

    def transpose(self):
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError("trace of non-square %dx%d" % (self.rows, self.cols))
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "ExactMatrix(%r)" % ([list(r) for r in self.entries],)


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


def solve_field(mat, rhs):
    """Solve mat*x = rhs over a field: row_echelon, then back substitution.

    mat: ExactMatrix or list of rows; rhs: list. Returns a solution list
    (free variables set to 0) or None if the system is inconsistent.
    The pivots row_echelon leaves are 1, so back substitution divides by
    nothing.
    """
    if isinstance(mat, ExactMatrix):
        rows = mat.entries
    else:
        rows = mat
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
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            if rows[i][c]:
                a, b = rows[r][c], rows[i][c]
                g, s, t = _xgcd(a, b)
                u, v = a // g, b // g
                # unimodular: det [[s, t], [-v, u]] = s u + t v = 1
                rr = [s * rows[r][j] + t * rows[i][j] for j in range(n)]
                ri = [u * rows[i][j] - v * rows[r][j] for j in range(n)]
                rows[r], rows[i] = rr, ri
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [rows[i][j] - q * rows[r][j] for j in range(n)]
        r += 1
    return rows[:r]


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
    def from_rows(cls, rows):
        """Build from a generating set of rational row vectors (need not be
        a basis; must span a full-rank lattice)."""
        rat_rows = [[Rat(x) for x in row] for row in rows]
        if not rat_rows:
            raise RankError("empty generating set")
        n = len(rat_rows[0])
        if any(len(r) != n for r in rat_rows):
            raise ShapeError("generating rows of unequal length")
        den = 1
        for row in rat_rows:
            for x in row:
                den = math.lcm(den, x.denominator)
        int_rows = [[int(x * den) for x in row] for row in rat_rows]
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

    def basis_rows(self):
        """The canonical basis as rational row vectors."""
        return tuple(tuple(Rat(x, self.den) for x in row) for row in self.hbasis)

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

    def det(self):
        """Covolume: absolute determinant of the basis matrix."""
        prod = 1
        for i in range(self.ambient_rank):
            prod *= self.hbasis[i][i]
        return Rat(prod, self.den ** self.ambient_rank)

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


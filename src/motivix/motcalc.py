"""Chow-Kunneth motive accounting on weight-graded dimension vectors.

A motive is kept as its dimension per cohomological weight: the unit
motive, Lefschetz powers, the odd part of a curve and the four non-Tate
surface summands each have a fixed vector; direct sums add vectors and
tensor products convolve them. Hypersurfaces get a truncated polynomial
ring Q[gamma]/(gamma^(n+1)) whose diagonal projectors are verified
orthogonal idempotents at build time. Blow-up centers are those of a
resolution of a rational map from projective 4-space.
"""

from .errors import InvalidInput, VerificationError
from .exact import Rat

M1 = "M1"
M2ALG = "M2alg"
M2TR = "M2tr"
M3 = "M3"
_SURFACE_TAGS = (M1, M2ALG, M2TR, M3)

# the hypersurface dimension n is limited to this bound: the projector
# ring checks every pair of its n + 1 projectors, which takes about 0.1 s
# at n = 64 and 16 s at n = 800 on a 2-vCPU host; the cubic fourfold
# needs n = 4
MAX_HYPERSURFACE_DIM = 64

__all__ = [
    "MotiveExpr",
    "CKElem",
    "CKProjectorRing",
    "unit",
    "lefschetz",
    "curve_h1",
    "surface_part",
    "direct_sum",
    "tensor",
    "ck_curve",
    "ck_surface",
    "product_of_curves",
    "hypersurface_ck",
    "middle_betti",
    "blowup_rows",
    "cubic_rationality_ledger",
    "MAX_HYPERSURFACE_DIM",
    "M1",
    "M2ALG",
    "M2TR",
    "M3",
]


def _check_count(value, name, minimum=0):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidInput("%s must be an integer >= %d, got %r" % (name, minimum, value))
    return value


class MotiveExpr:
    """A motive up to its dimension vector: the dimension per
    cohomological weight, trailing zeros trimmed. Immutable; two values
    are equal when their vectors are."""

    __slots__ = ("_dims",)

    def __init__(self, dims):
        dims = tuple(dims)
        n = len(dims)
        while n and dims[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "_dims", dims[:n])

    def __setattr__(self, name, value):
        raise AttributeError("MotiveExpr is immutable")

    def __eq__(self, other):
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self):
        return hash(self._dims)

    def dims(self):
        """Dimension per cohomological weight, trailing zeros trimmed."""
        return self._dims

    def total_dim(self):
        return sum(self._dims)

    def __repr__(self):
        return "MotiveExpr(%r)" % (self._dims,)


def unit():
    return MotiveExpr((1,))


def lefschetz(k):
    _check_count(k, "Lefschetz power")
    return MotiveExpr((0,) * (2 * k) + (1,))


def curve_h1(g):
    _check_count(g, "genus")
    return MotiveExpr((0, 2 * g))


def surface_part(tag, b2, rho, q):
    if tag not in _SURFACE_TAGS:
        raise InvalidInput("surface part tag must be one of %s" % (_SURFACE_TAGS,))
    _check_count(b2, "b2")
    _check_count(rho, "rho")
    _check_count(q, "q")
    if rho > b2:
        raise InvalidInput("rho=%d exceeds b2=%d" % (rho, b2))
    if tag == M1:
        return MotiveExpr((0, 2 * q))
    if tag == M2ALG:
        return MotiveExpr((0, 0, rho))
    if tag == M2TR:
        return MotiveExpr((0, 0, b2 - rho))
    return MotiveExpr((0, 0, 0, 2 * q))


def direct_sum(parts):
    out = []
    for p in parts:
        if not isinstance(p, MotiveExpr):
            raise InvalidInput("direct sum over MotiveExpr values")
        out.extend([0] * (len(p._dims) - len(out)))
        for w, c in enumerate(p._dims):
            out[w] += c
    return MotiveExpr(out)


def tensor(x, y):
    if not isinstance(x, MotiveExpr) or not isinstance(y, MotiveExpr):
        raise InvalidInput("tensor of MotiveExpr values")
    a, b = x._dims, y._dims
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return MotiveExpr(out)


def ck_curve(g):
    """The three-part curve decomposition: unit, odd part, Lefschetz."""
    _check_count(g, "genus")
    return direct_sum([unit(), curve_h1(g), lefschetz(1)])


def ck_surface(b2, rho, q):
    """The six-part surface decomposition; the weight-2 piece splits into
    an algebraic bucket of rank rho and a transcendental part of
    dimension b2 - rho."""
    expr = direct_sum(
        [
            unit(),
            surface_part(M1, b2, rho, q),
            surface_part(M2ALG, b2, rho, q),
            surface_part(M2TR, b2, rho, q),
            surface_part(M3, b2, rho, q),
            lefschetz(2),
        ]
    )
    return expr


def product_of_curves(g, elliptically_split=False):
    """The square of a genus-g curve with its full weight accounting.

    Returns (expression, report). The report carries the surface numbers
    of C x C and, since every curve here has CM by one imaginary
    quadratic field, the transcendental dimension 2g of E x C as well.
    """
    _check_count(g, "genus")
    expr = tensor(ck_curve(g), ck_curve(g))
    dv = expr.dims()
    report = {
        "g": g,
        "dims": list(dv),
        "b2": 4 * g * g + 2,
        "m2_tr": 2 * g * g,
        "m2_alg": 2 * g * g + 2,
        "ns_rank": 2 * g * g + 2,
        "total_dim": (2 * g + 2) ** 2,
        "e_times_c_m2_tr": 2 * g,
        "elliptically_split": bool(elliptically_split),
    }
    if sum(dv) != report["total_dim"]:
        raise VerificationError("C x C must have total dimension (2g + 2)^2")
    if dv[2:3] != (report["m2_tr"] + report["m2_alg"],):
        raise VerificationError("weight 2 of C x C must have dimension m2_tr + m2_alg")
    if elliptically_split:
        # grid refinement: g^2 transcendental cells of dimension 2 and
        # two g^2 algebraic grids of rank-1 cells plus the two product
        # classes of the factors
        report["grid"] = {
            "t_cells": g * g,
            "t_cell_dim": 2,
            "a_cells": 2 * g * g,
            "a_cell_dim": 1,
            "extra_algebraic": 2,
        }
    return expr, report


def middle_betti(n, d):
    """Middle Betti number of a smooth degree-d hypersurface of
    dimension n."""
    _check_count(n, "dimension", 1)
    _check_count(d, "degree", 1)
    num = (d - 1) ** (n + 2) + (-1) ** n * (d - 1)
    if num % d:
        raise VerificationError("primitive middle Betti number must be an integer")
    prim = num // d
    return prim + (1 if n % 2 == 0 else 0)


class CKElem:
    """c * Delta plus a rational combination of products gamma^a x gamma^b
    in the truncated ring; composition follows the degree pairing."""

    __slots__ = ("n", "d", "delta", "prods")

    def __init__(self, n, d, delta, prods):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delta", Rat(delta))
        object.__setattr__(
            self, "prods", {k: Rat(c) for k, c in prods.items() if c != 0}
        )

    def __setattr__(self, name, value):
        raise AttributeError("CKElem is immutable")

    def _compat(self, other):
        if not isinstance(other, CKElem) or (self.n, self.d) != (other.n, other.d):
            raise InvalidInput("mixed truncated rings")

    def __add__(self, other):
        self._compat(other)
        prods = dict(self.prods)
        for k, c in other.prods.items():
            prods[k] = prods.get(k, Rat(0)) + c
        return CKElem(self.n, self.d, self.delta + other.delta, prods)

    def __sub__(self, other):
        self._compat(other)
        prods = dict(self.prods)
        for k, c in other.prods.items():
            prods[k] = prods.get(k, Rat(0)) - c
        return CKElem(self.n, self.d, self.delta - other.delta, prods)

    def __neg__(self):
        return CKElem(self.n, self.d, -self.delta, {k: -c for k, c in self.prods.items()})

    def compose(self, other):
        """(A x B) o (C x D) = <B.C> (A x D), the pairing d on total
        degree n and zero otherwise; Delta is the two-sided identity."""
        self._compat(other)
        prods = {}

        def acc(key, c):
            if c:
                prods[key] = prods.get(key, Rat(0)) + c

        for k, c in other.prods.items():
            acc(k, self.delta * c)
        for k, c in self.prods.items():
            acc(k, c * other.delta)
        for (a, b), c1 in self.prods.items():
            for (cc, e), c2 in other.prods.items():
                if b + cc == self.n:
                    acc((a, e), c1 * c2 * self.d)
        return CKElem(self.n, self.d, self.delta * other.delta, prods)

    def is_zero(self):
        return self.delta == 0 and not self.prods

    def __eq__(self, other):
        if not isinstance(other, CKElem):
            return NotImplemented
        return (
            (self.n, self.d) == (other.n, other.d)
            and self.delta == other.delta
            and self.prods == other.prods
        )

    def __hash__(self):
        return hash((self.n, self.d, self.delta, frozenset(self.prods.items())))

    def __repr__(self):
        parts = []
        if self.delta:
            parts.append("%s*Delta" % self.delta)
        for (a, b), c in sorted(self.prods.items()):
            parts.append("%s*(g^%d x g^%d)" % (c, a, b))
        return "CKElem(%s)" % (" + ".join(parts) if parts else "0")


class CKProjectorRing:
    """Diagonal projectors of a degree-d hypersurface of dimension n.

    The off-middle projectors are (1/d) gamma^(n-j) x gamma^j; the middle
    is diagonal-minus-sum. Orthogonality and idempotency are verified on
    construction.
    """

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        _check_count(n, "dimension", 1)
        if n > MAX_HYPERSURFACE_DIM:
            raise InvalidInput(
                "dimension %d exceeds the bound MAX_HYPERSURFACE_DIM = %d"
                % (n, MAX_HYPERSURFACE_DIM)
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", _check_count(d, "degree", 1))
        self._verify()

    def __setattr__(self, name, value):
        raise AttributeError("CKProjectorRing is immutable")

    def off_middle_indices(self):
        return [j for j in range(self.n + 1) if 2 * j != self.n]

    def projector(self, j):
        """The weight-2j projector, for 2j != n."""
        if j not in self.off_middle_indices():
            raise InvalidInput("projector index j=%r not off-middle for n=%d" % (j, self.n))
        return CKElem(self.n, self.d, 0, {(self.n - j, j): Rat(1, self.d)})

    def delta(self):
        return CKElem(self.n, self.d, 1, {})

    def zero(self):
        return CKElem(self.n, self.d, 0, {})

    def middle(self):
        out = self.delta()
        for j in self.off_middle_indices():
            out = out - self.projector(j)
        return out

    def middle_dim(self):
        return middle_betti(self.n, self.d)

    def prim_middle_dim(self):
        # for even n the middle still contains the power of the
        # hyperplane class; the primitive part drops it
        return self.middle_dim() - (1 if self.n % 2 == 0 else 0)

    def all_projectors(self):
        """(weight, element) pairs covering the whole diagonal."""
        out = [(2 * j, self.projector(j)) for j in self.off_middle_indices()]
        out.append((self.n, self.middle()))
        out.sort(key=lambda t: t[0])
        return out

    def _verify(self):
        pieces = self.all_projectors()
        total = self.zero()
        for _, p in pieces:
            total = total + p
        if total != self.delta():
            raise VerificationError("projectors must sum to the diagonal")
        for wi, p in pieces:
            for wj, q in pieces:
                prod = p.compose(q)
                if wi == wj:
                    if prod != p:
                        raise VerificationError(
                            "projector at weight %d not idempotent" % wi
                        )
                elif not prod.is_zero():
                    raise VerificationError(
                        "projectors at weights %d and %d not orthogonal" % (wi, wj)
                    )


def hypersurface_ck(n, d):
    return CKProjectorRing(n, d)


def _ck_surface_triple(t):
    if not isinstance(t, (tuple, list)) or len(t) != 3:
        raise InvalidInput("surface must be a (b2, rho, q) triple, got %r" % (t,))
    return ck_surface(*t)


def blowup_rows(surfaces, curves, points):
    """The three ledger rows of a blow-up of projective 4-space along
    surfaces, given as (b2, rho, q) triples, curves, given by genus, and
    points: the dimension vectors the point, curve and surface centers
    contribute. Each row is additive in its centers, so points enter as a
    count: m0 = points (L + L^2 + L^3), m1 = (sum of M(C)) (L + L^2) and
    m2 = (sum of M(S)) L."""
    m0 = tensor(MotiveExpr((_check_count(points, "point count"),)),
                direct_sum([lefschetz(1), lefschetz(2), lefschetz(3)]))
    m1 = tensor(direct_sum(ck_curve(g) for g in curves),
                direct_sum([lefschetz(1), lefschetz(2)]))
    m2 = tensor(direct_sum(map(_ck_surface_triple, surfaces)), lefschetz(1))
    return {"m0": list(m0.dims()), "m1": list(m1.dims()), "m2": list(m2.dims())}


# a very general cubic fourfold: b4 = 23, and the square of the
# hyperplane class spans its algebraic classes in H^4
_CUBIC_B4 = 23
_CUBIC_RHO2 = 1


def cubic_rationality_ledger(surfaces, curves, points):
    """Dimension bookkeeping for a hypothetical resolution of a map from
    projective 4-space to a very general cubic fourfold.

    The middle transcendental part has dimension b4 - rho2 = 22; a blown-up
    surface could receive it only if its own transcendental dimension
    strictly exceeds that, because the complementary summand of the
    induced splitting is nonzero. Equality is reported as a violation of
    that nontriviality; smaller surfaces cannot host at all.
    """
    _check_count(points, "point count")
    curves = list(curves)
    target = _CUBIC_B4 - _CUBIC_RHO2
    rows = []
    for t in surfaces:
        _ck_surface_triple(t)
        b2, rho, q = t
        tr = b2 - rho
        if tr < target:
            verdict = "cannot host"
        elif tr == target:
            verdict = "hosting forces equality, violating nontriviality of both summands"
        else:
            verdict = "could host"
        rows.append({"b2": b2, "rho": rho, "q": q, "dim_m2_tr": tr, "verdict": verdict})
    for g in curves:
        _check_count(g, "genus")
    if not rows or all(r["verdict"] == "cannot host" for r in rows):
        summary = "no host available"
    elif any(r["verdict"] == "could host" for r in rows):
        summary = "a listed surface could host the transcendental part"
    else:
        summary = "hosting forces equality, violating nontriviality of both summands"
    return {
        "b4": _CUBIC_B4,
        "rho2": _CUBIC_RHO2,
        "dim_m4_prim": _CUBIC_B4 - 1,
        "dim_m4_tr": target,
        "surfaces": rows,
        "curve_count": len(curves),
        "point_count": points,
        "note": (
            "blown-up points and curves contribute only Tate and curve "
            "classes and cannot host the weight-4 transcendental part"
        ),
        "summary": summary,
    }


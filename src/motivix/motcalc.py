"""Chow-Kunneth motive expressions with exact dimension accounting.

Expression trees over the unit motive, Lefschetz powers, the odd part of
a curve, the four non-Tate surface summands, hypersurface middles, direct
sums and tensor products. Every node has a weight-graded dimension vector;
sums add them and tensors convolve them. Hypersurfaces get a truncated
polynomial ring Q[gamma]/(gamma^(n+1)) whose diagonal projectors are
verified orthogonal idempotents at build time.
"""

from .errors import InvalidInput, VerificationError
from .exact import Rat

UNIT = "unit"
LEFSCHETZ = "lefschetz"
CURVE_H1 = "curve_h1"
SURFACE_PART = "surface_part"
DIRECT_SUM = "direct_sum"
TENSOR_PROD = "tensor"
HYPERSURFACE_MIDDLE = "hypersurface_middle"

M1 = "M1"
M2ALG = "M2alg"
M2TR = "M2tr"
M3 = "M3"
_SURFACE_TAGS = (M1, M2ALG, M2TR, M3)

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
    "hypersurface_middle",
    "ck_curve",
    "ck_surface",
    "product_of_curves",
    "hypersurface_ck",
    "middle_betti",
    "blowup_rows",
    "cubic_rationality_ledger",
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
    """A formal motive expression; immutable, structurally comparable."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("MotiveExpr is immutable")

    def __eq__(self, other):
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        return self.kind == other.kind and self.data == other.data

    def __hash__(self):
        return hash((self.kind, self.data))

    def dims(self):
        """Dimension per cohomological weight, trailing zeros trimmed."""
        return _dims(self)

    def total_dim(self):
        return sum(self.dims())

    def canonical(self):
        """Direct sum of sorted atomic tensor products; tensor distributed
        over direct sums, unit factors dropped, Lefschetz powers merged."""
        terms = sorted(_product_terms(self), key=_product_key)
        parts = [_rebuild_product(t) for t in terms]
        if len(parts) == 1:
            return parts[0]
        return MotiveExpr(DIRECT_SUM, tuple(parts))

    def __repr__(self):
        return "MotiveExpr(%s, %r)" % (self.kind, self.data)


def unit():
    return MotiveExpr(UNIT, ())


def lefschetz(k):
    _check_count(k, "Lefschetz power")
    if k == 0:
        return unit()
    return MotiveExpr(LEFSCHETZ, k)


def curve_h1(g):
    _check_count(g, "genus")
    return MotiveExpr(CURVE_H1, g)


def surface_part(tag, b2, rho, q):
    if tag not in _SURFACE_TAGS:
        raise InvalidInput("surface part tag must be one of %s" % (_SURFACE_TAGS,))
    _check_count(b2, "b2")
    _check_count(rho, "rho")
    _check_count(q, "q")
    if rho > b2:
        raise InvalidInput("rho=%d exceeds b2=%d" % (rho, b2))
    return MotiveExpr(SURFACE_PART, (tag, b2, rho, q))


def direct_sum(parts):
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, MotiveExpr):
            raise InvalidInput("direct sum over MotiveExpr values")
    return MotiveExpr(DIRECT_SUM, parts)


def tensor(x, y):
    if not isinstance(x, MotiveExpr) or not isinstance(y, MotiveExpr):
        raise InvalidInput("tensor of MotiveExpr values")
    return MotiveExpr(TENSOR_PROD, (x, y))


def hypersurface_middle(n, d, rho_mid):
    _check_count(n, "dimension", 1)
    _check_count(d, "degree", 1)
    _check_count(rho_mid, "rho_mid")
    if rho_mid > middle_betti(n, d):
        raise InvalidInput(
            "rho_mid=%d exceeds the middle Betti number %d" % (rho_mid, middle_betti(n, d))
        )
    return MotiveExpr(HYPERSURFACE_MIDDLE, (n, d, rho_mid))


def _dims(e):
    if e.kind == UNIT:
        return (1,)
    if e.kind == LEFSCHETZ:
        return (0,) * (2 * e.data) + (1,)
    if e.kind == CURVE_H1:
        return _trim((0, 2 * e.data))
    if e.kind == SURFACE_PART:
        tag, b2, rho, q = e.data
        if tag == M1:
            return _trim((0, 2 * q))
        if tag == M2ALG:
            return _trim((0, 0, rho))
        if tag == M2TR:
            return _trim((0, 0, b2 - rho))
        return _trim((0, 0, 0, 2 * q))
    if e.kind == HYPERSURFACE_MIDDLE:
        n, d, _ = e.data
        return _trim((0,) * n + (middle_betti(n, d),))
    if e.kind == DIRECT_SUM:
        out = []
        for p in e.data:
            dv = _dims(p)
            if len(dv) > len(out):
                out.extend([0] * (len(dv) - len(out)))
            for w, c in enumerate(dv):
                out[w] += c
        return _trim(tuple(out))
    if e.kind == TENSOR_PROD:
        a = _dims(e.data[0])
        b = _dims(e.data[1])
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _trim(tuple(out))
    raise InvalidInput("unknown expression kind %r" % (e.kind,))


def _trim(dv):
    n = len(dv)
    while n and dv[n - 1] == 0:
        n -= 1
    return dv[:n]


_ATOM_ORDER = {UNIT: 0, CURVE_H1: 1, SURFACE_PART: 2, HYPERSURFACE_MIDDLE: 3, LEFSCHETZ: 4}


def _atom_key(a):
    return (_ATOM_ORDER[a.kind], a.data if a.kind != UNIT else ())


def _product_terms(e):
    """e as a list of products, each product a tuple of non-sum atoms."""
    if e.kind == DIRECT_SUM:
        out = []
        for p in e.data:
            out.extend(_product_terms(p))
        return out
    if e.kind == TENSOR_PROD:
        left = _product_terms(e.data[0])
        right = _product_terms(e.data[1])
        out = []
        for s in left:
            for t in right:
                out.append(_merge_product(s + t))
        return out
    return [_merge_product((e,))]


def _merge_product(atoms):
    lef = 0
    rest = []
    for a in atoms:
        if a.kind == LEFSCHETZ:
            lef += a.data
        elif a.kind != UNIT:
            rest.append(a)
    rest.sort(key=_atom_key)
    if lef:
        rest.append(MotiveExpr(LEFSCHETZ, lef))
    if not rest:
        rest.append(unit())
    return tuple(rest)


def _product_key(t):
    return tuple(_atom_key(a) for a in t)


def _rebuild_product(atoms):
    out = atoms[0]
    for a in atoms[1:]:
        out = tensor(out, a)
    return out


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
    expr = tensor(ck_curve(g), ck_curve(g)).canonical()
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
    assert sum(dv) == report["total_dim"]
    assert report["m2_tr"] + report["m2_alg"] == report["b2"]
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
    assert num % d == 0
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
        object.__setattr__(self, "n", _check_count(n, "dimension", 1))
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


def _center_parts(center, ambient_dim):
    if center == "point" or center == ("point",):
        if ambient_dim == 4:
            return direct_sum([lefschetz(1), lefschetz(2), lefschetz(3)])
        return lefschetz(1)
    if isinstance(center, tuple) and center and center[0] == "curve":
        if ambient_dim != 4:
            raise InvalidInput("curve centers need ambient dimension 4")
        if len(center) != 2:
            raise InvalidInput("curve center must be ('curve', g)")
        return tensor(ck_curve(center[1]), direct_sum([lefschetz(1), lefschetz(2)]))
    if isinstance(center, tuple) and center and center[0] == "surface":
        if ambient_dim != 4:
            raise InvalidInput("surface centers need ambient dimension 4")
        if len(center) != 4:
            raise InvalidInput("surface center must be ('surface', b2, rho, q)")
        return tensor(ck_surface(center[1], center[2], center[3]), lefschetz(1))
    raise InvalidInput("unsupported blow-up center %r" % (center,))


def blowup_rows(centers, ambient_dim=4):
    """The three ledger rows: dimension vectors contributed by point,
    curve and surface centers respectively."""
    if ambient_dim not in (2, 4):
        raise InvalidInput("ambient dimension must be 2 or 4, got %r" % (ambient_dim,))
    rows = {"m0": [], "m1": [], "m2": []}
    for center in centers:
        expr = _center_parts(center, ambient_dim)
        if center == "point" or center == ("point",):
            rows["m0"].append(expr)
        elif center[0] == "curve":
            rows["m1"].append(expr)
        else:
            rows["m2"].append(expr)
    return {
        key: list(direct_sum(parts).dims()) if parts else []
        for key, parts in rows.items()
    }


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
    target = _CUBIC_B4 - _CUBIC_RHO2
    rows = []
    for (b2, rho, q) in surfaces:
        ck_surface(b2, rho, q)  # validates the triple
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
        "curve_count": len(list(curves)),
        "point_count": points,
        "note": (
            "blown-up points and curves contribute only Tate and curve "
            "classes and cannot host the weight-4 transcendental part"
        ),
        "summary": summary,
    }


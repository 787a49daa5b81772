"""The explicit genus-10 instance: plane curves, morphisms into CM
elliptic targets, symbolic pullbacks of the invariant differential,
permutation-representation membership of the resulting coefficients,
exact degrees (poles counted in one variable or on the source's Newton
polygon, on two routes that must agree), and assembly of the axiomatic
model that feeds the decision procedure.

Conventions.  All curves live in the z = 1 affine chart; the canonical
form on a curve monic of degree m in y is dx/y^(m-1).  Homogenization
to degree 3 happens only inside rep_membership.
"""

import math

from .cmlat import AXIOMATIC, build_model
from .errors import (
    InvalidInput,
    ReductionError,
    UnsupportedQuery,
    VerificationError,
)
from .exact import row_echelon, solve_field
from .motcalc import product_of_curves
from .polyring import ZERO, BiPoly, MultiNf, RatFunc, _as_ratfunc

V111 = "V111"
V210 = "V210"
V300 = "V300"
NONE = "NONE"

_CLASS_OF_TRIPLE = {(3, 0, 0): V300, (2, 1, 0): V210, (1, 1, 1): V111}


class PlaneCurve:
    """Affine plane curve F(x, y) = 0, normalized monic in y."""

    __slots__ = ("F", "name")

    def __init__(self, F, name=""):
        if not isinstance(F, BiPoly) or F.deg_y < 1:
            raise InvalidInput("a plane curve needs positive y-degree")
        lead = F.x_slice(F.deg_y)
        if lead.deg_x > 0:
            raise InvalidInput("leading y-coefficient must be constant")
        lc = lead.coeff(0, 0)
        if lc != 1:
            F = F * lc.inverse()
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "name", str(name))

    def __setattr__(self, name, value):
        raise AttributeError("PlaneCurve is immutable")

    @property
    def deg_y(self):
        return self.F.deg_y

    @property
    def deg_x(self):
        return self.F.deg_x

    def __eq__(self, other):
        if not isinstance(other, PlaneCurve):
            return NotImplemented
        return self.F == other.F

    __hash__ = None

    def __repr__(self):
        return "PlaneCurve(%s, %r)" % (self.F, self.name)


def fermat_sextic():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    return PlaneCurve(x**6 + y**6 + 1, "fermat-sextic")


def cm_elliptic():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    return PlaneCurve(y**2 - x**3 + 1, "cm-elliptic")


def fermat_cubic():
    x, y = BiPoly.var_x(), BiPoly.var_y()
    return PlaneCurve(x**3 + y**3 + 1, "fermat-cubic")


class CurveMorphism:
    """Map between plane curves given by component functions u(x, y),
    v(x, y); checked against the target equation at construction."""

    __slots__ = ("source", "target", "u", "v")

    def __init__(self, source, target, u, v):
        if not isinstance(source, PlaneCurve) or not isinstance(target, PlaneCurve):
            raise InvalidInput("CurveMorphism needs PlaneCurve endpoints")
        u = _as_ratfunc(u)
        v = _as_ratfunc(v)
        for comp in (u, v):
            if comp.den.y_reduce(source.F).is_zero():
                raise InvalidInput(
                    "component denominator vanishes on the source curve"
                )
        image = target.F.subst(u, v)
        if not image.num.y_reduce(source.F).is_zero():
            raise InvalidInput("target equation does not vanish on the image")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError("CurveMorphism is immutable")

    def __repr__(self):
        return "CurveMorphism(%s -> %s, u=%s, v=%s)" % (
            self.source.name or "?",
            self.target.name or "?",
            self.u,
            self.v,
        )


class DiffForm:
    """P du with a rational-function coefficient in the target
    coordinates (x, y standing for u, v). On a curve dv is a multiple
    of du, so every differential has this form."""

    __slots__ = ("P",)

    def __init__(self, P):
        object.__setattr__(self, "P", _as_ratfunc(P))

    def __setattr__(self, name, value):
        raise AttributeError("DiffForm is immutable")


def canonical_form(curve):
    """du/v^(m-1) for a curve monic of y-degree m: du/v on the elliptic
    targets, du/v^2 on the cubic, dx/y^5 on the sextic itself."""
    m = curve.deg_y
    return DiffForm(RatFunc(BiPoly.const(1), BiPoly.monomial(0, m - 1)))


class OmegaCoefficient:
    """A differential written as f times the canonical form of its
    curve, with f reduced to y-degree below deg_y(F)."""

    __slots__ = ("poly", "curve")

    def __init__(self, poly, curve):
        if not isinstance(poly, BiPoly) or not isinstance(curve, PlaneCurve):
            raise InvalidInput("OmegaCoefficient takes a BiPoly and a PlaneCurve")
        if poly.deg_y >= curve.deg_y and not poly.is_zero():
            raise InvalidInput(
                "OmegaCoefficient needs y-degree below that of its curve"
            )
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "curve", curve)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaCoefficient is immutable")

    def __eq__(self, other):
        if isinstance(other, OmegaCoefficient):
            return self.poly == other.poly and self.curve == other.curve
        if isinstance(other, BiPoly):
            return self.poly == other
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "(%s) * omega" % (self.poly,)


# x-degree sizes tried for the reduced pullback coefficient
_PULLBACK_XDEG_STEPS = (2, 6, 12, 20, 32)


def pullback(phi, form):
    """Pull a differential P du on the target back along phi and
    express it as f times the canonical form of the source.

    f*B = A modulo F is solved for f of x-degree up to each step of
    _PULLBACK_XDEG_STEPS in turn; the unknown x^i y^j of f has the
    column x^i y^j B reduced mod F.  Only the block of that system that
    holds A is solved: the columns linked to A's monomials through
    monomials they share, and every monomial those columns hold.  The
    answer is that of the whole system: elimination never mixes two
    blocks, a block whose right-hand side is zero solves to zero (free
    unknowns are set to 0), and any inconsistency shows in A's block.
    A step whose block has no column is inconsistent, and is skipped
    without a solve.  On the sextic each pulled-back form is one
    monomial times omega, and its block has one unknown."""
    if not isinstance(phi, CurveMorphism) or not isinstance(form, DiffForm):
        raise InvalidInput("pullback takes a CurveMorphism and a DiffForm")
    src = phi.source
    F = src.F
    yprime = RatFunc(-F.diff_x(), F.diff_y())
    try:
        P = form.P.subst(phi.u, phi.v)
        dU = phi.u.dx() + phi.u.dy() * yprime
        pulled = P * dU
    except InvalidInput as exc:
        raise ReductionError(str(exc)) from None
    m = src.deg_y
    f_rat = pulled * RatFunc(BiPoly.monomial(0, m - 1), BiPoly.const(1))
    A = f_rat.num.y_reduce(F)
    B = f_rat.den.y_reduce(F)
    if B.is_zero():
        raise ReductionError("denominator vanishes on the curve")
    if A.is_zero():
        return OmegaCoefficient(BiPoly.zero(), src)
    # find f with f*B = A modulo F; unique in the reduced window
    shifted = [B]
    for j in range(1, m):
        shifted.append((shifted[-1] * BiPoly.var_y()).y_reduce(F))
    for dxb in _PULLBACK_XDEG_STEPS:
        # column i*m + j holds x^i y^j B reduced mod F
        cols = []
        at = {}  # monomial -> the columns that hold it
        for i in range(dxb + 1):
            for j in range(m):
                col = {(a + i, b): v for (a, b), v in shifted[j].c.items()}
                for k in col:
                    at.setdefault(k, []).append(len(cols))
                cols.append(col)
        # the block of A: columns linked to A's monomials through shared
        # monomials, and every monomial they hold
        keys = set(A.c)
        todo = list(keys)
        block = set()
        while todo:
            for n in at.get(todo.pop(), ()):
                if n not in block:
                    block.add(n)
                    new = cols[n].keys() - keys
                    keys |= new
                    todo.extend(new)
        if not block:
            continue
        block = sorted(block)
        keys = sorted(keys)
        rows = [[cols[n].get(k, ZERO) for n in block] for k in keys]
        rhs = [A.c.get(k, ZERO) for k in keys]
        sol = solve_field(rows, rhs)
        if sol is None:
            continue
        f = BiPoly({divmod(n, m): s for n, s in zip(block, sol)})
        if not (f * B - A).y_reduce(F).is_zero():
            raise VerificationError("pullback solution fails its back-check")
        return OmegaCoefficient(f, src)
    raise ReductionError(
        "no reduced representative up to x-degree %d" % _PULLBACK_XDEG_STEPS[-1]
    )


def rep_membership(f):
    """Which degree-3 monomial span the homogenized coefficient lies
    in: V300 = {x^3, y^3, z^3}, V210 = the six mixed-square monomials,
    V111 = {xyz}; NONE if mixed, inhomogeneous, or of degree > 3."""
    poly = f.poly if isinstance(f, OmegaCoefficient) else f
    if not isinstance(poly, BiPoly):
        raise InvalidInput("rep_membership takes an OmegaCoefficient or BiPoly")
    if poly.is_zero():
        return NONE
    degs = {i + j for (i, j) in poly.c}
    if len(degs) != 1:
        return NONE
    d = degs.pop()
    if d > 3:
        return NONE
    classes = set()
    for (i, j) in poly.c:
        classes.add(_CLASS_OF_TRIPLE[tuple(sorted((i, j, 3 - d), reverse=True))])
    if len(classes) != 1:
        return NONE
    return classes.pop()


# ---------------------------------------------------------------------------
# coordinate permutations of the Fermat curves

G1_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
# identity, swap(x,y), swap(y,z): these three give independent images
G2_PERMS = ((0, 1, 2), (1, 0, 2), (0, 2, 1))


def perm_morphism(curve, pi):
    """The automorphism permuting the projective coordinates (x, y, z)
    of a Fermat-type curve by pi, written in the z = 1 chart."""
    pi = tuple(pi)
    if sorted(pi) != [0, 1, 2]:
        raise InvalidInput("pi must be a permutation of (0, 1, 2)")
    coords = (RatFunc.var_x(), RatFunc.var_y(), RatFunc.const(1))
    u = coords[pi[0]] / coords[pi[2]]
    v = coords[pi[1]] / coords[pi[2]]
    return CurveMorphism(curve, curve, u, v)


def compose_with_perm(phi, pi):
    """phi composed after the coordinate permutation pi of its source."""
    sigma = perm_morphism(phi.source, pi)
    return CurveMorphism(
        phi.source,
        phi.target,
        phi.u.subst(sigma.u, sigma.v),
        phi.v.subst(sigma.u, sigma.v),
    )


def span_rank(forms):
    """Dimension of the span of coefficient polynomials."""
    polys = []
    for f in forms:
        polys.append(f.poly if isinstance(f, OmegaCoefficient) else f)
    keys = sorted({k for p in polys for k in p.c})
    if not keys:
        return 0
    rows = [[p.coeff(i, j) for (i, j) in keys] for p in polys]
    return len(row_echelon(rows, len(keys)))


# ---------------------------------------------------------------------------
# exact degrees


def _euclid_gcd(f, g):
    """gcd, up to a constant factor, of two coefficient lists over the
    constant field (low degree first, each empty or with a nonzero last
    entry), by division-free Euclid."""
    while g:
        # r becomes f mod g times a nonzero constant: each step scales r
        # by lead(g) and cancels its leading term with a multiple of g
        r = f
        while len(r) >= len(g):
            shift = len(r) - len(g)
            lr, lg = r[-1], g[-1]
            r = [c * lg for c in r]
            for i, c in enumerate(g):
                r[shift + i] = r[shift + i] - lr * c
            while r and r[-1].is_zero():
                r.pop()
        f, g = g, r
    return f


def _reduced_degree(num, den):
    """Degree in lowest terms of num/den, both in one variable, whose
    exponent in the term (i, j) is i + j."""
    lists = []
    for part in (num, den):
        coeffs = [ZERO] * (max(part.deg_x, part.deg_y) + 1)
        for (i, j), c in part.c.items():
            coeffs[i + j] = c
        lists.append(coeffs)
    return max(map(len, lists)) - len(_euclid_gcd(*lists))


def _newton_pole_count(F, P, i, j):
    """Poles of P / x^i y^j on F = 0, for a nonzero polynomial P, counted
    on the edges of F's Newton polygon; None when the polygon is a
    segment or an edge fails the initial-form test below.

    The function has no pole in the torus x, y != 0.  Every other place
    of the curve lies over an edge of the polygon (Kushnirenko,
    Khovanskii), away from its vertices, whose coefficients are nonzero.
    Walked counter-clockwise, an edge of lattice length l and primitive
    direction d carries places whose multiplicities k sum to l, the
    degree of its edge polynomial f (F's coefficients along the edge),
    whether or not f has a repeated root: no squarefree test is needed.
    At such a place x^a y^b has order k <(a, b), n> for the inward
    normal n = (-d_y, d_x).  P has order at least k times the least
    <(a, b), n> over its monomials, with equality unless its initial
    form (its terms that reach that least value) vanishes there.  That
    form and F's along the edge are monomials times polynomials p and f
    in x^d_x y^d_y, so it vanishes at no place of the edge when
    gcd(p, f) over the constant field is a constant.  With t the largest
    pole order (a - i) d_y - (b - j) d_x of x^(a - i) y^(b - j) over
    P's monomials, the edge then has l * t poles if t > 0 and none
    otherwise; the gcd is taken only where t > 0, and a one-term p
    passes it."""
    if list(P.c) == [(i, j)]:  # c x^i y^j / x^i y^j is constant
        return 0
    pts = sorted(F.c)
    hull = []
    for chain in (pts, pts[::-1]):  # monotone chain, collinear points dropped
        half = []
        for a, b in chain:
            # drop the last point unless it turns left on the way to (a, b)
            while len(half) >= 2:
                (a0, b0), (a1, b1) = half[-2:]
                if (a1 - a0) * (b - b0) > (b1 - b0) * (a - a0):
                    break
                half.pop()
            half.append((a, b))
        hull += half[:-1]
    if len(hull) < 3:
        return None
    poles = 0
    for (i0, j0), (i1, j1) in zip(hull, hull[1:] + hull[:1]):
        length = math.gcd(i1 - i0, j1 - j0)
        dx, dy = (i1 - i0) // length, (j1 - j0) // length
        order = {(a, b): (a - i) * dy - (b - j) * dx for (a, b) in P.c}
        top = max(order.values())
        if top <= 0:
            continue
        # the initial form by position a dx + b dy along the edge, where
        # neighbouring lattice points are dx^2 + dy^2 apart
        init = {a * dx + b * dy: c for (a, b), c in P.c.items() if order[a, b] == top}
        if len(init) > 1:
            s0, step = min(init), dx * dx + dy * dy
            p = [ZERO] * ((max(init) - s0) // step + 1)
            for s, c in init.items():
                p[(s - s0) // step] = c
            f = [F.coeff(i0 + t * dx, j0 + t * dy) for t in range(length + 1)]
            if len(_euclid_gcd(p, f)) > 1:
                return None
        poles += length * top
    return poles


def _exact_fiber_count(comp, source):
    """Fiber count of a component, found exactly, or None where no exact
    count applies.

    In one variable: the source is monic in y, so x has degree
    deg_y(source) on it.  When the leading x-coefficient of the source
    is a nonzero constant, no x-root escapes to infinity and y has
    degree deg_x(source) on it; a component in y alone on any other
    source returns None.  A fraction in that variable of degree k in
    lowest terms (_reduced_degree) then has degree k times the
    variable's.  A component in both variables with a monomial
    denominator c x^i y^j counts the poles of its numerator over
    x^i y^j on the source's Newton polygon (_newton_pole_count); one
    with a monomial numerator counts its reciprocal, which has as many
    poles.  It returns None where that count does not apply, or where
    neither part is a monomial.  A constant component, or one in y alone
    on a source free of x, has no generic fiber and raises InvalidInput.
    """
    F = source.F
    num, den = comp.num, comp.den
    if num.deg_y <= 0 and den.deg_y <= 0:
        count = _reduced_degree(num, den) * F.deg_y
    elif num.deg_x <= 0 and den.deg_x <= 0:
        if F.deg_x and any(i == F.deg_x and j for (i, j) in F.c):
            return None
        count = _reduced_degree(num, den) * F.deg_x
    elif len(den.c) == 1 or len(num.c) == 1:
        # h and 1/h have the same degree: count the one over a monomial
        P, mono = (num, den) if len(den.c) == 1 else (den, num)
        ((i, j),) = mono.c
        count = _newton_pole_count(F, P, i, j)
        if count is None:
            return None
    else:
        return None
    if count == 0:
        raise InvalidInput("a constant component has no generic fiber")
    return count


def _strip_monomial(comp):
    """comp with the largest monomial dividing its numerator and its
    denominator cancelled from both."""
    keys = list(comp.num.c) + list(comp.den.c)
    di = min(i for i, _ in keys)
    dj = min(j for _, j in keys)
    if not (di or dj):
        return comp
    num, den = (
        BiPoly._make({(i - di, j - dj): c for (i, j), c in part.c.items()})
        for part in (comp.num, comp.den)
    )
    return RatFunc._make(num, den)


def degree(phi, primes=None, seed=0):
    """Degree of the function-field extension induced by phi, counted
    exactly on two routes that must agree.

    Each coordinate route (u then v) counts the fibers of its component,
    curve -> line, and divides the count by that coordinate's degree on
    the target.  Each component first loses the largest monomial
    dividing its numerator and denominator (a twist such as
    compose_with_perm can leave one), then is counted exactly
    (_exact_fiber_count); the count must be divisible by the
    coordinate's degree.  A route with no exact count raises
    UnsupportedQuery.  Every morphism of the genus-10 instance has both
    routes exact.

    primes and seed are accepted and unused.  They chose the primes and
    the random draws of the finite-field count, which the tests now keep
    as their independent oracle.  The benchmark workloads still pass
    them; they go when the workloads stop (ROADMAP item 5).
    """
    if not isinstance(phi, CurveMorphism):
        raise InvalidInput("degree takes a CurveMorphism")
    if phi.target.F.deg_x < 1 or phi.target.F.deg_y < 1:
        raise InvalidInput("degree needs a target of positive x- and y-degree")
    degrees = []
    for name, comp, target_deg in (
        ("u", phi.u, phi.target.F.deg_y),
        ("v", phi.v, phi.target.F.deg_x),
    ):
        count = _exact_fiber_count(_strip_monomial(comp), phi.source)
        if count is None:
            raise UnsupportedQuery("degree has no exact count for the %s route" % name)
        if count % target_deg:
            raise VerificationError(
                "exact fiber count %d not divisible by %d" % (count, target_deg)
            )
        degrees.append(count // target_deg)
    if degrees[0] != degrees[1]:
        raise VerificationError("exact coordinate routes disagree")
    return degrees[0]


# ---------------------------------------------------------------------------
# the genus-10 instance


def per_morphism(first, second, third):
    """One value per morphism of the genus-10 instance, in its order: the
    first for each phi1 twist, the second for each phi2 twist, the third
    for phi3."""
    return [first] * len(G1_PERMS) + [second] * len(G2_PERMS) + [third]


DECLARED_EXPONENTS = tuple(per_morphism(6, 24, 4))


class C6Instance:
    """The assembled model of the sextic-square surface: ten morphisms
    to CM elliptic targets, their pullback forms, and the axiomatic
    endomorphism model ready for the decision procedure."""

    __slots__ = ("model", "morphisms", "forms", "report")

    def __init__(self, model, morphisms, forms, report):
        self.model = model
        self.morphisms = tuple(morphisms)
        self.forms = tuple(forms)
        self.report = report

    @property
    def g(self):
        return self.model.g


def c6_generator_morphisms():
    """The three generating morphisms out of the Fermat sextic."""
    W6 = fermat_sextic()
    E1 = cm_elliptic()
    F3 = fermat_cubic()
    x = RatFunc.var_x()
    y = RatFunc.var_y()
    alpha = RatFunc.const(MultiNf.gen("cbrt4"))
    phi1 = CurveMorphism(W6, E1, -(x**2), y**3)
    phi2 = CurveMorphism(
        W6, E1, y**4 / (alpha * x**2), (x**6 - 1) / (2 * x**3)
    )
    phi3 = CurveMorphism(W6, F3, x**2, y**2)
    return phi1, phi2, phi3


def build_c6_instance(check_degrees=True):
    """Build the genus-10 model: six twists of the square-cube morphism,
    three twists of the quartic-ratio morphism, and the coordinatewise
    square to the cubic; pull back the invariant differentials, verify
    the representation pattern and ranks, and assemble the axiomatic
    endomorphism model with the declared exponents.

    With check_degrees, degree recomputes every generator degree and
    the report records any disagreement with the declared exponents
    instead of masking it.  One such disagreement is known: the three
    phi2 twists are declared with exponent 24, while phi2 has degree 12
    (24 is the pole count of u o phi2 before the division by the degree
    2 of u on the target), so the report carries
    "degree_exponent_mismatch": true.  Which convention the declared
    exponents follow is not settled, so they are kept as declared.
    """
    phi1, phi2, phi3 = c6_generator_morphisms()
    morphisms = [compose_with_perm(phi1, s) for s in G1_PERMS]
    morphisms += [compose_with_perm(phi2, s) for s in G2_PERMS]
    morphisms.append(phi3)
    forms = [pullback(mor, canonical_form(mor.target)) for mor in morphisms]
    classes = [rep_membership(f) for f in forms]
    if classes != per_morphism(V210, V300, V111):
        raise VerificationError(
            "pulled-back form classes %r, expected %r"
            % (classes, per_morphism(V210, V300, V111))
        )
    r1 = span_rank(forms[:6])
    r2 = span_rank(forms[6:9])
    rtot = span_rank(forms)
    if (r1, r2, rtot) != (6, 3, 10):
        raise VerificationError(
            "pulled-back form ranks %r, expected (6, 3, 10)" % ((r1, r2, rtot),)
        )
    computed = None
    mismatch = None
    if check_degrees:
        computed = per_morphism(degree(phi1), degree(phi2), degree(phi3))
        mismatch = computed != list(DECLARED_EXPONENTS)
    model = build_model(
        3,
        10,
        mode=AXIOMATIC,
        exponents=DECLARED_EXPONENTS,
        assume_proper_ge4=True,
    )
    report = {
        "g": 10,
        "d": 3,
        "declared_exponents": list(DECLARED_EXPONENTS),
        "computed_degrees": computed,
        "degree_exponent_mismatch": mismatch,
        "dim_m2_tr": product_of_curves(10, elliptically_split=True)[1]["m2_tr"],
        "form_classes": classes,
        "form_ranks": {"g1": r1, "g2": r2, "total": rtot},
    }
    return C6Instance(model, morphisms, forms, report)


__all__ = [
    "V111",
    "V210",
    "V300",
    "NONE",
    "PlaneCurve",
    "CurveMorphism",
    "DiffForm",
    "OmegaCoefficient",
    "fermat_sextic",
    "cm_elliptic",
    "fermat_cubic",
    "canonical_form",
    "pullback",
    "rep_membership",
    "perm_morphism",
    "compose_with_perm",
    "G1_PERMS",
    "G2_PERMS",
    "span_rank",
    "degree",
    "per_morphism",
    "DECLARED_EXPONENTS",
    "C6Instance",
    "c6_generator_morphisms",
    "build_c6_instance",
]

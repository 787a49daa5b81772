"""Plane-curve pullbacks, representation membership, the degree
oracle, and the assembled genus-10 instance."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import modp_oracle
import motivix
from motivix import fermat, polyring
from motivix.decomp import INDECOMPOSABLE, PROOFTRACE, decide
from motivix.errors import (
    InvalidInput,
    ReductionError,
    ShapeError,
    VerificationError,
)
from motivix.exact import solve_field
from motivix.fermat import (
    G1_PERMS,
    G2_PERMS,
    NONE,
    V111,
    V210,
    V300,
    CurveMorphism,
    DiffForm,
    OmegaCoefficient,
    PlaneCurve,
    build_c6_instance,
    c6_generator_morphisms,
    canonical_form,
    cm_elliptic,
    compose_with_perm,
    degree,
    fermat_cubic,
    fermat_sextic,
    per_morphism,
    perm_morphism,
    pullback,
    rep_membership,
    span_rank,
)
from motivix.polyring import (
    KNOWN_GENS,
    ZERO,
    BiPoly,
    MultiNf,
    RatFunc,
    join_specs,
)

X = BiPoly.var_x()
Y = BiPoly.var_y()
ALPHA = MultiNf.gen("cbrt4")


def test_constant_tower():
    eps = MultiNf.gen("eps")
    i = MultiNf.gen("i")
    assert eps**2 == eps - 1
    assert eps**3 == -1
    assert eps**6 == 1
    assert ALPHA**3 == 4
    assert i * i == -1
    assert 1 / ALPHA == ALPHA**2 / 4
    # mixed-generator values unify and divide exactly
    v = (2 + 3 * eps) * ALPHA / (1 - i)
    assert v * (1 - i) / ALPHA == 2 + 3 * eps
    assert MultiNf.from_fraction(F(3, 7)) + F(4, 7) == 1


# --- the constant field's fast paths against the validating constructor

GEN_DEG = {name: len(poly) - 1 for name, poly in KNOWN_GENS}
SUB_SPECS = [
    tuple(n for (n, _), kept in zip(KNOWN_GENS, keep) if kept)
    for keep in itertools.product((False, True), repeat=len(KNOWN_GENS))
]


def raw_lift(x, spec):
    """x's coefficients re-indexed on the larger spec, by name."""
    out = {}
    for exps, q in x.c.items():
        named = dict(zip(x.spec, exps))
        out[tuple(named.get(n, 0) for n in spec)] = q
    return out


def raw_sum(*terms):
    out = {}
    for sign, c in terms:
        for e, q in c.items():
            out[e] = out.get(e, 0) + sign * q
    return out


def raw_product(c1, c2):
    """Exponents added, nothing rewritten by the minpolys."""
    out = {}
    for e1, q1 in c1.items():
        for e2, q2 in c2.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + q1 * q2
    return out


def random_element(rng, spec):
    """Exponents up to twice each degree, so the constructor must reduce."""
    raw = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 2 * GEN_DEG[n]) for n in spec)
        raw[e] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiNf(spec, raw)


def assert_valid(x):
    assert list(x.spec) == [n for n, _ in KNOWN_GENS if n in x.spec]
    for e, q in x.c.items():
        assert type(q) is F and q != 0
        assert len(e) == len(x.spec)
        assert all(0 <= k < GEN_DEG[n] for n, k in zip(x.spec, e))
    with pytest.raises(AttributeError):
        x.c = {}
    with pytest.raises(AttributeError):
        x.spec = ()


def test_multinf_fast_paths_match_validating_constructor():
    rng = random.Random(606)
    assert len(set(SUB_SPECS)) == 8
    for _ in range(150):
        s1, s2 = rng.choice(SUB_SPECS), rng.choice(SUB_SPECS)
        a, b = random_element(rng, s1), random_element(rng, s2)
        spec = join_specs(s1, s2)
        ca, cb = raw_lift(a, spec), raw_lift(b, spec)
        r = F(rng.randint(-5, 5), rng.randint(1, 3))
        cr = {(0,) * len(s1): r}
        a2 = MultiNf(s1, raw_product(a.c, a.c))
        cases = [
            (a + b, raw_sum((1, ca), (1, cb))),
            (a - b, raw_sum((1, ca), (-1, cb))),
            (a * b, raw_product(ca, cb)),
            (-a, raw_sum((-1, a.c))),
            (a + r, raw_sum((1, a.c), (1, cr))),
            (r - a, raw_sum((1, cr), (-1, a.c))),
            (a * r, raw_product(a.c, cr)),
            (a**0, {(0,) * len(s1): F(1)}),
            (a**3, raw_product(a2.c, a.c)),
        ]
        for got, raw in cases:
            assert_valid(got)
            assert got.c == MultiNf(got.spec, raw).c
        assert (a - a).c == {} and (a + (-a)).c == {}
        if not b.is_zero():
            q = a / b
            assert_valid(q)
            assert MultiNf(spec, raw_product(raw_lift(q, spec), cb)).c == ca
            inv = b.inverse()
            assert_valid(inv)
            assert MultiNf(s2, raw_product(inv.c, b.c)) == 1
            inv2 = b**-2
            assert_valid(inv2)
            b2 = MultiNf(s2, raw_product(b.c, b.c))
            assert MultiNf(s2, raw_product(inv2.c, b2.c)) == 1
            rb = r / b
            assert_valid(rb)
            assert MultiNf(s2, raw_product(rb.c, b.c)) == r
            assert rb.c == (inv * r).c and rb.spec == inv.spec
        # equality with numbers, on constant and non-constant elements
        const = MultiNf(s1, {(0,) * len(s1): r})
        assert const == r and (const == r + 1) is False
        assert (const == 0) is (r == 0)
        assert MultiNf(s1, {}) == 0 and MultiNf.one(s1) == 1
        assert MultiNf.one(s1) != 0 and MultiNf(s1, {}) != 1
        if any(any(e) for e in a.c):
            for n in (0, 1, r, a.c.get((0,) * len(s1), F(0))):
                assert a != n and not a == n
        assert (a == b) is (ca == cb)
        assert a == MultiNf(spec, ca) and MultiNf(spec, ca) == a


def test_multinf_public_constructors_still_validate(monkeypatch):
    i = MultiNf.gen("i")
    with pytest.raises(ShapeError):
        i.lift(("eps", "cbrt4"))
    with pytest.raises(InvalidInput):
        i.lift(("i", "eps"))
    with pytest.raises(InvalidInput):
        MultiNf(("i", "eps"), {(0, 1): 1})
    with pytest.raises(InvalidInput):
        MultiNf.from_fraction(1, ("cbrt4", "eps"))
    with pytest.raises(ShapeError):
        MultiNf(("i",), {(1, 0): 1})
    assert i.lift(("i",)) is i
    with pytest.raises(InvalidInput):
        MultiNf.zero(()).inverse()
    # arithmetic within one spec validates nothing again, in BiPoly too
    a = MultiNf(("eps", "i"), {(1, 1): 2, (0, 0): F(1, 3)})
    b = MultiNf(("eps", "i"), {(1, 0): -1, (0, 1): 5})
    P = BiPoly({(2, 1): a, (0, 0): b, (1, 3): a * b})
    Q = BiPoly({(1, 0): b, (0, 0): -b, (2, 1): -a})
    checked = []
    real = polyring.check_spec
    monkeypatch.setattr(polyring, "check_spec", lambda s: checked.append(s) or real(s))
    real_init = BiPoly.__init__
    monkeypatch.setattr(
        BiPoly, "__init__", lambda self, c: checked.append(c) or real_init(self, c)
    )
    quotient, inverse = a / b, a**-1
    rest = (a + b, a - b, a * b, -a, a**2, 3 - a, a * F(1, 2))
    assert (a == 1, a == b, a - a == 0) == (False, False, True)
    polys = (P + Q, P - Q, P * Q, P.diff_x(), P.diff_y(), P.x_slice(1))
    assert checked == []
    assert quotient * b == a and inverse * a == 1
    assert all(r.spec == a.spec for r in rest)
    assert polys[0].c == {(1, 0): b, (1, 3): a * b}
    assert polys[1].c == {(2, 1): 2 * a, (0, 0): 2 * b, (1, 3): a * b, (1, 0): -b}
    assert polys[2].c == {
        (3, 1): a * b,
        (2, 1): -2 * a * b,
        (4, 2): -a * a,
        (1, 0): b * b,
        (0, 0): -b * b,
        (2, 3): a * b * b,
        (1, 3): -a * b * b,
        (3, 4): -a * a * b,
    }
    assert polys[3].c == {(1, 1): 2 * a, (0, 3): a * b}
    assert polys[4].c == {(2, 0): a, (1, 2): 3 * a * b}
    assert polys[5].c == {(2, 0): a}
    assert all(v.spec == a.spec for p in polys for v in p.c.values())
    # 1 / x scales the inverse: no product on top of it
    inv_b = b.inverse()
    monkeypatch.setattr(MultiNf, "inverse", lambda self: inv_b)
    monkeypatch.setattr(polyring, "_reduce", lambda *args: pytest.fail("_reduce"))
    assert (1 / b).c == inv_b.c
    assert (F(2, 3) / b).c == {e: q * 2 / 3 for e, q in inv_b.c.items()}


def test_multinf_inverse_of_a_constant_skips_the_solve(monkeypatch):
    """A lone constant term is inverted directly; the result equals the
    linear solve's in every spec, and no solve runs for it."""
    rng = random.Random(607)
    cases = []
    for spec in SUB_SPECS:
        for _ in range(8):
            q = F(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 30))
            x = MultiNf(spec, {(0,) * len(spec): q})
            cases.append((x, x._inverse_by_solve()))
    monkeypatch.setattr(polyring, "solve_field", lambda *a: pytest.fail("solve"))
    for x, want in cases:
        got = x.inverse()
        assert_valid(got)
        assert got.spec == want.spec and got.c == want.c
        assert repr(got) == repr(want)
    # a value of two terms still takes the solve
    with pytest.raises(pytest.fail.Exception):
        (1 + ALPHA).inverse()


def test_one_term_products_and_inverses_skip_the_general_kernels(monkeypatch):
    """A product of two one-term values equals the general loop's
    _reduce, and a one-term inverse equals the linear solve's: the same
    .c and repr in every spec, and across specs.  No _reduce runs for a
    product whose exponent sums stay below the degrees, and no
    solve_field runs for any one-term inverse."""
    rng = random.Random(608)

    def term(spec, exps):
        q = F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 20))
        return MultiNf(spec, {exps: q})

    def monomials(spec):
        return list(itertools.product(*[range(GEN_DEG[n]) for n in spec]))

    plain, wrapping, inverses = [], [], []
    for s1 in SUB_SPECS:
        for s2 in SUB_SPECS:
            spec = join_specs(s1, s2)
            pairs = [(e1, e2) for e1 in monomials(s1) for e2 in monomials(s2)]
            for e1, e2 in pairs if s1 == s2 else rng.sample(pairs, min(4, len(pairs))):
                a, b = term(s1, e1), term(s2, e2)
                raw = raw_product(raw_lift(a, spec), raw_lift(b, spec))
                want = MultiNf._make(spec, polyring._reduce(spec, raw.items()))
                (e,) = raw
                wraps = any(k >= GEN_DEG[n] for n, k in zip(spec, e))
                (wrapping if wraps else plain).append((a, b, want))
        for e in monomials(s1):
            x = term(s1, e)
            inverses.append((x, x._inverse_by_solve()))
    assert len(plain) > 100 and len(wrapping) > 100
    i, eps = MultiNf.gen("i"), MultiNf.gen("eps")
    wrapped = [(ALPHA**2, ALPHA**2), (i, i), (eps, eps)]
    for x, y in wrapped:
        raw = raw_product(x.c, y.c)
        wrapping.append((x, y, MultiNf._make(x.spec, polyring._reduce(x.spec, raw.items()))))
    assert [(x * y).c for x, y in wrapped] == [
        {(1,): 4}, {(0,): -1}, {(1,): 1, (0,): -1}
    ]

    def check(got, want):
        assert_valid(got)
        assert got.spec == want.spec and got.c == want.c
        assert repr(got) == repr(want)

    for a, b, want in wrapping:
        check(a * b, want)
    monkeypatch.setattr(polyring, "_reduce", lambda *a: pytest.fail("_reduce"))
    for a, b, want in plain:
        check(a * b, want)
        check(b * a, want)
    monkeypatch.undo()
    monkeypatch.setattr(polyring, "solve_field", lambda *a: pytest.fail("solve"))
    for x, want in inverses:
        check(x.inverse(), want)
    assert len(inverses) == sum(len(monomials(s)) for s in SUB_SPECS)


def test_multinf_hash_agrees_with_equality():
    """Equal values hash alike: a rational MultiNf hashes as its
    Fraction, zero as 0, and a value as itself in a larger spec."""
    two = MultiNf.from_fraction(2)
    assert two == 2 and hash(two) == hash(2)
    assert {two: "a"}.get(2) == "a" and {2: "b"}.get(two) == "b"
    half = MultiNf.from_fraction(F(1, 2), ("eps", "i"))
    assert {F(1, 2): "c"}[half] == "c"
    zero = MultiNf.zero(("cbrt4",))
    assert hash(zero) == hash(0) and {0: "d"}[zero] == "d"
    assert len({two, MultiNf.from_fraction(2, ("i",)), 2, F(2)}) == 1
    i = MultiNf.gen("i")
    for x in (i, 1 + i, ALPHA * i):
        assert hash(x) == hash(x.lift(FULL_SPEC)) and x != 0
    assert len({i, i.lift(("eps", "i")), 2 * i / 2}) == 1


def old_subst(P, u, v):
    """BiPoly.subst as it was, on the validating RatFunc.const."""
    upow = {0: RatFunc.const(1)}
    vpow = {0: RatFunc.const(1)}
    out = RatFunc.const(0)
    for (i, j), cv in sorted(P.c.items()):
        for cache, base, k in ((upow, u, i), (vpow, v, j)):
            while max(cache) < k:
                m = max(cache)
                cache[m + 1] = cache[m] * base
        out = out + RatFunc.const(cv) * upow[i] * vpow[j]
    return out


def old_excess(P, u, v):
    """u.den^(si - dx) * v.den^(sj - dy), where si and sj sum the x- and
    y-exponents over P's monomials: the factor by which old_subst's
    numerator and denominator exceed those of BiPoly.subst."""
    si = sum(i for i, _ in P.c)
    sj = sum(j for _, j in P.c)
    return u.den ** (si - P.deg_x) * v.den ** (sj - P.deg_y)


def assert_old_relation(P, u, v, new, old):
    excess = old_excess(P, u, v)
    assert on_full(old.num) == on_full(new.num * excess)
    assert on_full(old.den) == on_full(new.den * excess)


def test_subst_builds_no_validated_constants(monkeypatch):
    """BiPoly.subst runs neither the validating RatFunc.const nor the
    BiPoly constructor.  Where each variable occurs in at most one
    monomial it gives the old result term for term; on a mixed
    polynomial the old numerator and denominator are its own times
    old_excess."""
    x, y = RatFunc.var_x(), RatFunc.var_y()
    alpha = RatFunc.const(ALPHA)
    pairs = [(-(x**2), y**3), (y**4 / (alpha * x**2), (x**6 - 1) / (2 * x**3))]
    single = [fermat_sextic().F, cm_elliptic().F, BiPoly.zero(), BiPoly.const(3)]
    mixed = BiPoly({(1, 2): ALPHA, (0, 1): F(-1, 2), (3, 0): MultiNf.gen("i")})
    cases = [(P, u, v) for P in single + [mixed] for u, v in pairs]
    want = [old_subst(P, u, v) for P, u, v in cases]
    monkeypatch.setattr(RatFunc, "const", lambda v: pytest.fail("RatFunc.const"))
    monkeypatch.setattr(BiPoly, "__init__", lambda *a: pytest.fail("BiPoly()"))
    got = [P.subst(u, v) for P, u, v in cases]
    monkeypatch.undo()
    for (P, u, v), g, w in zip(cases, got, want):
        if P is mixed:
            assert_old_relation(P, u, v, g, w)
            assert old_excess(P, u, v) == u.den * v.den
        else:
            assert (repr(g.num), repr(g.den)) == (repr(w.num), repr(w.den))
            assert g.num.c == w.num.c and g.den.c == w.den.c


def test_subst_matches_the_term_by_term_sum():
    """On 200 seeded triples (P, u, v) with coefficients over every
    spec, BiPoly.subst has old_subst's value, its denominator is
    u.den^dx * v.den^dy, and old_subst's numerator and denominator are
    its own times old_excess.  A zero P, and a P whose terms cancel,
    give 0 over the constant 1."""
    rng = random.Random(2525)

    def nonzero(terms, max_x, max_y):
        while True:
            p = random_bipoly(rng, terms, max_x, max_y)
            if not p.is_zero():
                return p

    mixed = 0
    for _ in range(200):
        P = nonzero(rng.randint(1, 3), 2, 2)
        u, v = (
            RatFunc(nonzero(2, 2, 1), nonzero(rng.randint(1, 2), 1, 2))
            for _ in range(2)
        )
        got, want = P.subst(u, v), old_subst(P, u, v)
        assert got == want
        assert got.den == u.den**P.deg_x * v.den**P.deg_y
        assert_old_relation(P, u, v, got, want)
        mixed += old_excess(P, u, v) != 1
    assert mixed > 50
    x = RatFunc.var_x()
    for P, u, v in ((BiPoly.zero(), x, x), (X + Y, x, -x)):
        for r in (P.subst(u, v), old_subst(P, u, v)):
            assert r.num.c == {} and r.den.c == {(0, 0): 1}


def y_divmod(g, f):
    """Long division of g by f in the variable y, as (quotient,
    remainder); f must be monic in y.  The reference for BiPoly.y_reduce,
    which keeps only the remainder."""
    if not isinstance(f, BiPoly) or f.deg_y < 1:
        raise InvalidInput("y_divmod needs a divisor of positive y-degree")
    lead = f.x_slice(f.deg_y)
    if not (lead.deg_x == 0 and lead.coeff(0, 0) == 1):
        raise InvalidInput("y_divmod needs a divisor monic in y")
    d = f.deg_y
    q = BiPoly.zero()
    r = g
    while r.deg_y >= d:
        dr = r.deg_y
        shift = r.x_slice(dr) * BiPoly.monomial(0, dr - d)
        q = q + shift
        r = r - shift * f
    return q, r


FULL_SPEC = tuple(n for n, _ in KNOWN_GENS)


def on_full(p):
    """p's coefficients lifted to the full spec: a BiPoly's value with
    each coefficient's own spec forgotten."""
    assert all(not q.is_zero() for q in p.c.values())
    return {k: q.lift(FULL_SPEC).c for k, q in p.c.items()}


def random_bipoly(rng, terms, max_x, max_y, specs=SUB_SPECS):
    return BiPoly(
        {
            (rng.randint(0, max_x), rng.randint(0, max_y)): random_element(
                rng, rng.choice(specs)
            )
            for _ in range(terms)
        }
    )


def test_bipoly_division_and_calculus():
    sextic = X**6 + Y**6 + 1
    g = (X * Y**2 - 3) * (X + Y) + Y**7
    q, r = y_divmod(g, sextic)
    assert q * sextic + r == g
    assert r.deg_y < 6
    assert g.y_reduce(sextic) == r
    h = (RatFunc.var_x() ** 2 - 1) / (RatFunc.var_x() + RatFunc.var_y())
    u, v = RatFunc.var_x(), RatFunc.var_y()
    assert h.dx() == ((2 * u) * (u + v) - (u**2 - 1)) / (u + v) ** 2
    assert h.subst(RatFunc.const(2), RatFunc.const(1)) == 1
    # coefficients over different specs meet only in MultiNf arithmetic:
    # the same as lifting every coefficient to the full spec first
    specs = ((), ("cbrt4",), ("eps", "i"))

    def lifted(p):
        return BiPoly({k: q.lift(FULL_SPEC) for k, q in p.c.items()})

    rng = random.Random(909)
    for _ in range(25):
        a, b = (random_bipoly(rng, 4, 2, 2, specs) for _ in range(2))
        la, lb = lifted(a), lifted(b)
        assert on_full(a + b) == on_full(la + lb)
        assert on_full(a - b) == on_full(la - lb)
        assert on_full(a * b) == on_full(la * lb)
        assert on_full(a * b + a) == on_full(la * lb + la)
        assert on_full(a + b - b) == on_full(a) and (a - a).c == {}


def test_y_reduce_matches_long_division(monkeypatch):
    """y_reduce keeps the remainder of the long division and nothing
    else: the same value and repr as the reference's remainder, on
    mixed-spec coefficients, with no BiPoly product taken."""
    rng = random.Random(910)
    cases = [(X**6 + Y**6 + 1, (X * Y**2 - 3) * (X + Y) + Y**7)]
    for _ in range(40):
        d = rng.randint(1, 4)
        f = random_bipoly(rng, 3, 3, d - 1) + Y**d
        g = random_bipoly(rng, rng.randint(0, 8), 4, 9)
        cases.append((f, g))
    cases.append((Y**2 + ALPHA * X, BiPoly.zero()))
    cases.append((Y**3 - 1, X**2 * Y + MultiNf.gen("i")))  # already reduced
    # multiples of f: every coefficient cancels, and none may stay as a zero
    cases.append((Y**2 - X, Y**2 - X))
    f = Y**3 + ALPHA * X * Y + MultiNf.gen("eps")
    cases.append((f, f * (X * Y**2 + MultiNf.gen("i") * Y - 3)))
    want = [y_divmod(g, f) for f, g in cases]
    monkeypatch.setattr(BiPoly, "__mul__", lambda *a: pytest.fail("BiPoly product"))
    got = [g.y_reduce(f) for f, g in cases]
    monkeypatch.undo()
    for (f, g), (q, r), rem in zip(cases, want, got):
        assert rem.deg_y < f.deg_y
        assert on_full(rem) == on_full(r) and repr(rem) == repr(r)
        assert q * f + rem == g
    assert [rem.c for rem in got[-2:]] == [{}, {}]
    for f in (2 * Y**2 + X, X * Y**2 + 1, X + 1, BiPoly.zero(), 3):
        for divide in (lambda g: g.y_reduce(f), lambda g: y_divmod(g, f)):
            with pytest.raises(InvalidInput):
                divide(X * Y**3 + Y)


def test_curve_normalization_and_validation():
    c = PlaneCurve(3 * Y**2 - 3 * X**3 + 3)
    assert c.F == cm_elliptic().F
    assert c.deg_y == 2 and c.deg_x == 3
    with pytest.raises(InvalidInput):
        PlaneCurve(X**4 + 1)  # no y at all
    with pytest.raises(InvalidInput):
        PlaneCurve(X * Y**2 + 1)  # leading y-coefficient not constant


def test_morphism_validation():
    w6, e1 = fermat_sextic(), cm_elliptic()
    x, y = RatFunc.var_x(), RatFunc.var_y()
    CurveMorphism(w6, e1, -(x**2), y**3)
    with pytest.raises(InvalidInput):
        CurveMorphism(w6, e1, -(x**2), y**2)  # image misses the target
    with pytest.raises(InvalidInput):
        # denominator is the curve equation itself
        CurveMorphism(w6, e1, -(x**2) / (x**6 + y**6 + 1), y**3)
    with pytest.raises(InvalidInput):
        perm_morphism(w6, (0, 0, 1))
    with pytest.raises(InvalidInput):
        perm_morphism(e1, (1, 0, 2))  # the elliptic model is not symmetric


def test_pullbacks_match_known_coefficients():
    phi1, phi2, phi3 = c6_generator_morphisms()
    f1 = pullback(phi1, canonical_form(phi1.target))
    f2 = pullback(phi2, canonical_form(phi2.target))
    f3 = pullback(phi3, canonical_form(phi3.target))
    assert f1 == -2 * X * Y**2
    assert f2 == BiPoly.const(-(ALPHA**2)) * Y**3
    assert f3 == 2 * X * Y
    assert isinstance(f1, OmegaCoefficient)
    assert f1.poly.deg_y < 6


def test_pullback_functoriality():
    # (phi o sigma)^* tau  ==  sigma^* (phi^* tau), as reduced polynomials
    phi1, _, phi3 = c6_generator_morphisms()
    w6 = phi1.source
    for phi in (phi1, phi3):
        tau = canonical_form(phi.target)
        inner = pullback(phi, tau)
        lifted = DiffForm(RatFunc(inner.poly, BiPoly.monomial(0, w6.deg_y - 1)))
        for pi in G1_PERMS:
            left = pullback(compose_with_perm(phi, pi), tau)
            right = pullback(perm_morphism(w6, pi), lifted)
            assert left == right, pi


def test_rep_membership_rules():
    assert rep_membership(-2 * X * Y**2) == V210
    assert rep_membership(Y**3) == V300
    assert rep_membership(2 * X * Y) == V111
    assert rep_membership(X**2 + Y) == NONE
    assert rep_membership(BiPoly.zero()) == NONE
    assert rep_membership(X**4) == NONE
    assert rep_membership(BiPoly.const(ALPHA**2)) == V300  # z^3 after homogenizing
    assert rep_membership(X**3 + 2 * X * Y) == NONE
    assert rep_membership(X**2 * Y + 5 * X * Y**2) == V210


def test_rep_classes_are_permutation_stable():
    phi1, phi2, phi3 = c6_generator_morphisms()
    for phi in (phi1, phi2, phi3):
        tau = canonical_form(phi.target)
        base = rep_membership(pullback(phi, tau))
        assert base != NONE
        for pi in G1_PERMS:
            twisted = pullback(compose_with_perm(phi, pi), tau)
            assert rep_membership(twisted) == base


def test_form_ranks():
    phi1, phi2, phi3 = c6_generator_morphisms()
    g1 = [
        pullback(compose_with_perm(phi1, s), canonical_form(phi1.target))
        for s in G1_PERMS
    ]
    g2 = [
        pullback(compose_with_perm(phi2, s), canonical_form(phi2.target))
        for s in G2_PERMS
    ]
    f10 = pullback(phi3, canonical_form(phi3.target))
    assert span_rank(g1) == 6
    assert span_rank(g2) == 3
    assert span_rank(g1 + g2 + [f10]) == 10
    assert span_rank([]) == 0
    assert span_rank([g1[0], g1[0]]) == 1


def dense_pullback(phi, form):
    """f with f*B = A modulo the source, solved on the whole window of
    each x-degree step, as fermat.pullback did before it solved only the
    block of A: the oracle for pullback.  None when no step solves."""
    F = phi.source.F
    m = phi.source.deg_y
    yprime = RatFunc(-F.diff_x(), F.diff_y())
    pulled = form.P.subst(phi.u, phi.v) * (phi.u.dx() + phi.u.dy() * yprime)
    f_rat = pulled * RatFunc(BiPoly.monomial(0, m - 1), BiPoly.const(1))
    A = f_rat.num.y_reduce(F)
    B = f_rat.den.y_reduce(F)
    shifted = [B]
    for _ in range(1, m):
        shifted.append((shifted[-1] * Y).y_reduce(F))
    for dxb in fermat._PULLBACK_XDEG_STEPS:
        cols = [
            {(a + i, b): v for (a, b), v in shifted[j].c.items()}
            for i in range(dxb + 1)
            for j in range(m)
        ]
        keys = sorted(set(A.c) | {k for col in cols for k in col})
        rows = [[col.get(k, ZERO) for col in cols] for k in keys]
        sol = solve_field(rows, [A.c.get(k, ZERO) for k in keys])
        if sol is not None:
            return BiPoly({divmod(n, m): v for n, v in enumerate(sol)})
    return None


def recording_solves(monkeypatch):
    """The (rows, columns) of every system pullback solves."""
    sizes = []
    real = fermat.solve_field

    def recording(rows, rhs):
        sizes.append((len(rows), len(rows[0])))
        return real(rows, rhs)

    monkeypatch.setattr(fermat, "solve_field", recording)
    return sizes


def test_pullback_matches_the_dense_window_solve(monkeypatch):
    """The block solve returns the oracle's f on the ten instance
    morphisms, on every pullback the tests above take, and on sources
    whose equation links the whole window into one block; where no
    x-degree step solves, both fail."""
    phi1, phi2, phi3 = c6_generator_morphisms()
    w6 = phi1.source
    cases = [
        (mor, canonical_form(mor.target))
        for mor in build_c6_instance(check_degrees=False).morphisms
    ]
    for phi in (phi1, phi2, phi3):
        tau = canonical_form(phi.target)
        lifted = DiffForm(
            RatFunc(pullback(phi, tau).poly, BiPoly.monomial(0, w6.deg_y - 1))
        )
        cases.append((phi, tau))
        for pi in G1_PERMS:
            cases.append((compose_with_perm(phi, pi), tau))
            cases.append((perm_morphism(w6, pi), lifted))
    for phi, form in cases:
        assert pullback(phi, form) == dense_pullback(phi, form)
    # y^3 + y^2 + xy + x^4 + 1 is not binomial in y: reducing y^3 links
    # every column of the first window to A's block
    curve = PlaneCurve(Y**3 + Y**2 + X * Y + X**4 + 1)
    ident = CurveMorphism(curve, curve, RatFunc.var_x(), RatFunc.var_y())
    sizes = recording_solves(monkeypatch)
    for g in (BiPoly.const(1), X, X * Y + Y**2, X**3 - 2 * Y + 5):
        form = DiffForm(RatFunc(g, Y**2))
        sizes.clear()
        f = pullback(ident, form)
        assert f == dense_pullback(ident, form) == g.y_reduce(curve.F)
        assert sizes[0][1] == (fermat._PULLBACK_XDEG_STEPS[0] + 1) * 3
    # on y^3 + x^2 y + y + x^4 - 2, the map y to the line has no reduced
    # coefficient in any window
    curve = PlaneCurve(Y**3 + X**2 * Y + Y + X**4 - 2)
    line = CurveMorphism(curve, PlaneCurve(Y), RatFunc.var_y(), 0)
    assert dense_pullback(line, canonical_form(line.target)) is None
    with pytest.raises(ReductionError):
        pullback(line, canonical_form(line.target))


def test_c6_pullbacks_solve_one_unknown_each(monkeypatch):
    """Each form of the genus-10 build is one monomial times omega, so
    A's block has one unknown, and each pullback solves once: ten
    solves of one column each."""
    sizes = recording_solves(monkeypatch)
    forms = build_c6_instance(check_degrees=False).forms
    assert len(forms) == 10
    assert [cols for _, cols in sizes] == [len(f.poly.c) for f in forms]
    assert all(len(f.poly.c) == 1 for f in forms)


def test_pullback_reduction_error():
    phi1, _, _ = c6_generator_morphisms()
    # this denominator is identically zero on the elliptic target
    bad = DiffForm(
        RatFunc(BiPoly.const(1), BiPoly.var_x() ** 3 - BiPoly.var_y() ** 2 - 1)
    )
    with pytest.raises(ReductionError):
        pullback(phi1, bad)


def test_degree_oracle():
    phi1, phi2, phi3 = c6_generator_morphisms()
    assert degree(phi1) == 6
    assert degree(phi2) == 12
    assert degree(phi3) == 4
    # a coordinate twist cannot change the degree; swap(y, z) gives
    # phi2 the mixed v = (x^6 - y^6)/(2x^3y^3), counted on the Newton
    # polygon like the monomials
    twist = compose_with_perm(phi2, (0, 2, 1))
    assert degree(compose_with_perm(phi2, (1, 0, 2))) == degree(twist) == 12
    # the prime supply is unused; the tests' oracle draws from it
    assert degree(twist, primes=[433, 439, 457, 463, 487, 499]) == 12
    assert degree(twist, primes=[]) == 12
    with pytest.raises(modp_oracle.OracleError):
        modp_oracle.degree(twist, "v", primes=[])


def test_degree_of_every_instance_morphism():
    """Twisting phi2 by swap(y, z) leaves a common y^2 in u and a common
    y^3 in v; degree cancels them before counting, so u counts 24 and v
    36 (not 30 and 42 as mod 433 with them), and the twist has degree 12
    like phi2."""
    twist = compose_with_perm(c6_generator_morphisms()[1], (0, 2, 1))
    assert twist.u.den.coeff(2, 4) == ALPHA and twist.v.den.coeff(3, 6) == 2
    assert fermat._strip_monomial(twist.u) == twist.u
    assert fermat._strip_monomial(twist.u).den == BiPoly({(2, 2): ALPHA})
    assert fermat._strip_monomial(twist.v).num == X**6 - Y**6
    inst = build_c6_instance(check_degrees=False)
    assert [degree(phi) for phi in inst.morphisms] == per_morphism(6, 12, 4)


def test_degree_counts_components_in_x_exactly():
    phi1 = c6_generator_morphisms()[0]
    W6, E1 = phi1.source, phi1.target
    # u = -x^2 written as (-x^3 + x^2)/(x - 1): the gcd x - 1 goes, so
    # the count is 2 * 6, not 3 * 6 (which would give degree 9)
    unreduced = RatFunc(-(X**3) + X**2, X - 1)
    assert fermat._exact_fiber_count(unreduced, W6) == 12
    assert degree(CurveMorphism(W6, E1, unreduced, Y**3)) == 6
    # phi2 twisted by swap(y, z) has v = (x^6 - y^6)/(2x^3y^3), in both
    # variables and not a monomial, counted on the Newton polygon; with
    # neither part a monomial there is no exact count
    twist = compose_with_perm(c6_generator_morphisms()[1], (0, 2, 1))
    assert fermat._exact_fiber_count(fermat._strip_monomial(twist.v), W6) == 36
    assert fermat._exact_fiber_count(RatFunc(X + Y, X - Y + 1), W6) is None
    # a constant component has no generic fiber: it fails, never gives 0
    for u in (RatFunc.const(1), RatFunc(X, X)):
        with pytest.raises(InvalidInput, match="constant component"):
            degree(CurveMorphism(W6, E1, u, 0))


def test_degree_cross_checks_the_exact_route_mod_p(monkeypatch):
    """The oracle takes the u = 1/(cbrt4 x^2 y^2) of phi2 twisted by
    swap(y, z) exactly and counts its v mod p.  The exact route, shifted
    to degree 26 / 2 = 13, disagrees with the mod-p route at every
    prime: the oracle gives up and returns nothing.  fermat.degree,
    whose v count shifts to 38, refuses a count that 3 does not
    divide."""
    twist = compose_with_perm(c6_generator_morphisms()[1], (0, 2, 1))
    real = fermat._exact_fiber_count

    def shifted(comp, source):
        count = real(comp, source)
        return None if count is None else count + 2

    monkeypatch.setattr(fermat, "_exact_fiber_count", shifted)
    with pytest.raises(modp_oracle.OracleError, match="did not stabilize"):
        modp_oracle.degree(twist, "v")
    with pytest.raises(VerificationError, match="38 not divisible by 3"):
        degree(twist)


def test_degree_counts_components_in_y_exactly():
    phi1 = c6_generator_morphisms()[0]
    W6, E1 = phi1.source, phi1.target
    # y has degree deg_x(W6) = 6 on the sextic: v = y^3 written as
    # (y^4 - y^3)/(y - 1) loses the gcd y - 1 and counts 3 * 6
    unreduced = RatFunc(Y**4 - Y**3, Y - 1)
    assert fermat._exact_fiber_count(unreduced, W6) == 18
    assert degree(CurveMorphism(W6, E1, -(X**2), unreduced)) == 6
    # on y^2 + xy + 1 the leading x-coefficient is y: a component in y
    # alone has no exact count there, one in x alone is still exact
    conic = PlaneCurve(Y**2 + X * Y + 1)
    assert fermat._exact_fiber_count(RatFunc.var_y(), conic) is None
    assert fermat._exact_fiber_count(RatFunc.var_x(), conic) == 2
    # on y^2 = 1, free of x, y is constant: it fails, never gives 0
    flat = PlaneCurve(Y**2 - 1)
    with pytest.raises(InvalidInput, match="constant component"):
        fermat._exact_fiber_count(RatFunc.var_y(), flat)
    with pytest.raises(InvalidInput, match="constant component"):
        degree(CurveMorphism(flat, PlaneCurve(Y**2 - X), Y**2, Y))


def test_degree_of_phi1_and_phi3_draws_no_prime():
    """phi1 (u = -x^2, v = y^3) and phi3 (u = x^2, v = y^2) have both
    components in one variable: two exact routes, which agree."""
    phi1, _, phi3 = c6_generator_morphisms()

    def primes():
        raise AssertionError("a prime was drawn")
        yield

    assert degree(phi1, primes=primes()) == 6
    assert degree(phi3, primes=primes()) == 4


def test_degree_of_phi2_draws_no_prime():
    """phi2's u = y^4/(cbrt4 x^2) is a monomial, counted on the sextic's
    Newton polygon, and its v = (x^6 - 1)/(2x^3) is in x alone: two
    exact routes, which agree."""
    phi2 = c6_generator_morphisms()[1]

    def primes():
        raise AssertionError("a prime was drawn")
        yield

    assert degree(phi2, primes=primes()) == 12


def test_degree_counts_monomials_on_the_newton_polygon():
    """x^a y^b has valuation <(a, b), n> at each of the l places of an
    edge of lattice length l and inward normal n.  phi2's u has
    (a, b) = (-2, 4); walked counter-clockwise, the sextic's edges are
    the bottom (n = (0, 1): 6 zeros of order 4), the hypotenuse
    (n = (-1, -1)) and the left edge (n = (1, 0)), each 6 poles of
    order 2: 24 poles."""
    phi2 = c6_generator_morphisms()[1]
    W6 = phi2.source
    assert fermat._exact_fiber_count(phi2.u, W6) == 24
    assert fermat._newton_pole_count(W6.F, Y**4, 2, 0) == 24
    assert fermat._newton_pole_count(W6.F, X**4, 0, 2) == 24
    # x/y on y^2 - 3y + 1 + x^3: 3 poles on the bottom edge, of length 3
    # and normal (0, 1); on (y - 1)^2 + x^3 the left edge polynomial
    # t^2 - 2t + 1 has a repeated root, which changes no count: the
    # cusp at (0, 1) is the one place over that edge, of multiplicity 2
    x_over_y = RatFunc(X, Y)
    assert fermat._exact_fiber_count(x_over_y, PlaneCurve(Y**2 - 3 * Y + 1 + X**3)) == 3
    assert fermat._exact_fiber_count(x_over_y, PlaneCurve((Y - 1) ** 2 + X**3)) == 3
    # (x^6 - y^6)/(2x^3y^3) on the sextic: 6 poles of order 3 on the
    # bottom edge and on the left edge, where the initial forms x^6 and
    # y^6 have no root; none on the hypotenuse
    assert fermat._newton_pole_count(W6.F, X**6 - Y**6, 3, 3) == 36
    assert fermat._exact_fiber_count(RatFunc(2 * X**3 * Y**3, X**6 - Y**6), W6) == 36
    # y^2 = x has a segment for its Newton polygon, and y^2 a point
    segment = PlaneCurve(Y**2 - X)
    assert fermat._exact_fiber_count(RatFunc(X * Y, BiPoly.const(1)), segment) is None
    assert fermat._exact_fiber_count(x_over_y, PlaneCurve(Y**2)) is None
    # exponent (0, 0) is a constant, on any polygon
    for source in (W6, segment):
        with pytest.raises(InvalidInput, match="constant component"):
            fermat._exact_fiber_count(RatFunc(X * Y, 2 * X * Y), source)
    with pytest.raises(InvalidInput, match="constant component"):
        degree(CurveMorphism(W6, phi2.target, RatFunc(X * Y, X * Y), 0))


def test_degree_on_a_genus_0_target_draws_no_prime():
    """(x, y) -> (x^2, x) onto the parabola y^2 = x: both components are
    in x alone and give degree 2 exactly (4 / 2 by u, 2 / 1 by v)."""
    parabola = PlaneCurve(Y**2 - X)
    phi = CurveMorphism(cm_elliptic(), parabola, X**2, X)

    def primes():
        raise AssertionError("a prime was drawn")
        yield

    assert degree(phi, primes=primes()) == 2


def test_degree_rejects_a_flat_target_before_drawing_a_prime():
    y = BiPoly.var_y()
    flat = PlaneCurve(y**2 - 1)
    assert flat.deg_x == 0
    phi = CurveMorphism(cm_elliptic(), flat, X, 1)

    def primes():
        raise AssertionError("a prime was drawn")
        yield

    with pytest.raises(InvalidInput, match="positive x- and y-degree"):
        degree(phi, primes=primes())


def test_omega_coefficient_rejects_unreduced_polynomials():
    with pytest.raises(InvalidInput, match="y-degree below"):
        OmegaCoefficient(Y**2, cm_elliptic())
    assert OmegaCoefficient(Y, cm_elliptic()).poly == Y
    assert OmegaCoefficient(BiPoly.const(0) * Y**3, cm_elliptic()).poly.is_zero()


def test_degree_determinism():
    _, phi2, _ = c6_generator_morphisms()
    assert degree(phi2, seed=1) == degree(phi2, seed=2) == 12
    # both are exact: the seed is unused
    twist = compose_with_perm(phi2, (0, 2, 1))
    assert degree(twist, seed=1) == degree(twist, seed=2) == 12


def test_c6_instance():
    inst = build_c6_instance()
    assert inst.g == 10
    assert inst.model.d == 3
    assert inst.model.atom_exponents == (6, 6, 6, 6, 6, 6, 24, 24, 24, 4)
    rep = inst.report
    assert rep["declared_exponents"] == [6, 6, 6, 6, 6, 6, 24, 24, 24, 4]
    assert rep["computed_degrees"] == [6] * 6 + [12] * 3 + [4]
    assert rep["degree_exponent_mismatch"] is True
    assert rep["dim_m2_tr"] == 200
    assert rep["form_classes"] == [V210] * 6 + [V300] * 3 + [V111]
    assert rep["form_ranks"] == {"g1": 6, "g2": 3, "total": 10}
    assert len(inst.morphisms) == 10 and len(inst.forms) == 10
    verdict = decide(inst.model, PROOFTRACE)
    assert verdict.status == INDECOMPOSABLE


def test_c6_build_validates_one_constant(monkeypatch):
    """The genus-10 build runs MultiNf's validating constructor only
    where it makes cbrt4: int and Fraction scalars enter a BiPoly as
    the value from_fraction gives, without it.  Other scalars still
    raise InvalidInput."""
    calls = []
    real = MultiNf.__init__

    def spy(self, spec, coeffs):
        calls.append((tuple(spec), dict(coeffs)))
        real(self, spec, coeffs)

    monkeypatch.setattr(MultiNf, "__init__", spy)
    build_c6_instance(check_degrees=False)
    built = list(calls)
    del calls[:]
    MultiNf.gen("cbrt4")
    assert built == calls and len(built) == 1
    monkeypatch.undo()
    assert BiPoly.const(0).is_zero() and BiPoly.const(F(0)).c == {}
    for v in (2, F(6, 3)):
        (two,) = BiPoly({(0, 0): v}).c.values()
        want = MultiNf.from_fraction(2)
        assert two.spec == want.spec == () and two.c == want.c
        assert type(two.c[()]) is F
    for bad in (1.5, "1"):
        with pytest.raises(InvalidInput):
            BiPoly.const(bad)
        with pytest.raises(InvalidInput):
            BiPoly({(0, 0): bad})


def test_c6_instance_without_degree_check():
    inst = build_c6_instance(check_degrees=False)
    assert inst.report["computed_degrees"] is None
    assert inst.report["degree_exponent_mismatch"] is None
    assert inst.report["form_ranks"]["total"] == 10


OPTIMIZED_CHECK = """
import sys
from fractions import Fraction

from motivix import corr, decomp, fermat, motcalc, polyring
from motivix.cmlat import build_model
from motivix.errors import InvalidInput, VerificationError

print("optimize:", sys.flags.optimize)

real = fermat.solve_field


def perturbed(rows, rhs):
    sol = real(rows, rhs)
    if sol is not None:
        sol[0] = sol[0] + 1
    return sol


phi1, _, _ = fermat.c6_generator_morphisms()
fermat.solve_field = perturbed
try:
    fermat.pullback(phi1, fermat.canonical_form(phi1.target))
except VerificationError as exc:
    print("pullback:", exc)
polyring.solve_field = lambda rows, rhs: None
try:
    (1 + polyring.MultiNf.gen("i")).inverse()
except VerificationError as exc:
    print("inverse:", exc)
real_gen_inverse = polyring._gen_inverse
polyring._gen_inverse = lambda spec, k: polyring.MultiNf.one(spec)
try:
    polyring.MultiNf.gen("i").inverse()
except VerificationError as exc:
    print("one-term inverse:", exc)
polyring._gen_inverse = real_gen_inverse
y = polyring.BiPoly.var_y()
flat = fermat.CurveMorphism(
    fermat.cm_elliptic(), fermat.PlaneCurve(y**2 - 1), polyring.BiPoly.var_x(), 1
)
drawn = []


def primes():
    while True:
        drawn.append(1)
        yield 307


try:
    fermat.degree(flat, primes=primes())
except InvalidInput as exc:
    print("degree:", exc, len(drawn))
real_count = fermat._exact_fiber_count
fermat._exact_fiber_count = lambda comp, source: (
    None if real_count(comp, source) is None else real_count(comp, source) + 1
)
try:
    fermat.degree(phi1)
except VerificationError as exc:
    print("exact count:", exc)
fermat._exact_fiber_count = real_count
try:
    fermat.OmegaCoefficient(y**2, fermat.cm_elliptic())
except InvalidInput as exc:
    print("omega:", exc)
m = build_model(1, 2, glue=[(Fraction(1, 5),) * 2])
real_rosati = decomp.rosati
decomp.rosati = lambda endo, model: real_rosati(endo, model) * 2
c = decomp.Candidate(2, frozenset({(0, 0)}), frozenset(), frozenset())
try:
    decomp.eval_probe(c, decomp.probes_for(m)[0], m)
except VerificationError as exc:
    print("side sum:", exc)
decomp.rosati = real_rosati
decomp.refute = lambda c, m, probes=None: decomp.RefutationResult(True, ())
try:
    decomp.decide(m, decomp.EXHAUSTIVE)
except VerificationError as exc:
    print("witness:", exc)
corr.Corr2.unit = classmethod(lambda cls, model: cls.zero(model))
try:
    corr.build_grids(m)
except VerificationError as exc:
    print("theta:", exc)
motcalc.CKProjectorRing.middle = lambda self: self.zero()
try:
    motcalc.hypersurface_ck(2, 3)
except VerificationError as exc:
    print("projectors:", exc)
real_tensor = motcalc.tensor
motcalc.tensor = lambda x, y: motcalc.MotiveExpr(real_tensor(x, y).dims()[1:])
try:
    motcalc.product_of_curves(2)
except VerificationError as exc:
    print("product:", exc)
try:
    decomp.Probe((1, 2, 0), m).name
except InvalidInput as exc:
    print("probe:", exc)
"""


def test_checks_fire_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivix.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == (
        "optimize: 1\n"
        "pullback: pullback solution fails its back-check\n"
        "inverse: nonzero field element must be invertible\n"
        "one-term inverse: closed-form inverse fails its back-check\n"
        "degree: degree needs a target of positive x- and y-degree 0\n"
        "exact count: exact fiber count 13 not divisible by 2\n"
        "omega: OmegaCoefficient needs y-degree below that of its curve\n"
        "side sum: side images must sum to rosati(sigma_J)\n"
        "witness: materialized witness must pass\n"
        "theta: theta reductions must sum to the unit class\n"
        "projectors: projectors must sum to the diagonal\n"
        "product: C x C must have total dimension (2g + 2)^2\n"
        "probe: probe (1, 2, 0) is neither the identity nor a transposition\n"
    )

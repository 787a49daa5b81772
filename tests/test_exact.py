"""Tests for the exact arithmetic foundation.

Expected values are frozen from independent oracles written here: a
brute-force lattice membership scan and a cofactor-expansion
determinant.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from motivix import exact
from motivix.cmlat import EndoQ, model_from_dict
from motivix.errors import InvalidInput, RankError, ShapeError
from motivix.exact import (
    QuadInt,
    Rat,
    ZLattice,
    row_echelon,
    solve_field,
)
from motivix.polyring import MultiNf


# --- independent oracles ---------------------------------------------------


def oracle_in_span(gens, v, bound=8):
    """Brute-force: is v an integer combination of gens with small coeffs?"""
    n = len(gens)

    def rec(i, acc):
        if i == n:
            return all(x == 0 for x in acc)
        for k in range(-bound, bound + 1):
            nxt = [a - k * g for a, g in zip(acc, gens[i])]
            if rec(i + 1, nxt):
                return True
        return False

    return rec(0, [Fraction(x) for x in v])


def oracle_det(rows):
    """Cofactor expansion along the first row: ring operations only, no
    division, so it checks elimination over any field."""
    if len(rows) == 1:
        return rows[0][0]
    det = 0
    for j, a in enumerate(rows[0]):
        if a != 0:
            term = a * oracle_det([r[:j] + r[j + 1:] for r in rows[1:]])
            det = det + term if j % 2 == 0 else det - term
    return det


# --- QuadInt ---------------------------------------------------------------


def test_quadint_basic():
    w = QuadInt(0, 1, 5)
    assert w * w == QuadInt(-5, 0, 5)
    x = QuadInt(Rat(1, 2), Rat(3), 5)
    assert x.conj().conj() == x
    assert x.norm() == Rat(1, 4) + 5 * 9
    assert (x * x.inverse()) == QuadInt(1, 0, 5)


def test_quadint_rejects_bad_d():
    with pytest.raises(InvalidInput):
        QuadInt(1, 1, 4)
    with pytest.raises(InvalidInput):
        QuadInt(1, 1, -3)
    with pytest.raises(InvalidInput):
        QuadInt(1, 0, 1) + QuadInt(1, 0, 2)


def test_quadint_ring_properties_random():
    rng = random.Random(101)

    def rq():
        return QuadInt(
            Rat(rng.randint(-9, 9), rng.randint(1, 5)),
            Rat(rng.randint(-9, 9), rng.randint(1, 5)),
            3,
        )

    for _ in range(200):
        x, y, z = rq(), rq(), rq()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x * y).norm() == x.norm() * y.norm()


def test_quadint_bounds_d(monkeypatch):
    assert exact.MAX_D == 10**9
    for d in (1, 2, 3, 7, 11, 19, 43, 67, 163, 999_999_937):
        assert QuadInt(0, 1, d).d == d

    def unreachable(n):
        raise AssertionError("the squarefree check ran on a d above MAX_D")

    monkeypatch.setattr(exact, "_is_squarefree", unreachable)
    with pytest.raises(InvalidInput, match="MAX_D"):
        QuadInt(0, 1, 10**18 + 9)
    # a d that is not an int is refused, not truncated, before either bound
    for bad in (5.5, 7.0, 1e18, "7", True, Fraction(7), None):
        with pytest.raises(InvalidInput, match="d must be an integer"):
            QuadInt(1, 0, bad)
    model = {"d": 10**18 + 9, "g": 2, "glue": [[[1, 5], [1, 5]]], "mode": "lattice"}
    with pytest.raises(InvalidInput, match="MAX_D"):
        model_from_dict(model)


def test_quadint_checks_d_at_public_constructors_only(monkeypatch):
    for bad in (lambda: QuadInt(1, 0, 4), lambda: QuadInt(0, 0, 12),
                lambda: QuadInt(1, 0, 0), lambda: QuadInt(0, 1, 18)):
        with pytest.raises(InvalidInput):
            bad()
    d = 10**8 + 7
    x = QuadInt(Rat(1, 2), 3, d)
    y = QuadInt(-2, Rat(1, 5), d)
    checked = []
    real = exact._is_squarefree
    monkeypatch.setattr(
        exact, "_is_squarefree", lambda n: checked.append(n) or real(n)
    )
    results = {
        "x+y": x + y, "x-y": x - y, "3-x": 3 - x, "x+1": x + 1,
        "x*y": x * y, "x*2/3": x * Rat(2, 3), "x/y": x / y, "2/x": 2 / x,
        "x**3": x**3, "x**-2": x**-2, "-x": -x, "conj": x.conj(),
        "inv": x.inverse(),
    }
    assert checked == [], "arithmetic on valid values must not re-check d"
    for name, r in results.items():
        assert type(r.a) is Rat and type(r.b) is Rat and r.d == d, name
        with pytest.raises(AttributeError):
            r.a = Rat(0)
    # the values agree with the validating constructor
    want = {
        "x+y": (x.a + y.a, x.b + y.b), "x-y": (x.a - y.a, x.b - y.b),
        "3-x": (3 - x.a, -x.b), "x+1": (x.a + 1, x.b),
        "x*y": (x.a * y.a - d * x.b * y.b, x.a * y.b + x.b * y.a),
        "x*2/3": (x.a * Rat(2, 3), x.b * Rat(2, 3)), "-x": (-x.a, -x.b),
        "conj": (x.a, -x.b),
    }
    for name, (a, b) in want.items():
        assert results[name] == QuadInt(a, b, d), name
    assert results["x/y"] * y == x
    assert results["2/x"] * x == 2
    assert results["x**3"] == x * x * x
    assert results["x**-2"] * x * x == 1
    assert results["inv"] * x == QuadInt(1, 0, d)
    assert checked == [d] * (len(want) + 1)


# --- EndoQ arithmetic ------------------------------------------------------


def _rand_endo(rng, n, d):
    """A random n x n EndoQ over Q(sqrt(-d)) with rational and sqrt(-d)
    parts."""
    def part():
        return Rat(rng.randint(-5, 5), rng.randint(1, 3))

    return EndoQ.from_rows(
        [[QuadInt(part(), part(), d) for _ in range(n)] for _ in range(n)], d
    )


def test_matrix_shape_errors():
    a = EndoQ.from_rows([[Rat(1), Rat(2)], [Rat(3), Rat(4)]], 1)
    b = EndoQ.from_rows([[Rat(1)] * 3] * 3, 1)
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a - b
    with pytest.raises(ShapeError):
        a * b  # 2x2 times 3x3
    with pytest.raises(ShapeError):
        EndoQ.from_rows([[Rat(1), Rat(2)], [Rat(3)]], 1)  # ragged
    with pytest.raises(ShapeError):
        EndoQ.from_rows([[Rat(1), Rat(2)]], 1)  # 1x2, not square
    with pytest.raises(ShapeError):
        EndoQ.from_rows([], 1)
    # equal g over different fields
    c = EndoQ.from_rows([[Rat(1), Rat(2)], [Rat(3), Rat(4)]], 2)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(InvalidInput):
            op(a, c)


def test_matrix_algebra_random():
    rng = random.Random(303)
    for d in (1, 3, 7):
        ident = EndoQ.from_rows([[Rat(int(i == j)) for j in range(3)] for i in range(3)], d)
        for _ in range(20):
            a, b, c = (_rand_endo(rng, 3, d) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a + b) * c == a * c + b * c
            assert a * (b - c) == a * b - a * c
            assert ident * a == a * ident == a
            assert (a - a).is_zero() and a + (-a) == a - a
            assert a.conj().conj() == a and (a * b).conj() == a.conj() * b.conj()
            assert a.scale(2) == a + a == 2 * a == a * 2


def test_matrix_quadint_entries():
    d = 1
    w = QuadInt(0, 1, d)
    m = EndoQ.from_rows([[w, 0], [0, w]], d)
    minus_ident = EndoQ.from_rows([[-1, 0], [0, -1]], d)
    assert m * m == minus_ident
    assert m.scale(w) == minus_ident
    assert repr(minus_ident) == (
        "EndoQ(d=1, [[QuadInt(-1, 0, d=1), QuadInt(0, 0, d=1)], "
        "[QuadInt(0, 0, d=1), QuadInt(-1, 0, d=1)]])"
    )


def test_solve_field():
    a = [[Rat(2), Rat(1)], [Rat(1), Rat(3)]]
    x = solve_field(a, [Rat(5), Rat(10)])
    assert x == [Rat(1), Rat(3)]
    # inconsistent
    b = [[Rat(1), Rat(1)], [Rat(2), Rat(2)]]
    assert solve_field(b, [Rat(1), Rat(3)]) is None
    # underdetermined still returns some solution
    x = solve_field(b, [Rat(1), Rat(2)])
    assert x is not None and x[0] + x[1] == Rat(1)
    # over Q(sqrt(-2)) the second row is w times the first: x1 and x2 are
    # free and come back as QuadInt zeros
    d = 2
    w = QuadInt(0, 1, d)
    one = QuadInt(1, 0, d)
    rows = [[one, w, one], [w, QuadInt(-2, 0, d), w]]
    x = solve_field(rows, [one + w, w * (one + w)])
    assert x == [one + w, 0, 0]
    assert all(isinstance(v, QuadInt) for v in x)
    assert solve_field(rows, [one, one]) is None


def oracle_rank(rows):
    """Largest k with a nonzero k x k minor, by brute force over minors."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                if oracle_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def _rand_rat(rng):
    return Rat(rng.randint(-3, 3), rng.randint(1, 2))


def _quad(rng):
    return QuadInt(_rand_rat(rng), _rand_rat(rng), 7)


def _cbrt4(rng):
    return MultiNf(("cbrt4",), {(k,): _rand_rat(rng) for k in range(3)})


def _sparse(make, zero):
    """About 90 % zeros, as in the pullback systems."""
    return lambda rng: make(rng) if rng.random() < 0.1 else zero


# (rows, cols, trials, entry): dense rationals, then sparse systems over
# Q(sqrt(-7)) and Q(cbrt4)
RANDOM_SYSTEMS = (
    (3, 4, 30, _rand_rat),
    (6, 7, 12, _sparse(_quad, QuadInt(0, 0, 7))),
    (6, 7, 12, _sparse(_cbrt4, MultiNf.zero(("cbrt4",)))),
)


def test_solve_field_random_against_oracle():
    for m, n, trials, entry in RANDOM_SYSTEMS:
        rng = random.Random(404)
        for trial in range(trials):
            rows = [[entry(rng) for _ in range(n)] for _ in range(m)]
            if trial % 3 == 0:
                # force a dependent row
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            zero = rows[0][0] * 0
            x0 = [entry(rng) for _ in range(n)]
            rhs = [sum((a * b for a, b in zip(r, x0)), zero) for r in rows]
            x = solve_field(rows, rhs)
            assert [sum((a * b for a, b in zip(r, x)), zero) for r in rows] == rhs
            if trial % 3 == 0:
                # the dependent row with an inconsistent right-hand side
                assert solve_field(rows, rhs[:-1] + [rhs[-1] + 1]) is None
            ech = [list(r) for r in rows]
            pivots = row_echelon(ech, n)
            assert len(pivots) == oracle_rank(rows)
            for k, c in enumerate(pivots):
                assert ech[k][c] == 1 and type(ech[k][c]) is type(zero)
                assert all(ech[i][c] == 0 for i in range(k + 1, m))
            assert all(v == 0 for row in ech[len(pivots):] for v in row)


# --- ZLattice ----------------------------------------------------------------


def basis_rows(lat):
    """The canonical basis of lat as rational row vectors."""
    return tuple(tuple(Rat(x, lat.den) for x in row) for row in lat.hbasis)


# (1/5, 2/5) + Z^2, as integer rows over the denominator 5
FIFTHS = ([[1, 2], [5, 0], [0, 5]], 5)


def test_hnf_identity_fixed():
    lat = ZLattice.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1)
    assert basis_rows(lat) == tuple(
        tuple(Rat(1) if i == j else Rat(0) for j in range(4)) for i in range(4)
    )


def test_hnf_small_example():
    lat = ZLattice.from_rows([[2, 0], [1, 1]], 1)
    assert basis_rows(lat) == ((Rat(1), Rat(1)), (Rat(0), Rat(2)))
    # same membership as the generating set, brute force both ways
    gens = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]]
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert lat.contains([Rat(x), Rat(y)]) == oracle_in_span(gens, [x, y])


def test_hnf_rational_closure_det():
    lat = ZLattice.from_rows(*FIFTHS)
    assert oracle_det(basis_rows(lat)) in (Rat(1, 5), Rat(-1, 5))


def test_hnf_idempotent():
    lat = ZLattice.from_rows(*FIFTHS)
    again = ZLattice.from_rows(lat.hbasis, lat.den)
    assert lat == again and lat.hbasis == again.hbasis


def test_hnf_rank_deficient():
    with pytest.raises(RankError):
        ZLattice.from_rows([[1, 2], [2, 4]], 1)


def column_hnf(rows):
    """Row Hermite normal form by eliminating one column at a time over
    all rows, the textbook route whose entries can grow with every
    column."""
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            if rows[i][c]:
                g, s, t = exact._xgcd(rows[r][c], rows[i][c])
                u, v = rows[r][c] // g, rows[i][c] // g
                rows[r], rows[i] = ([s * x + t * y for x, y in zip(rows[r], rows[i])],
                                    [u * y - v * x for x, y in zip(rows[r], rows[i])])
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def test_hnf_matches_column_elimination():
    rng = random.Random(20261021)
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 9)
        bound = rng.choice((2, 5, 30, 1000))
        rows = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:  # full rank from the start, as build_model's
            d = rng.randint(1, 40)
            rows = [[d * (i == j) for j in range(n)] for i in range(n)] + rows
        assert exact._int_hnf(rows) == column_hnf(rows), rows


def test_from_rows_takes_integer_rows_over_a_positive_denominator():
    assert ZLattice.from_rows([[2, 4], [0, 6]], 4) == ZLattice.from_rows([[1, 2], [0, 3]], 2)
    for rows, den in (([[Rat(1, 5), 0], [0, 1]], 1), ([[1.0, 0], [0, 1]], 1),
                      ([[True, 0], [0, 1]], 1), ([[1, 0], [0, 1]], 0),
                      ([[1, 0], [0, 1]], Rat(1)), ([[1, 0], [0, 1]], -2)):
        with pytest.raises(InvalidInput):
            ZLattice.from_rows(rows, den)


def test_contains_examples():
    z2 = ZLattice.from_rows([[1, 0], [0, 1]], 1)
    assert z2.contains([Rat(3), Rat(-7)])
    lat = ZLattice.from_rows(*FIFTHS)
    assert lat.contains([Rat(1, 5), Rat(2, 5)])
    assert not lat.contains([Rat(1, 5), Rat(0)])
    # brute-force oracle over k*(1/5,2/5) + Z^2 for |k| <= 5
    for v in ([Rat(1, 5), Rat(2, 5)], [Rat(1, 5), Rat(0)], [Rat(3, 5), Rat(1, 5)]):
        expect = any(
            (v[0] - k * Rat(1, 5)).denominator == 1
            and (v[1] - k * Rat(2, 5)).denominator == 1
            for k in range(-5, 6)
        )
        assert lat.contains(v) == expect


def test_contains_shape_error():
    z2 = ZLattice.from_rows([[1, 0], [0, 1]], 1)
    with pytest.raises(ShapeError):
        z2.contains([Rat(1)])


def test_contains_unimodular_invariance():
    rng = random.Random(505)
    # (1/6, 1/3, 0), (0, 1/2, 0) and Z^3, over the denominator 6
    base = [[1, 2, 0], [0, 3, 0], [0, 0, 6], [6, 0, 0], [0, 6, 0]]
    lat = ZLattice.from_rows(base, 6)
    rows = [list(r) for r in lat.hbasis]
    for _ in range(20):
        # random elementary row operations keep the lattice
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        assert ZLattice.from_rows(rows, lat.den) == lat
    for _ in range(50):
        v = [Rat(rng.randint(-6, 6), rng.choice([1, 2, 3, 6])) for _ in range(3)]
        assert ZLattice.from_rows(rows, lat.den).contains(v) == lat.contains(v)

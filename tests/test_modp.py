"""The finite-field degree oracle (modp_oracle) against plain-definition
references, and the exact degrees of motivix.fermat against the oracle:
resultants against Sylvester determinants, reduction against long
division, the interpolation at 0..n-1 against Newton interpolation at
any nodes, roots against a scan of F_p, the resultant degree bound, the
fiber count against the loop it replaced, and every exact count, on the
genus-10 instance and on seeded curves, against the oracle's fiber
count."""

import random
import time
from fractions import Fraction

import pytest

import modp_oracle
from modp_oracle import (
    _BadPrime,
    _route_count,
    fiber_count,
    fp2_deg_x,
    fp2_deg_y,
    fp2_eval_x,
    fp2_res_deg_bound,
    fp2_scale,
    fp2_shear,
    fp2_sub,
    fp_distinct_root_count,
    fp_gcd,
    fp_interp_range,
    fp_roots,
    map_fp,
)
from motivix import fermat
from motivix.errors import InvalidInput, OracleError, UnsupportedQuery
from motivix.fermat import (
    PlaneCurve,
    build_c6_instance,
    c6_generator_morphisms,
    compose_with_perm,
    degree,
    per_morphism,
)
from motivix.polyring import (
    BiPoly,
    MultiNf,
    RatFunc,
    _fp_reduce,
    fp_resultant,
    fp_trim,
    join_specs,
)

P = 1009
oracle_degree = modp_oracle.degree


def fp_interp(xs, ys, p):
    """Newton interpolation, the reference for the oracle's
    fp_interp_range; xs distinct mod p, else InvalidInput.  Each distinct
    difference xs[k] - xs[k - j] is inverted once."""
    n = len(xs)
    if len({x % p for x in xs}) != n:
        raise InvalidInput("interpolation points agree mod %d" % p)
    co = [y % p for y in ys]
    inverses = {}
    for j in range(1, n):
        ds = [(b - a) % p for a, b in zip(xs, xs[j:])]
        for d in set(ds).difference(inverses):
            inverses[d] = pow(d, p - 2, p)
        co[j:] = [(b - a) * inverses[d] % p for a, b, d in zip(co[j - 1 :], co[j:], ds)]
    # Horner on the Newton form: poly <- poly*(X - xs[k]) + co[k]
    poly = [co[n - 1]]
    for k in range(n - 2, -1, -1):
        a = xs[k]
        poly = [(lo - a * hi) % p for lo, hi in zip([co[k]] + poly, poly + [0])]
    return fp_trim(poly)


def det_mod_p(rows, p):
    """Determinant by Gaussian elimination mod p."""
    a = [[c % p for c in row] for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], p - 2, p)
        for r in range(col + 1, n):
            factor = a[r][col] * inv % p
            if factor:
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def sylvester_resultant(f, g, m, n, p):
    """det of the Sylvester matrix of f and g read with formal degrees
    m and n (dense lists, low degree first); row k of each block holds
    the coefficients from the top degree down, starting at column k."""
    f = list(f) + [0] * (m + 1 - len(f))
    g = list(g) + [0] * (n + 1 - len(g))
    size = m + n
    rows = []
    for k in range(n):
        row = [0] * size
        for e, c in enumerate(f):
            row[m - e + k] = c
        rows.append(row)
    for k in range(m):
        row = [0] * size
        for e, c in enumerate(g):
            row[n - e + k] = c
        rows.append(row)
    return det_mod_p(rows, p)


def poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def poly_eval(f, x0, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x0 + c) % p
    return acc


def random_poly(rng, deg, p):
    return [rng.randrange(p) for _ in range(deg + 1)]


def test_fp_resultant_matches_sylvester_determinant():
    rng = random.Random(70101)
    for _ in range(400):
        f = random_poly(rng, rng.randrange(0, 7), P)
        g = random_poly(rng, rng.randrange(0, 7), P)
        if rng.random() < 0.25:
            g = g + [0] * rng.randrange(1, 3)  # trailing zeros are trimmed
        tf, tg = fp_trim(list(f)), fp_trim(list(g))
        want = (
            sylvester_resultant(tf, tg, len(tf) - 1, len(tg) - 1, P)
            if tf and tg
            else 0
        )
        assert fp_resultant(f, g, P) == want
    # constants, and the zero polynomial on either side
    assert fp_resultant([3], [5], P) == 1
    assert fp_resultant([3], [1, 2, 1], P) == 9
    assert fp_resultant([1, 2, 1], [3], P) == 9
    assert fp_resultant([], [1, 1], P) == fp_resultant([1, 1], [0, 0], P) == 0
    # a common root gives 0: (X - 2)(X - 3) against (X - 3)(X + 1)
    assert fp_resultant(
        poly_mul([-2 % P, 1], [-3 % P, 1], P), poly_mul([-3 % P, 1], [1, 1], P), P
    ) == 0


def test_fp_resultant_of_monic_f_ignores_degree_drop_in_g():
    """With f monic, Res(f, g) read at g's formal degree equals the
    resultant of the trimmed g: the identity the degree oracle relies on
    when G(x0) loses its leading y-coefficient."""
    rng = random.Random(70102)
    for _ in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        f = random_poly(rng, m - 1, P) + [1]
        drop = rng.randrange(1, n + 1)
        g = random_poly(rng, n - drop, P) + [0] * drop
        assert fp_resultant(f, g, P) == sylvester_resultant(f, g, m, n, P)


def long_division_remainder(f, g, p):
    """Schoolbook remainder of f by a trimmed nonzero g."""
    r = fp_trim(list(f))
    inv = pow(g[-1], p - 2, p)
    while len(r) >= len(g):
        c, shift = r[-1] * inv % p, len(r) - len(g)
        for k, b in enumerate(g):
            r[shift + k] = (r[shift + k] - c * b) % p
        fp_trim(r)
    return r


def test_fp_reduce_leaves_a_short_remainder_of_the_same_class():
    rng = random.Random(70103)
    for _ in range(300):
        f = random_poly(rng, rng.randrange(0, 10), P)
        g = fp_trim(random_poly(rng, rng.randrange(0, 6), P))
        if not g:
            continue
        if rng.random() < 0.2:
            f = f + [0, 0]
        r = _fp_reduce(list(f), g, P)
        assert r == fp_trim(list(r))
        assert len(r) < len(g)
        n = max(len(f), len(r))
        diff = [(a - b) % P for a, b in zip(f + [0] * (n - len(f)), r + [0] * (n - len(r)))]
        assert long_division_remainder(diff, g, P) == []
    assert _fp_reduce([1, 2], [0, 0, 5], P) == [1, 2]


def test_fp_interp_round_trip_on_scattered_points():
    rng = random.Random(70104)
    for _ in range(100):
        deg = rng.randrange(0, 15)
        poly = fp_trim(random_poly(rng, deg, P))
        xs = rng.sample(range(P), deg + 1 + rng.randrange(0, 4))
        ys = [poly_eval(poly, x0, P) for x0 in xs]
        assert fp_interp(xs, ys, P) == poly
        # arbitrary values: the interpolant has degree < n and hits them
        ys = [rng.randrange(P) for _ in xs]
        got = fp_interp(xs, ys, P)
        assert len(got) <= len(xs)
        assert [poly_eval(got, x0, P) for x0 in xs] == ys
    assert fp_interp([5], [7], P) == [7]


def test_fp_interp_rejects_points_equal_mod_p():
    with pytest.raises(InvalidInput, match="agree mod 7"):
        fp_interp([0, 7], [1, 2], 7)
    with pytest.raises(InvalidInput):
        fp_interp([3, 1, 2, 3], [0, 0, 0, 0], P)
    assert fp_interp([0, 6], [1, 2], 7) == [1, 6]
    # the nodes 0..n-1 of the oracle's interpolation exist mod p only
    # for n <= p
    with pytest.raises(InvalidInput, match="agree mod 7"):
        fp_interp_range([1] * 8, 7)
    assert fp_interp_range([1, 2, 3, 4, 5, 6, 0], 7) == [1, 1]
    assert fp_interp_range([], 7) == []


def test_interp_range_matches_newton_interpolation():
    """fp_interp_range, at the nodes 0..n-1, gives the Newton polynomial
    for every n up to 40, at primes above the oracle's floor; on unit
    values it gives the Lagrange basis, 1 at one node and 0 elsewhere."""
    rng = random.Random(70107)
    for p in (307, 331, 1009, 7919, 1000000007):
        for n in range(1, 41):
            for k in range(n) if n in (1, 2, 3, 20, 40) else ():
                unit = [int(x0 == k) for x0 in range(n)]
                L = fp_interp_range(unit, p)
                assert [poly_eval(L, x0, p) for x0 in range(n)] == unit
            for _ in range(3):
                ys = [rng.randrange(p) for _ in range(n)]
                if rng.random() < 0.3:  # a low degree: the result trims
                    low = random_poly(rng, rng.randrange(n), p)
                    ys = [poly_eval(low, x0, p) for x0 in range(n)]
                assert fp_interp_range(ys, p) == fp_interp(range(n), ys, p)


def test_distinct_root_count_matches_a_scan_of_split_polynomials():
    """fp_distinct_root_count on products of linear factors, repeats
    allowed, counts each root once."""
    rng = random.Random(70108)
    for p in (331, 1009):
        for _ in range(300):
            f = [rng.randrange(1, p)]
            for _ in range(rng.randrange(0, 8)):
                f = poly_mul(f, [rng.randrange(p), 1], p)
            assert fp_distinct_root_count(f, p) == len(scan_roots(f, p))
    assert fp_distinct_root_count([], P) == fp_distinct_root_count([5], P) == 0


def test_eval_x_matches_the_term_by_term_sum():
    rng = random.Random(70110)
    for _ in range(100):
        dy = rng.randrange(0, 4)
        F = random_bivariate(rng, dy + rng.randrange(0, 5), dy, False, P)
        x0 = rng.randrange(P)
        want = fp_trim(
            [
                sum(c * pow(x0, i, P) for (i, jj), c in F.items() if jj == j) % P
                for j in range(fp2_deg_y(F) + 1)
            ]
        )
        assert fp2_eval_x(F, x0, P) == want


def scan_roots(f, p):
    return [t for t in range(p) if poly_eval(f, t, p) == 0]


def test_fp_roots_match_a_scan_of_the_field():
    rng = random.Random(70109)
    primes = [p for p in range(3, 400) if modp_oracle._is_prime(p)]
    for p in primes:
        for f in ([1, p - 1, 1], [p - 4, 0, 0, 1], [1, 0, 1]):  # the minpolys
            assert fp_roots(f, p) == scan_roots(f, p)
    for _ in range(300):
        p = rng.choice(primes)
        f = fp_trim(random_poly(rng, rng.randrange(0, 6), p)) or [1]
        if rng.random() < 0.4:  # split completely, repeated roots allowed
            f = [1]
            for _ in range(rng.randrange(1, 6)):
                f = poly_mul(f, [rng.randrange(p), 1], p)
        assert fp_roots(f, p) == scan_roots(f, p)
    assert fp_roots([], P) == fp_roots([5], P) == []
    assert fp_roots([0, 0, 1], P) == [0]
    # X(X + 1) mod 2: no quadratic character splits it
    with pytest.raises(InvalidInput, match="odd prime"):
        fp_roots([0, 1, 1], 2)


def test_degree_oracle_fails_fast_on_large_primes(monkeypatch):
    """Generator roots come from gcds, not a scan of F_p.  The shear
    (x, y) -> (x, x + cbrt4 y) maps the sextic birationally onto
    (v - u)^6 + 16u^6 + 16 = 0.  The oracle takes u = x exactly and
    counts v = x + cbrt4 y mod p, which needs a cube root of 4.  Among
    five primes near 10^9 only 1000000123 has one, so it gives up, and
    at the first three primes above 10^9 that are 1 mod 3 and have one
    it gets the degree, 1, that fermat.degree counts exactly (v has 6
    poles, on the hypotenuse of the sextic's Newton triangle)."""
    primes = [1000000087, 1000000093, 1000000123, 1000000207, 1000000297]
    cubes = [1000000123, 1000000363, 1000000411, 1000000453, 1000000531]
    x, y = BiPoly.var_x(), BiPoly.var_y()
    target = PlaneCurve((y - x) ** 6 + 16 * x**6 + 16)
    u = RatFunc.var_x()
    shear = fermat.CurveMorphism(
        fermat.fermat_sextic(), target, u, u + RatFunc.var_y() * MultiNf.gen("cbrt4")
    )
    counted = []
    real_route = modp_oracle._route_count

    def recording(F, A, B, p, rng):
        counted.append(p)
        return real_route(F, A, B, p, rng)

    monkeypatch.setattr(modp_oracle, "_route_count", recording)
    start = time.perf_counter()
    with pytest.raises(OracleError):
        oracle_degree(shear, "v", primes=primes)
    assert counted == [1000000123]
    assert oracle_degree(shear, "v", primes=cubes) == 1
    assert counted[1:] == cubes[:3]
    assert time.perf_counter() - start < 5.0
    assert degree(shear) == 1 and counted[4:] == []


def test_degree_refuses_composite_moduli():
    """pow(a, p - 2, p) inverts nothing modulo a composite p, so a caller's
    modulus that is not a prime is refused when it is drawn, not used.
    The oracle counts the v = (x^6 - y^6)/(2x^3y^3) of phi2 twisted by
    swap(y, z) mod p."""
    twist = compose_with_perm(c6_generator_morphisms()[1], (0, 2, 1))
    # Carmichael numbers, and 7 * 13 * 19 * 37 * 73 * 109
    for primes in ([341, 561, 1105], [509033161] * 3):
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match="primes below"):
            oracle_degree(twist, "v", primes=primes)
        assert time.perf_counter() - start < 1.0
    for bad in (True, 433.0, "433", -433, modp_oracle._PRIME_TEST_BOUND + 2):
        with pytest.raises(InvalidInput, match="primes below"):
            oracle_degree(twist, "v", primes=[433, bad])

    def endless():
        yield 433
        while True:
            yield 435

    with pytest.raises(InvalidInput, match="got 435"):
        oracle_degree(twist, "v", primes=endless())


def test_degree_refuses_a_repeated_modulus():
    """Three agreeing counts at one prime are one prime's work: a modulus
    drawn twice is refused, as a composite is, even one that hosts no
    count (mod 31 the 37 interpolation points of the twist's v route do
    not exist), counting the v = (x^6 - y^6)/(2x^3y^3) of phi2 twisted by
    swap(y, z) mod p."""
    twist = compose_with_perm(c6_generator_morphisms()[1], (0, 2, 1))
    with pytest.raises(InvalidInput, match="got 433 again"):
        oracle_degree(twist, "v", primes=[433, 433, 433])
    with pytest.raises(InvalidInput, match="got 31 again"):
        oracle_degree(twist, "v", primes=[31, 433, 31, 439, 457])


def test_is_prime_matches_trial_division():
    sieve = [n for n in range(3000) if n > 1 and all(n % k for k in range(2, n))]
    assert [n for n in range(3000) if modp_oracle._is_prime(n)] == sieve
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases up to 37
    for n in (3215031751, 318665857834031151167461):
        assert not modp_oracle._is_prime(n)
    assert modp_oracle._is_prime(1000000087) and modp_oracle._is_prime(2 ** 61 - 1)


def random_bivariate(rng, total, ydeg, monic, p):
    """A dict {(i, j): c} of total degree `total` and y-degree `ydeg`;
    when monic, y^ydeg has coefficient 1 and no x-dependence."""
    out = {}
    for j in range(ydeg + (0 if monic else 1)):
        for i in range(total - j + 1):
            if rng.random() < 0.6:
                out[(i, j)] = rng.randrange(1, p)
    if monic:
        out[(0, ydeg)] = 1
        out[(total, 0)] = rng.randrange(1, p)
    else:
        out[(total - ydeg, ydeg)] = rng.randrange(1, p)
    return out


def res_y_at(F, G, x0, p):
    m, n = fp2_deg_y(F), fp2_deg_y(G)
    return sylvester_resultant(
        fp2_eval_x(F, x0, p), fp2_eval_x(G, x0, p), m, n, p
    )


def test_resultant_degree_bound():
    """deg_x Res_y(F, G) <= M*n + m*N - m*n, on pairs whose y-degree is
    below their total degree; interpolating from either bound gives the
    same R."""
    rng = random.Random(70105)
    tighter = 0
    for _ in range(60):
        monic = rng.random() < 0.7
        m = rng.randrange(1, 4)
        M = rng.randrange(m + (1 if monic else 0), m + 3)
        n = rng.randrange(1, 4)
        N = rng.randrange(n, n + 3)
        F = random_bivariate(rng, M, m, monic, P)
        G = random_bivariate(rng, N, n, False, P)
        assert fp2_deg_y(F) == m and max(i + j for (i, j) in F) == M
        assert fp2_deg_y(G) == n and max(i + j for (i, j) in G) == N
        classical = fp2_deg_x(F) * n + fp2_deg_x(G) * m
        bound = fp2_res_deg_bound(F, G)
        assert bound == min(classical, M * n + m * N - m * n)
        tighter += bound < classical
        # each Sylvester entry has x-degree <= max(M, N): a bound that
        # trusts neither lemma
        xs = range((m + n) * max(M, N) + 1)
        R = fp_interp(xs, [res_y_at(F, G, x0, P) for x0 in xs], P)
        assert len(R) - 1 <= bound
        if monic:
            # the oracle's evaluation: resultants of the specialized
            # polynomials, whose y-degree in G may drop
            vals = [
                fp_resultant(fp2_eval_x(F, x0, P), fp2_eval_x(G, x0, P), P)
                for x0 in range(classical + 1)
            ]
            assert fp_interp(range(bound + 1), vals[: bound + 1], P) == R
            assert fp_interp(range(classical + 1), vals, P) == R
    assert tighter >= 20


def old_route_count(F_fp, A_fp, B_fp, p, rng, trials=6):
    """The fiber count as it was: the classical point count, and every
    polynomial evaluated afresh for every trial, six trials per shear."""
    sheared = []
    for _ in range(8):
        lam = rng.randrange(1, p)
        Ft = fp2_shear(F_fp, lam, p)
        dyt = fp2_deg_y(Ft)
        if any(i > 0 for (i, j) in Ft if j == dyt):
            continue
        lc = Ft.get((0, dyt), 0)
        if not lc:
            continue
        Ft = fp2_scale(Ft, pow(lc, p - 2, p), p)
        At = fp2_shear(A_fp, lam, p)
        Bt = fp2_shear(B_fp, lam, p)
        sheared.append((Ft, At, Bt))
        if len(sheared) == 2:
            break
    if not sheared:
        raise _BadPrime("no usable shear")
    best = 0
    for Ft, At, Bt in sheared:
        dxF, dyF = fp2_deg_x(Ft), fp2_deg_y(Ft)
        for _ in range(trials):
            u0 = rng.randrange(1, p)
            Gt = fp2_sub(At, fp2_scale(Bt, u0, p), p)
            if not Gt:
                continue
            dxG, dyG = fp2_deg_x(Gt), fp2_deg_y(Gt)
            if dyG < 1:
                continue
            xs = list(range(dxF * dyG + dxG * dyF + 1))
            vals = [
                fp_resultant(fp2_eval_x(Ft, x0, p), fp2_eval_x(Gt, x0, p), p)
                for x0 in xs
            ]
            if not any(vals):
                continue
            R = fp_interp(xs, vals, p)
            best = max(best, fp_distinct_root_count(R, p))
    if best == 0:
        raise _BadPrime("no informative fiber sample")
    return best


def outcome(fn, args, seed):
    rng = random.Random(seed)
    try:
        result = fn(*args, rng)
    except _BadPrime:
        result = "bad prime"
    return result, rng.getstate()


def test_route_count_matches_the_previous_loop():
    cases = 0
    for phi in c6_generator_morphisms():
        spec = ()
        for part in (
            phi.source.F, phi.target.F, phi.u.num, phi.u.den, phi.v.num, phi.v.den
        ):
            for v in part.c.values():
                spec = join_specs(spec, v.spec)
        for p in (307, 313, 337, 349):
            try:
                assign = modp_oracle._gen_assignment(spec, p)
            except _BadPrime:
                continue
            F_fp = map_fp(phi.source.F, p, assign)
            for comp in (phi.u, phi.v):
                A_fp = map_fp(comp.num, p, assign)
                B_fp = map_fp(comp.den, p, assign)
                args = (F_fp, A_fp, B_fp, p)
                for seed in (1, 2):
                    assert outcome(_route_count, args, seed) == outcome(
                        old_route_count, args, seed
                    )
                    cases += 1
    # small random curves and maps, where shears and samples can fail
    rng = random.Random(70106)
    p = 331
    for _ in range(12):
        F_fp = random_bivariate(rng, rng.randrange(2, 4), rng.randrange(1, 3), False, p)
        A_fp = random_bivariate(rng, rng.randrange(1, 3), rng.randrange(0, 2), False, p)
        B_fp = {(0, 0): 1} if rng.random() < 0.5 else {(1, 0): 1}
        args = (F_fp, A_fp, B_fp, p)
        assert outcome(_route_count, args, 3) == outcome(old_route_count, args, 3)
        cases += 1
    # G = (1 - u0) * 1 never depends on y: no informative sample
    args = ({(0, 2): 1, (1, 0): 1}, {(0, 0): 1}, {(0, 0): 1}, p)
    assert outcome(_route_count, args, 4)[0] == "bad prime"
    assert outcome(_route_count, args, 4) == outcome(old_route_count, args, 4)
    assert cases >= 30


def recording_interp(monkeypatch):
    """Record (point count, p) of every interpolation the oracle runs."""
    seen = []
    real = modp_oracle.fp_interp_range

    def recording(ys, p):
        seen.append((len(ys), p))
        return real(ys, p)

    monkeypatch.setattr(modp_oracle, "fp_interp_range", recording)
    return seen


def no_primes():
    raise AssertionError("a prime was drawn")
    yield


def test_degree_oracle_resultant_count(monkeypatch):
    """fermat.degree counts all ten degrees of the instance exactly, with
    no point resultant and no prime.  The oracle, counting mod p the one
    route that had no exact count before polynomial numerators reached
    the Newton polygon, the v route of phi2 twisted by swap(y, z), and
    taking its u exactly, takes 1,332 point resultants over 3 primes of
    the default stream (307, 313 and 331), which starts above every
    interpolation point count.  That route and the sextic have rational
    coefficients, so no prime is rejected for want of a cube root of 4
    (12 were drawn, 9 of them rejected, while the cbrt4 of the exact u
    route counted too).  Counting phi2's monomial u mod p took 900
    resultants over 12 primes for the generators, counting only the
    components in x alone exactly 2,052 over 18, counting every route
    mod p 4,320, and the classical point count 6,912."""
    calls = [0]
    drawn = []
    real_primes = modp_oracle._oracle_primes

    def counting(f, g, p):
        calls[0] += 1
        return fp_resultant(f, g, p)

    def counting_primes():
        for p in real_primes():
            drawn.append(p)
            yield p

    monkeypatch.setattr(modp_oracle, "fp_resultant", counting)
    monkeypatch.setattr(modp_oracle, "_oracle_primes", counting_primes)
    seen = recording_interp(monkeypatch)
    assert tuple(degree(phi, primes=no_primes()) for phi in c6_generator_morphisms()) == (
        6, 12, 4
    )
    morphisms = build_c6_instance(check_degrees=False).morphisms
    assert [degree(phi, primes=no_primes()) for phi in morphisms] == per_morphism(6, 12, 4)
    assert calls[0] == len(drawn) == 0
    assert oracle_degree(morphisms[8], "v") == 12
    assert calls[0] == 1332
    assert drawn == [307, 313, 331]
    assert seen and all(n <= p for n, p in seen)


def test_degree_counts_mod_p_only_the_routes_in_y(monkeypatch):
    """The oracle counts mod p only the routes its caller names.  phi2
    twisted by swap(y, z) has the monomial u = 1/(cbrt4 x^2 y^2) and the
    mixed v = (x^6 - y^6)/(2x^3y^3): with v named, only the v route runs
    mod p, 444 resultants at each of 3 primes.  fermat.degree counts
    both routes of the twist and of phi2 exactly and runs none."""
    calls = [0]
    routes = []
    real_route = modp_oracle._route_count

    def counting(f, g, p):
        calls[0] += 1
        return fp_resultant(f, g, p)

    def recording(F_fp, A_fp, B_fp, p, rng):
        before = calls[0]
        count = real_route(F_fp, A_fp, B_fp, p, rng)
        routes.append((p, calls[0] - before))
        return count

    monkeypatch.setattr(modp_oracle, "fp_resultant", counting)
    monkeypatch.setattr(modp_oracle, "_route_count", recording)
    phi2 = c6_generator_morphisms()[1]
    twist = compose_with_perm(phi2, (0, 2, 1))
    for phi in (phi2, twist):
        assert degree(phi, primes=no_primes()) == 12
    assert calls[0] == 0 and routes == []
    assert oracle_degree(twist, "v") == 12
    primes = sorted({p for p, _ in routes})
    assert len(primes) == 3
    for p in primes:
        assert [n for q, n in routes if q == p] == [444]
    assert calls[0] == 1332


def test_route_count_cross_checks_the_exact_routes_in_y():
    """degree counts phi1's v = y^3 and phi3's v = y^2 exactly; mod 433
    their fiber counts agree with the exact ones, 3 * 6 and 2 * 6."""
    phi1, _, phi3 = c6_generator_morphisms()
    p = 433
    for phi, want in ((phi1, 18), (phi3, 12)):
        args = [map_fp(part, p, {}) for part in (phi.source.F, phi.v.num, phi.v.den)]
        count = _route_count(*args, p, random.Random(0))
        assert count == fermat._exact_fiber_count(phi.v, phi.source) == want


def test_degree_oracle_rejects_primes_below_its_point_count(monkeypatch):
    """With u = 1/(cbrt4 x^2 y^2) taken exactly, the oracle's count of
    the v = (x^6 - y^6)/(2x^3y^3) route of phi2 twisted by swap(y, z)
    interpolates at 37 points.  Mod 7, 13 and 31 there are no 37
    distinct points: such a prime is rejected, not interpolated at
    (fp_interp_range on 32 values mod 31 raises InvalidInput).  The
    twist's cube root of 4 sits in its exact route, so no prime is
    rejected for want of one."""
    seen = recording_interp(monkeypatch)
    twist = compose_with_perm(c6_generator_morphisms()[1], (0, 2, 1))
    assert oracle_degree(twist, "v", primes=[7, 13, 31, 43, 109, 127, 157]) == 12
    assert seen and all(n <= p for n, p in seen)
    with pytest.raises(InvalidInput):
        fp_interp_range([0] * 32, 31)


def test_route_count_cross_checks_the_monomial_route():
    """degree counts phi2's u = y^4/(cbrt4 x^2) on the sextic's Newton
    polygon; mod 433, where 4 has a cube root, its fiber count agrees
    with the exact 24.  phi2 twisted by swap(y, z) has
    u = y^2/(cbrt4 x^2 y^4) with the common y^2, whose zero at y = 0 the
    mod-p route counts as 6 more points: degree cancels it first."""
    phi2 = c6_generator_morphisms()[1]
    twist = compose_with_perm(phi2, (0, 2, 1))
    p = 433
    assign = modp_oracle._gen_assignment(("cbrt4",), p)
    stripped = fermat._strip_monomial(twist.u)
    for comp, want in ((phi2.u, 24), (stripped, 24), (twist.u, 30)):
        args = [map_fp(part, p, assign) for part in (phi2.source.F, comp.num, comp.den)]
        assert _route_count(*args, p, random.Random(0)) == want
    assert fermat._exact_fiber_count(phi2.u, phi2.source) == 24


def test_every_instance_route_is_exact_and_matches_the_oracle():
    """All ten morphisms of the genus-10 instance have both routes exact,
    and give per_morphism(6, 12, 4) without drawing a prime.  At 433
    and 601, where 4 has a cube root, the oracle's fiber count of every
    route agrees with the exact one: 12 and 18 for the phi1 twists, 24
    and 36 for the phi2 twists, 12 and 12 for phi3."""
    morphisms = build_c6_instance(check_degrees=False).morphisms
    assert [degree(phi, primes=no_primes()) for phi in morphisms] == per_morphism(6, 12, 4)
    counts = []
    for phi in morphisms:
        pair = []
        for comp in (phi.u, phi.v):
            comp = fermat._strip_monomial(comp)
            exact = fermat._exact_fiber_count(comp, phi.source)
            for p in (433, 601):
                assert fiber_count(comp, phi.source, p, random.Random(p)) == exact
            pair.append(exact)
        counts.append(tuple(pair))
    assert counts == per_morphism((12, 18), (24, 36), (12, 12))


def test_degree_refuses_a_route_with_no_exact_count():
    """h = (x + y)/(x - y + 1) has neither part a monomial: (h, h) onto
    the line v = u has no exact route, and degree raises UnsupportedQuery
    without drawing a prime, while the oracle counts its degree mod p.
    y - x on y^2 - x^2 + 1 has a monomial denominator, but its initial
    form y - x on the hypotenuse shares the root y/x = 1 with the edge
    polynomial (y/x)^2 - 1: the branch there has y - x = -1/(y + x)
    finite, so the function has 1 pole, not the 2 the edge would give,
    and the count does not apply; y + x likewise at y/x = -1.  Where
    the edge carries no pole the shared root does not matter:
    (y - x)/x has pole order 0 there, and its 2 poles at x = 0."""
    x, y = BiPoly.var_x(), BiPoly.var_y()
    h = RatFunc(x + y, x - y + 1)
    sextic = fermat.fermat_sextic()
    phi = fermat.CurveMorphism(sextic, PlaneCurve(y - x), h, h)
    for primes, seed in ((None, 0), (no_primes(), 1), ([433], 2)):
        with pytest.raises(UnsupportedQuery, match="the u route"):
            degree(phi, primes=primes, seed=seed)
    assert oracle_degree(phi, "uv") == 6
    hyperbola = PlaneCurve(y**2 - x**2 + 1)
    for P in (y + x, y - x):
        comp = RatFunc(P, BiPoly.const(1))
        assert fermat._exact_fiber_count(comp, hyperbola) is None
        assert fiber_count(comp, hyperbola, 1000003, random.Random(0)) == 1
    at_x0 = RatFunc(y - x, x)
    assert fermat._exact_fiber_count(at_x0, hyperbola) == 2
    assert fiber_count(at_x0, hyperbola, 1000003, random.Random(0)) == 2
    with pytest.raises(UnsupportedQuery, match="the u route"):
        degree(fermat.CurveMorphism(hyperbola, PlaneCurve(y - x), comp, comp))


def test_degree_ignores_primes_and_seed():
    """primes and seed change no answer and draw nothing: the three
    generators and phi2 twisted by swap(y, z) give the same degrees for
    every stream and seed, including a stream that fails when drawn."""
    phi2 = c6_generator_morphisms()[1]
    phis = c6_generator_morphisms() + (compose_with_perm(phi2, (0, 2, 1)),)
    want = [degree(phi) for phi in phis]
    assert want == [6, 12, 4, 12]
    for primes, seed in ((no_primes(), 1), ([], 2), ([341, 341], 3), ([433], 99)):
        assert [degree(phi, primes=primes, seed=seed) for phi in phis] == want


def axis_slice(f, axis):
    """A bivariate value mod p on x = 0 (axis 0, a list in y) or on
    y = 0 (axis 1, a list in x)."""
    out = [0] * (1 + max((max(key) for key in f), default=0))
    for key, c in f.items():
        if key[axis] == 0:
            out[key[1 - axis]] = c
    return fp_trim(out)


def shares_an_axis_zero(curve, comp, p):
    """Whether the numerator and denominator of comp, one of them a
    monomial x^i y^j, share a zero on curve mod p: where i > 0, a root of
    F(0, y) and the other part at x = 0; where j > 0, likewise at y = 0.
    A monomial has no other zero, and F(0, 0) != 0."""
    mono, other = (comp.den, comp.num) if len(comp.den.c) == 1 else (comp.num, comp.den)
    ((i, j),) = mono.c
    F_fp, P_fp = map_fp(curve.F, p, {}), map_fp(other, p, {})
    return any(
        exp and len(fp_gcd(axis_slice(F_fp, axis), axis_slice(P_fp, axis), p)) > 1
        for axis, exp in ((0, i), (1, j))
    )


def random_component(rng):
    """P / x^i y^j or its reciprocal, for P of two to four terms of
    degree at most 3 in each variable, with no monomial left dividing
    both parts."""
    P = BiPoly({
        (rng.randrange(0, 4), rng.randrange(0, 4)): rng.choice([-3, -2, -1, 1, 2, 3])
        for _ in range(rng.randrange(2, 5))
    })
    mono = BiPoly.monomial(rng.randrange(0, 4), rng.randrange(0, 4), rng.choice([1, 2]))
    if len(P.c) < 2:
        P = P + 1 if (0, 0) not in P.c else P + BiPoly.monomial(1, 1)
    pair = (P, mono) if rng.random() < 0.5 else (mono, P)
    return fermat._strip_monomial(RatFunc(*pair))


def check_against_the_oracle(curve, comp, p, tally):
    """Compare the exact count of comp on curve with the oracle's fiber
    count at p, where the count applies and the oracle's precondition
    holds; tally what happened."""
    exact = fermat._exact_fiber_count(comp, curve)
    if exact is None:
        tally["none"] += 1
    elif len(comp.num.c) > 1 < len(comp.den.c) or shares_an_axis_zero(curve, comp, p):
        tally["skipped"] += 1
    else:
        assert fiber_count(comp, curve, p, random.Random(0)) == exact, (curve, comp)
        tally["agree"] += 1


def test_newton_pole_count_matches_route_count_on_random_curves():
    """On 300 seeded curves monic in y with F(0, 0) != 0 (so x^a and y^b
    share no zero on them), the exact count of a monomial x^a y^b with
    a, b != 0 agrees with the oracle's fiber count at p = 1000003
    wherever it applies, repeated edge roots included; where the polygon
    is a segment it returns None.  On the first 150 curves a seeded
    P / x^i y^j or x^i y^j / P agrees too, wherever the count applies
    and numerator and denominator share no zero on the curve."""
    p = 1000003
    rng = random.Random(23)
    comps = random.Random(24)
    mono = {"agree": 0, "none": 0, "skipped": 0}
    poly = dict(mono)
    for n in range(300):
        m = rng.randrange(1, 4)
        terms = {(0, m): 1, (0, 0): rng.choice([-2, -1, 1, 2, 3])}
        for _ in range(rng.randrange(1, 5)):
            key = (rng.randrange(0, 5), rng.randrange(0, m))
            if key != (0, 0):
                terms[key] = rng.randrange(-3, 4)
        curve = PlaneCurve(BiPoly(terms))
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        comp = RatFunc(
            BiPoly.monomial(max(a, 0), max(b, 0)),
            BiPoly.monomial(max(-a, 0), max(-b, 0)),
        )
        check_against_the_oracle(curve, comp, p, mono)
        if n < 150:
            check_against_the_oracle(curve, random_component(comps), p, poly)
    assert mono["agree"] >= 250 and mono["none"] >= 20 and mono["skipped"] == 0
    assert poly["agree"] >= 100 and poly["none"] >= 5


def poly_from_roots(roots, lead=1):
    """Ascending coefficients of lead * prod (t - r) over the roots."""
    co = [Fraction(lead)]
    for r in roots:
        co = [(co[k - 1] if k else 0) - r * (co[k] if k < len(co) else 0)
              for k in range(len(co) + 1)]
    return co


def repeated_root_curve(rng):
    """A curve monic in y with F(0, 0) != 0 and a repeated root on its
    left edge F(0, y), its bottom edge F(x, 0) or its hypotenuse (the
    top-degree form), with random terms inside the triangle."""
    roots = [-2, -1, 1, 2, 3]
    m, k = rng.choice([2, 3]), rng.choice([2, 3])
    r = rng.choice(roots)
    edge = rng.choice(["left", "bottom", "top"])
    terms = {}
    if edge == "top":
        top = poly_from_roots([r, r] + [rng.choice(roots) for _ in range(m - 2)])
        terms.update({(m - e, e): c for e, c in enumerate(top)})
        terms[(0, 0)] = rng.choice([-2, -1, 1, 2, 3])
        inner = [(a, b) for a in range(m) for b in range(m - a) if a + b]
    else:
        twice = [r, r] + [rng.choice(roots) for _ in range(k - 2)]
        left = poly_from_roots(
            twice[:m] if edge == "left" else [rng.choice(roots) for _ in range(m)]
        )
        bottom = twice if edge == "bottom" else [rng.choice(roots) for _ in range(k)]
        const = poly_from_roots(bottom)[0]
        terms.update({(0, e): c for e, c in enumerate(left)})
        terms.update({(e, 0): c for e, c in enumerate(poly_from_roots(bottom, left[0] / const))})
        inner = [(a, b) for a in range(1, k) for b in range(1, m)]
    for _ in range(rng.randrange(0, 3)):
        if inner:
            terms[rng.choice(inner)] = rng.randrange(-3, 4)
    return PlaneCurve(BiPoly({key: c for key, c in terms.items() if c}))


def test_newton_pole_count_ignores_repeated_edge_roots():
    """A repeated root of an edge polynomial changes no pole count: the
    places over the edge have multiplicities summing to its lattice
    length whatever the roots, and a monomial's order at each is that
    multiplicity times the same <(a, b), n>.  On 60 seeded curves with a
    repeated root on an edge, every monomial x^a y^b and every seeded
    P / x^i y^j or x^i y^j / P that the count covers agrees with the
    oracle at p = 1000003."""
    p = 1000003
    rng = random.Random(25)
    mono = {"agree": 0, "none": 0, "skipped": 0}
    poly = dict(mono)
    for _ in range(60):
        curve = repeated_root_curve(rng)
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b = rng.choice([-3, -2, -1, 1, 2, 3])
        comp = RatFunc(
            BiPoly.monomial(max(a, 0), max(b, 0)),
            BiPoly.monomial(max(-a, 0), max(-b, 0)),
        )
        check_against_the_oracle(curve, comp, p, mono)
        check_against_the_oracle(curve, random_component(rng), p, poly)
    assert mono == {"agree": 60, "none": 0, "skipped": 0}
    assert poly["agree"] >= 50

"""The finite-field degree oracle: an independent count of a morphism's
degree modulo primes, the reference the tests check the exact counts of
motivix.fermat.degree against.

A route counted mod p takes the largest generic fiber of its component
A/B : curve -> line over the algebraic closure of F_p.  After a random
shear it eliminates y with resultants at the points x = 0, 1, ...,
recovers Res_y by interpolation and counts its distinct roots.  The
univariate kernels work on dense lists of residues in range(p), low
degree first; bivariate values are dicts {(i, j): c} of nonzero
residues.  fp_trim, _fp_reduce and fp_resultant come from
motivix.polyring, where the benchmark tracer wraps fp_resultant.
"""

import random

from motivix import fermat
from motivix.errors import InvalidInput, OracleError, VerificationError
from motivix.exact import _is_int
from motivix.polyring import KNOWN_GENS, _fp_reduce, fp_resultant, fp_trim, join_specs

_PRIME_FLOOR = 300
# random fiber samples per shear, and primes drawn before degree gives up
_FIBER_TRIALS = 6
_DEGREE_ATTEMPTS = 25
_GEN_MINPOLY = {name: poly for name, poly in KNOWN_GENS}

# Miller-Rabin to the first 13 prime bases is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


class _BadPrime(Exception):
    """The chosen prime cannot host this computation."""


# ---------------------------------------------------------------------------
# images mod p


def _nf_fp(v, p, assign):
    """Image in F_p of a MultiNf, sending each generator to assign[name]."""
    total = 0
    for exps, q in v.c.items():
        if q.denominator % p == 0:
            raise _BadPrime("denominator divisible by %d" % p)
        t = q.numerator * pow(q.denominator, p - 2, p)
        for name, e in zip(v.spec, exps):
            t = t * pow(assign[name], e, p)
        total += t
    return total % p


def map_fp(poly, p, assign):
    """Image mod p of a BiPoly, as a dict of its nonzero residues."""
    out = {}
    for k, v in poly.c.items():
        t = _nf_fp(v, p, assign)
        if t:
            out[k] = t
    return out


# ---------------------------------------------------------------------------
# univariate kernels


def fp_scale(f, s, p):
    s %= p
    return fp_trim([c * s % p for c in f])


def fp_interp_range(ys, p):
    """The polynomial of degree below n = len(ys) taking the value ys[k]
    at x = k for every k < n, by Newton's divided differences: at the
    nodes 0, 1, ..., n - 1 each difference of order j divides by j.  The
    nodes must be distinct mod p, so n > p raises InvalidInput."""
    n = len(ys)
    if n > p:
        raise InvalidInput("interpolation nodes 0..%d agree mod %d" % (n - 1, p))
    co = [y % p for y in ys]
    for j in range(1, n):
        inv = pow(j, p - 2, p)
        co[j:] = [(b - a) * inv % p for a, b in zip(co[j - 1 :], co[j:])]
    # Horner on the Newton form: poly <- poly * (X - k) + co[k]
    poly = []
    for k in range(n - 1, -1, -1):
        poly = [(lo - k * hi) % p for lo, hi in zip([co[k]] + poly, poly + [0])]
    return fp_trim(poly)


def _fp_mulmod(f, g, m, p):
    """f * g mod m."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _fp_reduce([c % p for c in out], m, p)


def _fp_powmod(f, e, m, p):
    """f^e mod m, for e >= 0 and m of positive degree."""
    out = [1]
    base = _fp_reduce(list(f), m, p)
    while e:
        if e & 1:
            out = _fp_mulmod(out, base, m, p)
        base = _fp_mulmod(base, base, m, p)
        e >>= 1
    return out


def fp_deriv(f, p):
    return fp_trim([c * k % p for k, c in enumerate(f)][1:])


def fp_gcd(f, g, p):
    f, g = fp_trim(list(f)), fp_trim(list(g))
    while g:
        f, g = g, _fp_reduce(f, g, p)
    if f:
        f = fp_scale(f, pow(f[-1], p - 2, p), p)
    return f


def fp_distinct_root_count(f, p):
    """Number of distinct roots of f over the algebraic closure: the
    degree of f divided by its repeated part."""
    f = fp_trim(list(f))
    if len(f) <= 1:
        return 0
    rep = fp_gcd(f, fp_deriv(f, p), p)
    return (len(f) - 1) - (len(rep) - 1)


def fp_roots(f, p):
    """The distinct roots of f in F_p, ascending.  They are the roots of
    h = gcd(X^p - X, f), found with O(log p) products mod h per step and
    no scan of F_p: for a = 0, 1, ... the factor
    gcd(h, (X + a)^((p-1)/2) - 1) holds the roots r with r + a a nonzero
    square, until one a splits h.  For an odd prime p some a < p does;
    at p = 2, or at a composite p, a split that never comes raises
    InvalidInput."""
    f = fp_trim([c % p for c in f])
    if len(f) < 2:
        return []
    xp = _fp_powmod([0, 1], p, f, p)
    xp += [0] * (2 - len(xp))
    xp[1] = (xp[1] - 1) % p
    return sorted(_fp_split(fp_gcd(f, fp_trim(xp), p), p))


def _fp_split(h, p):
    """The roots of a monic h that is a product of distinct linear
    factors over F_p."""
    if len(h) <= 2:
        return [-h[0] % p] if len(h) == 2 else []
    for a in range(p):
        t = _fp_powmod([a, 1], (p - 1) // 2, h, p) or [0]
        s = fp_gcd(h, fp_trim([(t[0] - 1) % p] + t[1:]), p)
        if 1 < len(s) < len(h):
            # the other roots: r + a a non-square, or r = -a
            plus = fp_trim([(t[0] + 1) % p] + t[1:])
            rest = fp_gcd(h, _fp_mulmod(plus, [a, 1], h, p), p)
            return _fp_split(s, p) + _fp_split(rest, p)
    raise InvalidInput("no a < %d splits the roots: not an odd prime" % p)


# ---------------------------------------------------------------------------
# bivariate kernels


def fp2_sub(f, g, p):
    out = dict(f)
    for k, c in g.items():
        v = (out.get(k, 0) - c) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def fp2_scale(f, s, p):
    s %= p
    return {k: c * s % p for k, c in f.items() if c * s % p}


def fp2_shear(f, lam, p):
    """Substitute x -> x + lam*y."""
    out = {}
    for (i, j), c in f.items():
        row = {0: 1}
        for _ in range(i):
            nxt = {}
            for k, b in row.items():
                nxt[k] = (nxt.get(k, 0) + b) % p
                nxt[k + 1] = (nxt.get(k + 1, 0) + b * lam) % p
            row = nxt
        for k, b in row.items():
            key = (i - k, j + k)
            v = (out.get(key, 0) + c * b) % p
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def fp2_eval_x(f, x0, p):
    """Evaluate x = x0; returns a dense list in y."""
    out = [0] * (fp2_deg_y(f) + 1)
    for (i, j), c in f.items():
        out[j] += c * pow(x0, i, p)
    return fp_trim([c % p for c in out])


def fp2_deg_x(f):
    return max((i for (i, _) in f), default=-1)


def fp2_deg_y(f):
    return max((j for (_, j) in f), default=-1)


def fp2_res_deg_bound(f, g):
    """An upper bound on deg_x Res_y(f, g): the smaller of the classical
    dx(f)*dy(g) + dx(g)*dy(f) and M*n + m*N - m*n, where M, N are the
    total and m, n the y-degrees of f, g.  For the second, the Sylvester
    entry in the row of y^k * f and the column of y^e is the coefficient
    of y^(e-k) in f, of x-degree at most (M + k) - e; likewise for g.
    Summing the row weights M + k (k < n) and N + k (k < m) and
    subtracting every e < m + n gives M*n + m*N - m*n, which is
    M*N - (M - m)*(N - n)."""
    m, n = fp2_deg_y(f), fp2_deg_y(g)
    classical = fp2_deg_x(f) * n + fp2_deg_x(g) * m
    M = max(i + j for (i, j) in f)
    N = max(i + j for (i, j) in g)
    return min(classical, M * n + m * N - m * n)


# ---------------------------------------------------------------------------
# primes and fiber counts


def _is_prime(n):
    """Deterministic Miller-Rabin, for n < _PRIME_TEST_BOUND."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:  # no prime factor up to 41: a prime, or 1
        return n > 1
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _oracle_primes():
    p = _PRIME_FLOOR + 1
    while True:
        if p % 6 == 1 and _is_prime(p):
            yield p
        p += 2


def _gen_assignment(spec, p):
    """Roots mod p for every named constant in spec, or _BadPrime: the
    smallest root of each minimal polynomial, found through gcds
    (fp_roots) without scanning F_p."""
    assign = {}
    for name in spec:
        roots = fp_roots([int(c) for c in _GEN_MINPOLY[name]], p)
        if not roots:
            raise _BadPrime("no root of the minimal polynomial of %s" % name)
        assign[name] = roots[0]
    return assign


def _route_count(F_fp, A_fp, B_fp, p, rng):
    """Largest generic fiber size of the map A/B : curve -> line mod p,
    counted over the algebraic closure by eliminating y with resultants
    after a random shear (the shear separates x-coordinates and feeds
    y-dependence into pure-x components)."""
    sheared = []
    for _ in range(8):
        lam = rng.randrange(1, p)
        Ft = fp2_shear(F_fp, lam, p)
        dyt = fp2_deg_y(Ft)
        # interpolation needs a leading y-coefficient constant in x
        if any(i > 0 for (i, j) in Ft if j == dyt):
            continue
        lc = Ft.get((0, dyt), 0)
        if not lc:
            continue
        Ft = fp2_scale(Ft, pow(lc, p - 2, p), p)
        sheared.append((Ft, fp2_shear(A_fp, lam, p), fp2_shear(B_fp, lam, p)))
        if len(sheared) == 2:
            break
    if not sheared:
        raise _BadPrime("no usable shear")
    best = 0
    for Ft, At, Bt in sheared:
        for _ in range(_FIBER_TRIALS):
            u0 = rng.randrange(1, p)
            Gt = fp2_sub(At, fp2_scale(Bt, u0, p), p)
            if fp2_deg_y(Gt) < 1:  # zero, or free of y
                continue
            bound = fp2_res_deg_bound(Ft, Gt)
            if bound >= p:
                raise _BadPrime(
                    "%d interpolation points do not exist mod %d" % (bound + 1, p)
                )
            vals = [
                fp_resultant(fp2_eval_x(Ft, x0, p), fp2_eval_x(Gt, x0, p), p)
                for x0 in range(bound + 1)
            ]
            if not any(vals):
                continue
            R = fp_interp_range(vals, p)
            best = max(best, fp_distinct_root_count(R, p))
    if best == 0:
        raise _BadPrime("no informative fiber sample")
    return best


def _spec_of(*polys):
    """The generators the coefficients of the polynomials use."""
    spec = ()
    for poly in polys:
        for v in poly.c.values():
            spec = join_specs(spec, v.spec)
    return spec


def fiber_count(comp, source, p, rng):
    """_route_count of the rational function comp on the curve source
    at the one prime p, which must host every generator they use."""
    parts = (source.F, comp.num, comp.den)
    assign = _gen_assignment(_spec_of(*parts), p)
    return _route_count(*[map_fp(part, p, assign) for part in parts], p, rng)


def degree(phi, modp="uv", primes=None, seed=0):
    """Degree of phi with the routes named in modp ("u", "v" or both)
    counted modulo primes.

    Each coordinate route counts the fibers of its component,
    curve -> line, and divides the count by that coordinate's degree on
    the target; the routes must agree.  Each component first loses the
    largest monomial dividing its numerator and denominator.  A route
    not named in modp takes fermat's exact count of its component
    (fermat._exact_fiber_count), once.  The routes named are counted
    modulo primes from `primes` (by default the primes p > 300 with
    p = 1 mod 6, ascending); they must agree with the other route at
    every good prime and repeat over three good primes in a row.  They
    assume their component's numerator and denominator have no common
    zero on the source curve.  A prime needs a root of each generator in
    the source and in the components counted mod p.  Each prime is drawn
    at most once, and a modulus that is not a prime below
    _PRIME_TEST_BOUND raises InvalidInput when it is drawn.
    """
    if not isinstance(phi, fermat.CurveMorphism):
        raise InvalidInput("degree takes a CurveMorphism")
    if phi.target.F.deg_x < 1 or phi.target.F.deg_y < 1:
        raise InvalidInput("degree needs a target of positive x- and y-degree")
    routes = (
        (fermat._strip_monomial(phi.u), phi.target.F.deg_y),
        (fermat._strip_monomial(phi.v), phi.target.F.deg_x),
    )
    # the route degrees known exactly, None for those counted mod p
    exact = []
    for name, (comp, target_deg) in zip("uv", routes):
        if name in modp:
            exact.append(None)
            continue
        count = fermat._exact_fiber_count(comp, phi.source)
        if count is None:
            raise InvalidInput("the %s route has no exact count" % name)
        if count % target_deg:
            raise VerificationError(
                "exact fiber count %d not divisible by %d" % (count, target_deg)
            )
        exact.append(count // target_deg)
    rng = random.Random(seed)
    # the generators whose roots mod p the assignment needs: those of the
    # source and of the components counted mod p
    parts = [phi.source.F]
    for (comp, _), known in zip(routes, exact):
        if known is None:
            parts += [comp.num, comp.den]
    spec = _spec_of(*parts)
    prime_source = iter(primes) if primes is not None else _oracle_primes()
    drawn = set()
    agreed = []
    for _ in range(_DEGREE_ATTEMPTS):
        p = next(prime_source, None)
        if p is None:
            break
        if not _is_int(p) or p >= _PRIME_TEST_BOUND or not _is_prime(p):
            raise InvalidInput(
                "degree works modulo primes below %d, got %r" % (_PRIME_TEST_BOUND, p)
            )
        if p in drawn:
            raise InvalidInput("degree draws each prime once, got %d again" % p)
        drawn.add(p)
        try:
            assign = _gen_assignment(spec, p)
            F_fp = map_fp(phi.source.F, p, assign)
            vals = []
            for (comp, target_deg), known in zip(routes, exact):
                if known is not None:
                    vals.append(known)
                    continue
                A_fp = map_fp(comp.num, p, assign)
                B_fp = map_fp(comp.den, p, assign)
                if not B_fp or not A_fp:
                    raise _BadPrime("component degenerates mod %d" % p)
                count = _route_count(F_fp, A_fp, B_fp, p, rng)
                if count % target_deg:
                    raise _BadPrime("fiber count %d not divisible" % count)
                vals.append(count // target_deg)
            if vals[0] != vals[1]:
                raise _BadPrime("coordinate routes disagree")
            agreed.append(vals[0])
        except _BadPrime:
            continue
        if len(agreed) >= 3 and agreed[-1] == agreed[-2] == agreed[-3]:
            return agreed[-1]
    raise OracleError("degree did not stabilize over three good primes")

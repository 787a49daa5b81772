"""The integer integrality kernel against a rational oracle.

The oracle applies x to each lattice basis row over Q(sqrt(-d)) and tests
the image with ZLattice.contains. The kernel works on the integer HNF
basis in plain ints. Both ways into it are compared with the oracle:
is_integral on EndoQs, and monomial_is_integral on the numerators of
every diagonal or permutation-shaped case.

The shortcuts the decision procedure takes from the atom symmetry (the
swap-only probe check, exponents among the divisors of the lattice
denominator, transposition queries as sorted diagonal queries) are
checked against the EndoQ route on a second seeded family.
"""

import itertools
import math
import random
from fractions import Fraction as F

from motivix.cmlat import (
    EndoQ,
    build_model,
    exponent,
    is_integral,
    monomial_is_integral,
    proper_nonempty_subsets,
    realify_vec,
    rosati,
    subset_idempotent,
)
from motivix.decomp import _images_direct, _probe_is_valid, probes_for
from motivix.exact import QuadInt


def oracle_is_integral(m, x):
    """x . Lambda in Lambda, basis row by basis row, over Q(sqrt(-d))."""
    for row in m.lattice.basis_rows():
        w = [QuadInt(row[2 * i], row[2 * i + 1], m.d) for i in range(m.g)]
        y = [
            sum((x.entry(i, j) * w[j] for j in range(m.g)), QuadInt.zero(m.d))
            for i in range(m.g)
        ]
        if not m.lattice.contains(realify_vec(y)):
            return False
    return True


def monomial_form(x):
    """(sigma, nums, den) with x = nums[i] / den at (sigma[i], i), or None
    when x has an irrational entry or two nonzero entries in a column."""
    g = x.g
    sigma, coeffs = [None] * g, [F(0)] * g
    for i in range(g):
        for j in range(g):
            e = x.entry(j, i)
            if e.is_zero():
                continue
            if e.b != 0 or sigma[i] is not None:
                return None
            sigma[i], coeffs[i] = j, e.a
    free = iter(sorted(set(range(g)) - set(sigma)))
    sigma = tuple(next(free) if j is None else j for j in sigma)
    if len(set(sigma)) != g:
        return None
    den = math.lcm(*(c.denominator for c in coeffs))
    return sigma, [int(c * den) for c in coeffs], den


def _unit(d):
    """A generator of O over Z: (1 + sqrt(-d))/2 for the maximal orders
    (d = 3, 7 here), sqrt(-d) otherwise."""
    return QuadInt(F(1, 2), F(1, 2), d) if d in (3, 7) else QuadInt(0, 1, d)


def _models(rng):
    """g = 2/4/6 over d = 1, 2 and the maximal orders of d = 3, 7, with one
    glue vector v of denominator 5 to 13 and a second one: random for
    d = 1, 3; the O-generator times v for d = 2, 7, which makes the
    lattice an O-module."""
    out = []
    for g in (2, 4, 6):
        for d in (1, 2, 3, 7):
            glue = []
            for _ in range(2 if d in (1, 3) else 1):
                n = rng.randint(5, 13)
                b = rng.randrange(0, n)
                if rng.random() < 0.5:
                    glue.append([QuadInt(F(rng.randrange(1, n), n), F(b, n), d)] * g)
                else:
                    glue.append([QuadInt(F(rng.randrange(n), n), F(b, n), d)
                                 for _ in range(g)])
            if d in (2, 7):
                glue.append([_unit(d) * x for x in glue[0]])
            out.append(build_model(d, g, glue=glue, maximal_order=d in (3, 7)))
    return out


def _rand_quad(rng, d, dens):
    return QuadInt(
        F(rng.randint(-6, 6), rng.choice(dens)),
        F(rng.randint(-6, 6), rng.choice(dens)),
        d,
    )


def _cases(rng, m, count):
    """Random EndoQs with sqrt(-d) parts, multiples t e_K, the probes, their
    Rosati transforms and the probe images of random candidates."""
    g, d = m.g, m.d
    N = math.lcm(*m.atom_exponents)
    glue_dens = sorted({q.denominator for v in m.glue for x in v for q in (x.a, x.b)})
    subsets = list(proper_nonempty_subsets(g))
    probes = probes_for(m)
    out = []
    for p in probes:
        out += [p.endo, rosati(p.endo, m)]
    while len(out) < count:
        kind = len(out) % 6
        if kind == 0:
            # random, usually not integral
            x = EndoQ.from_rows(
                [[_rand_quad(rng, d, [1, 2] + glue_dens) for _ in range(g)]
                 for _ in range(g)], d)
        elif kind == 1:
            # N M + s id with M over Z[sqrt(-d)] maps Lambda into O^g + s Lambda,
            # so it is integral when s is, and always for s in Z
            M = EndoQ.from_rows(
                [[_rand_quad(rng, d, [1]) for _ in range(g)] for _ in range(g)], d)
            s = QuadInt(rng.randint(-6, 6), rng.choice([0, 0, 1, -2]), d)
            x = M.scale(N) + subset_idempotent(m, range(g)).scale(s)
        elif kind == 2:
            K = rng.choice(subsets)
            t = rng.choice([rng.randint(1, 2 * N), exponent(m, K) * rng.randint(1, 3)])
            x = subset_idempotent(m, K).scale(t)
        elif kind == 3:
            # t u e_K for an O-generator u: on the O-module models it is
            # integral whenever t e_K is; a fractional t gives sqrt(-d)
            # parts whose denominators the rational parts lack
            K = rng.choice(subsets)
            t = rng.choice([rng.randint(1, 2 * N), exponent(m, K),
                            F(rng.randint(1, 2 * N), rng.choice(glue_dens))])
            x = subset_idempotent(m, K).scale(_unit(d) * t)
        else:
            p = rng.choice(probes)
            cells = [(i, j) for i in range(g) for j in range(g)]
            U, V, W = (frozenset(c for c in cells if rng.random() < 0.5)
                       for _ in range(3))
            lam, xi = _images_direct(
                *(tuple(int(c in S) for c in enumerate(p.sigma)) for S in (U, V, W)))
            rows = [[F(0)] * g for _ in range(g)]
            for i, c in enumerate(lam if kind == 4 else xi):
                rows[p.sigma[i]][i] = F(c, 2)
            x = EndoQ.from_rows(rows, d)
            if rng.random() < 0.5:
                x = rosati(x, m)
        out.append(x)
    return out


def test_kernel_matches_rational_oracle():
    rng = random.Random(20261018)
    per_g = {2: 150, 4: 100, 6: 40}
    tally = {True: 0, False: 0}
    monomial = irrational = 0
    for m in _models(rng):
        for x in _cases(rng, m, per_g[m.g]):
            want = oracle_is_integral(m, x)
            assert is_integral(m, x) == want, (m, m.glue, x)
            form = monomial_form(x)
            if form is not None:
                assert monomial_is_integral(m, *form) == want, (m, m.glue, x)
                monomial += 1
            irrational += any(e.b != 0 for row in x.mat.entries for e in row)
            tally[want] += 1
    total = tally[True] + tally[False]
    assert total >= 1000
    assert min(tally.values()) >= total // 5, tally
    assert monomial >= total // 2 and irrational >= total // 5, (monomial, irrational)


def _symmetry_models():
    """d = 1, 2 and the maximal orders of d = 3, 7 at g = 2..5, each with
    symmetric, asymmetric and two-generator glue."""
    rng = random.Random(20261019)
    out = []
    for g in range(2, 6):
        for d in (1, 2, 3, 7):
            n = rng.choice((2, 3, 4, 5, 6, 8))
            sym = (QuadInt(F(rng.randrange(1, n), n), F(rng.randrange(n), n), d),) * g
            asym = tuple(QuadInt(F(rng.randrange(n), n), F(rng.randrange(n), n), d)
                         for _ in range(g))
            second = (F(1, rng.choice((2, 3, 5))),) * g
            for glue in ([sym], [asym], [sym, second]):
                out.append(build_model(d, g, glue=glue, maximal_order=d in (3, 7)))
    return out


def test_probe_check_is_the_swap_query():
    # the gate asks only the plain swap: an integral swap forces equal
    # exponents at the two atoms, so the probe is the swap itself
    tally = {True: 0, False: 0}
    for m in _symmetry_models():
        for p in probes_for(m)[1:]:
            want = is_integral(m, p.endo) and is_integral(m, rosati(p.endo, m))
            assert _probe_is_valid(m, p.sigma) == want, (m, m.glue, p.name)
            tally[want] += 1
    assert min(tally.values()) >= 50, tally


def test_exponent_divides_the_lattice_denominator():
    # exponent scans the divisors of the lattice denominator; the scan
    # here runs t = 1, 2, ... on EndoQs
    rng = random.Random(20261020)
    for m in _symmetry_models():
        subsets = list(proper_nonempty_subsets(m.g))
        for K in rng.sample(subsets, min(len(subsets), 6)):
            e_K = subset_idempotent(m, K)
            want = next(t for t in range(1, m.lattice.den + 1)
                        if is_integral(m, e_K.scale(t)))
            assert exponent(m, K) == want, (m, m.glue, K)


def test_probe_queries_are_sorted_diagonal_queries():
    # once every swap is integral, nums / 2 on a transposition's graph is
    # integral iff diag(sorted(nums)) / 2 is
    rng = random.Random(20261021)
    tally = {True: 0, False: 0}
    # the Rosati transform of a transposition probe is the plain swap
    models = [m for m in _symmetry_models()
              if all(is_integral(m, rosati(p.endo, m)) for p in probes_for(m)[1:])]
    assert len(models) >= 16
    for m in models:
        ident = tuple(range(m.g))
        space = list(itertools.product(range(-2, 5), repeat=m.g))
        even = [nums for nums in space if not any(c % 2 for c in nums)]
        for nums in (rng.sample(space, min(len(space), 100))
                     + rng.sample(even, min(len(even), 20))):
            want = monomial_is_integral(m, ident, sorted(nums), 2)
            for p in probes_for(m):
                assert monomial_is_integral(m, p.sigma, nums, 2) == want, (m, nums)
            tally[want] += 1
    assert min(tally.values()) >= 150, tally

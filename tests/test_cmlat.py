"""Tests for the CM abelian variety lattice model.

Exponent values are cross-checked against a brute-force scan m = 1..bound
using raw lattice membership, independent of the divisor-based search in
the module.
"""

import itertools
import math
import random
import time

import pytest

from motivix import cmlat, decomp
from motivix.cmlat import (
    AXIOMATIC,
    CONSISTENT,
    LATTICE,
    EndoQ,
    PermEndoSpec,
    build_model,
    endo_from_jsonable,
    endo_identity,
    endo_to_jsonable,
    exponent,
    full_grid,
    is_integral,
    model_from_dict,
    model_to_dict,
    perm_endo,
    proper_nonempty_subsets,
    rosati,
    subset_idempotent,
    subsets_lemma_check,
)
from motivix.corr import build_grids, conv
from motivix.decomp import EXHAUSTIVE, PROOFTRACE, decide, probes_for
from motivix.errors import (
    InvalidInput,
    LatticeError,
    HypothesisError,
    PreconditionError,
    ShapeError,
    UnsupportedQuery,
)
from motivix.exact import QuadInt, Rat, ZLattice


def glue_model_g2():
    return build_model(1, 2, glue=[(Rat(1, 5), Rat(2, 5))])


def oracle_exponent(m, K, bound=30):
    """Brute force: minimal t in 1..bound with t*e_K integral."""
    e_K = subset_idempotent(m, K)
    for t in range(1, bound + 1):
        if is_integral(m, e_K.scale(t)):
            return t
    raise AssertionError("no exponent up to %d" % bound)


# --- build_model -----------------------------------------------------------


def test_build_glue_model_exponents():
    m = glue_model_g2()
    assert m.atom_exponents == (5, 5)
    assert exponent(m, [0]) == 5 == oracle_exponent(m, [0])
    assert exponent(m, [1]) == 5 == oracle_exponent(m, [1])
    assert exponent(m, [0, 1]) == 1
    assert exponent(m, []) == 1


def test_build_trivial_model():
    m = build_model(1, 3)
    for K in proper_nonempty_subsets(3):
        assert exponent(m, K) == 1 == oracle_exponent(m, K)


def test_build_axiomatic_c6_shape():
    exps = (6, 6, 6, 6, 6, 6, 24, 24, 24, 4)
    m = build_model(3, 10, mode=AXIOMATIC, exponents=exps)
    assert m.g == 10 and m.mode == AXIOMATIC
    assert m.atom_exponents == exps
    assert exponent(m, [6]) == 24
    assert exponent(m, range(10)) == 1
    with pytest.raises(UnsupportedQuery):
        exponent(m, [0, 1])


def test_build_model_validation():
    with pytest.raises(LatticeError):
        build_model(1, 2, glue=[(Rat(1, 5),)])  # wrong length
    with pytest.raises(InvalidInput):
        build_model(1, 2, mode=AXIOMATIC)  # missing exponents
    with pytest.raises(InvalidInput):
        build_model(1, 2, mode=AXIOMATIC, exponents=(5,))
    with pytest.raises(InvalidInput):
        build_model(1, 2, mode=AXIOMATIC, exponents=(5, 0))
    with pytest.raises(InvalidInput):
        build_model(1, 2, maximal_order=True)  # 1 != 3 mod 4
    with pytest.raises(InvalidInput):
        build_model(1, 2, glue=[(Rat(1, 5), Rat(2, 5))], exponents=(5, 4))


def test_build_model_refuses_flags_of_the_other_mode():
    # assume_proper_ge4 is declared AXIOMATIC data and maximal_order shapes
    # the lattice; set in the other mode either would be kept and emitted
    # without changing any answer
    for kwargs in (
        dict(glue=[(Rat(1, 5),) * 3], assume_proper_ge4=True),
        dict(mode=AXIOMATIC, exponents=(5, 5, 5), maximal_order=True),
    ):
        with pytest.raises(InvalidInput, match=r"maximal_order|assume_proper_ge4"):
            build_model(3, 3, **kwargs)
    for data in (
        {"d": 3, "g": 3, "mode": "lattice", "assume_proper_exponents_ge4": True},
        {"d": 3, "g": 3, "mode": "axiomatic", "exponents": [5, 5, 5],
         "maximal_order": True},
    ):
        with pytest.raises(InvalidInput, match=r"maximal_order|assume_proper_ge4"):
            model_from_dict(data)
    # each flag is accepted in its own mode
    assert build_model(3, 3, glue=[(Rat(1, 5),) * 3], maximal_order=True).maximal_order
    assert build_model(3, 3, mode=AXIOMATIC, exponents=(5, 5, 5),
                       assume_proper_ge4=True).assume_proper_ge4


def test_build_model_bounds_the_glue_denominator(monkeypatch):
    assert cmlat.MAX_GLUE_DENOMINATOR == 10 ** 6
    m = build_model(1, 2, glue=[(Rat(1, 10 ** 6), Rat(1, 10 ** 6))])
    assert m.atom_exponents == (10 ** 6, 10 ** 6)

    def unreachable(n, holds):
        raise AssertionError("the exponent search ran on a rejected model")

    monkeypatch.setattr(cmlat, "_ideal_generator", unreachable)
    for glue in (
        [(Rat(1, 10 ** 6 + 1), 0)],
        [((0, Rat(1, 1000003)), 0)],  # a prime denominator in the sqrt(-d) part
        [(Rat(1, 1000), Rat(1, 1001))],  # each small, common denominator 1001000
        [(Rat(1, 1000), 0), (0, Rat(1, 1001))],
    ):
        with pytest.raises(InvalidInput, match="common denominator"):
            build_model(1, 2, glue=glue)
    with pytest.raises(InvalidInput, match="common denominator"):
        model_from_dict({"d": 1, "g": 1, "mode": "lattice", "glue": [[[1, 10 ** 9 + 7]]]})


def test_build_model_bounds_g(monkeypatch):
    assert cmlat.MAX_G == 64
    assert build_model(1, 64, mode=AXIOMATIC, exponents=(5,) * 64).g == 64

    def unreachable(*args):
        raise AssertionError("a model above MAX_G was built or probed")

    monkeypatch.setattr(ZLattice, "from_rows", unreachable)
    monkeypatch.setattr(decomp, "probes_for", unreachable)
    for g in (65, 10 ** 6):
        for kwargs in ({}, {"mode": AXIOMATIC, "exponents": (5,) * g}):
            with pytest.raises(InvalidInput, match="MAX_G"):
                decide(build_model(1, g, **kwargs), PROOFTRACE)
    with pytest.raises(InvalidInput, match="MAX_G"):
        build_model(1, 65, glue=[(Rat(1, 5),) * 65])


def test_endo_from_rows_checks_d_once(monkeypatch):
    with pytest.raises(InvalidInput):
        EndoQ.from_rows([[1, 0], [0, 1]], 4)
    with pytest.raises(InvalidInput):
        EndoQ.from_rows([[QuadInt(1, 0, 2)]], 1)
    x = EndoQ.from_rows([[Rat(1, 2), 3], [QuadInt(0, 1, 7), 0]], 7)
    assert x.entry(0, 0) == QuadInt(Rat(1, 2), 0, 7)
    assert x.entry(0, 1).d == 7 and x.entry(0, 1).a == 3
    assert x.entry(1, 0) == QuadInt(0, 1, 7)
    # the probes of a genus-10 model build their entries without
    # re-validating d per entry
    calls = []
    raw = QuadInt.__init__

    def counting(self, a, b, d):
        calls.append(d)
        raw(self, a, b, d)

    c6 = build_model(3, 10, mode=AXIOMATIC, exponents=(6,) * 6 + (24,) * 3 + (4,))
    monkeypatch.setattr(QuadInt, "__init__", counting)
    swap = perm_endo(c6, PermEndoSpec((1, 0) + tuple(range(2, 10)), full_grid(10)))
    assert swap.entry(0, 1) == 1 and swap.entry(9, 9) == 1
    assert calls == []


def test_d_is_checked_once_per_model(monkeypatch):
    """QuadInt.check_d (trial division to sqrt(d)) runs once where a model
    is built, and never again for values built from that model."""
    calls = []
    raw = QuadInt.check_d

    def counting(d):
        calls.append(d)
        return raw(d)

    monkeypatch.setattr(QuadInt, "check_d", staticmethod(counting))
    data = {"d": 7, "g": 3, "mode": "lattice", "maximal_order": True,
            "glue": [[[2, 5]] * 3, [[[0, 1], [1, 7]]] * 3]}
    m = model_from_dict(data)
    assert calls == [7]
    build_model(7, 3, mode=AXIOMATIC, exponents=(5, 5, 5))
    assert calls == [7, 7]
    calls.clear()
    m = model_from_dict(dict(data, glue=[[[2, 5]] * 3]))
    assert calls == [7]
    rows = [[Rat(1, 2), 0, 3], [0, QuadInt(0, 1, 7), 0], [1, 1, 1]]
    calls.clear()
    for mode in (EXHAUSTIVE, PROOFTRACE):
        decide(m, mode)
    grids = build_grids(m)
    for probe in probes_for(m):
        for grid in (grids.theta, grids.a1, grids.a2):
            for row in grid:
                for cell in row:
                    conv(probe.endo, cell)
    perm_endo(m, PermEndoSpec((1, 2, 0), full_grid(3)))
    subset_idempotent(m, [0, 2])
    endo_identity(m).scale(Rat(1, 3))
    jsonable = endo_to_jsonable(endo_identity(m))
    assert endo_from_jsonable(jsonable, m) == endo_identity(m)
    assert calls == []
    # the public EndoQ.from_rows keeps its one check per call
    x = EndoQ.from_rows(rows, 7)
    assert calls == [7]
    assert endo_from_jsonable(endo_to_jsonable(x), m) == x
    assert calls == [7]


def test_build_model_rejects_non_int_exponents():
    for bad in [(5.7, "6"), (5.0, 6), (True, 6), (6, "6"), (6, None)]:
        with pytest.raises(InvalidInput, match="exponents must be integers"):
            build_model(1, 2, mode=AXIOMATIC, exponents=bad)
    with pytest.raises(InvalidInput, match="exponents must be integers"):
        build_model(1, 2, glue=[(Rat(1, 5), Rat(2, 5))], exponents=(5.0, 5.0))
    m = build_model(1, 2, mode=AXIOMATIC, exponents=[5, 6])
    assert m.atom_exponents == (5, 6)
    m = build_model(1, 2, glue=[(Rat(1, 5), Rat(2, 5))])
    assert build_model(1, 2, glue=[(Rat(1, 5), Rat(2, 5))],
                       exponents=m.atom_exponents).atom_exponents == m.atom_exponents
    # d, g and atom indices must be ints too; bools and floats are refused
    for d, g in [(5.5, 2), ("7", 2), (True, 2), (1, True), (1, 2.0), (1, "2")]:
        with pytest.raises(InvalidInput, match="d and g must be integers"):
            build_model(d, g, glue=[(Rat(1, 5), Rat(1, 5))])
        with pytest.raises(InvalidInput, match="d and g must be integers"):
            build_model(d, g, mode=AXIOMATIC, exponents=(5, 5))
    for K in ([True], [False], [1.0], ["1"], [0, "1"]):
        with pytest.raises(InvalidInput, match="atom indices must be integers"):
            exponent(m, K)
        with pytest.raises(InvalidInput, match="atom indices must be integers"):
            subset_idempotent(m, K)


def test_maximal_order_changes_integrality():
    half = QuadInt(Rat(1, 2), Rat(1, 2), 3)  # (1 + sqrt(-3))/2
    x_rows = [[half, 0], [0, half]]
    m_max = build_model(3, 2, maximal_order=True)
    m_std = build_model(3, 2)
    x_max = EndoQ.from_rows(x_rows, 3)
    assert is_integral(m_max, x_max)
    assert not is_integral(m_std, x_max)


# --- is_integral -----------------------------------------------------------


def test_is_integral_examples():
    m = glue_model_g2()
    assert is_integral(m, endo_identity(m))
    e1 = subset_idempotent(m, [0])
    assert not is_integral(m, e1.scale(Rat(1, 5)))
    assert not is_integral(m, e1)
    assert is_integral(m, subset_idempotent(m, [0]).scale(exponent(m, [0])))
    assert subset_idempotent(m, [0]).scale(exponent(m, [0])) == e1.scale(5)
    # subsets lemma instance: 2e_A + e_B with A={1}, B={2}
    x = subset_idempotent(m, [0]).scale(2) + subset_idempotent(m, [1])
    assert not is_integral(m, x)


def test_is_integral_shape_and_field_checks():
    m = glue_model_g2()
    with pytest.raises(ShapeError):
        is_integral(m, EndoQ.from_rows([[1]], 1))
    with pytest.raises(InvalidInput):
        is_integral(m, EndoQ.from_rows([[1, 0], [0, 1]], 2))


def test_axiomatic_is_integral_rules():
    m = build_model(1, 3, mode=AXIOMATIC, exponents=(4, 4, 4), assume_proper_ge4=True)
    assert is_integral(m, endo_identity(m))
    # non-integer coefficient
    assert not is_integral(m, subset_idempotent(m, [0]).scale(Rat(1, 2)))
    # shift certificate: diag(4, 0, 0) = 4 e_1, and 4 = n_1
    assert is_integral(m, subset_idempotent(m, [0]).scale(4))
    # diag(2, 2, 0): no shift (2 != 0 mod 4); the value-2 class {1,2} is a
    # proper union with |M| = 2 < 4, so the hypothesis refutes it
    x = subset_idempotent(m, [0, 1]).scale(2)
    assert not is_integral(m, x)
    # off-diagonal or irrational entries are out of scope
    with pytest.raises(UnsupportedQuery, match=r"off-diagonal entry at \(1,2\)"):
        is_integral(m, EndoQ.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 1))
    with pytest.raises(UnsupportedQuery, match=r"entry \(1,1\) has a sqrt\(-d\) part"):
        w = QuadInt(0, 1, 1)
        is_integral(m, EndoQ.from_rows([[w, 0, 0], [0, w, 0], [0, 0, w]], 1))


def test_axiomatic_crt_shift_true_case():
    # diag(1, 3) with exponents (2, 2): t = 1 matches both congruences,
    # so the endomorphism is id + e_2^0, integral
    m = build_model(1, 2, mode=AXIOMATIC, exponents=(2, 2))
    x = endo_identity(m) + subset_idempotent(m, [1]).scale(2)
    assert is_integral(m, x)
    # and the matching lattice model agrees: glue (1/4, 1/2) realified below
    lat = build_model(1, 2, glue=[(Rat(1, 4), Rat(1, 2))])
    assert lat.atom_exponents == (2, 2)
    y = endo_identity(lat) + subset_idempotent(lat, [1]).scale(2)
    assert is_integral(lat, y)


def test_lattice_axiomatic_agreement():
    rng = random.Random(707)
    models = [
        glue_model_g2(),
        build_model(1, 3, glue=[(Rat(1, 5), Rat(2, 5), 0)]),
        build_model(2, 3, glue=[(Rat(1, 4), Rat(1, 4), Rat(1, 4))]),
        build_model(1, 4, glue=[(Rat(1, 6), Rat(1, 6), Rat(1, 6), Rat(1, 6))]),
    ]
    for lat in models:
        proper_ok = all(exponent(lat, K) >= 4 for K in proper_nonempty_subsets(lat.g))
        ax = build_model(
            lat.d, lat.g, mode=AXIOMATIC, exponents=lat.atom_exponents,
            assume_proper_ge4=proper_ok,
        )
        for _ in range(120):
            cs = [rng.randint(-6, 6) for _ in range(lat.g)]
            rows = [[cs[i] if i == j else 0 for j in range(lat.g)] for i in range(lat.g)]
            x_lat = EndoQ.from_rows(rows, lat.d)
            try:
                got = is_integral(ax, x_lat)
            except UnsupportedQuery:
                continue
            assert got == is_integral(lat, x_lat), (lat, cs)


def test_integrality_closed_under_sum_and_product():
    m = glue_model_g2()
    rng = random.Random(808)
    found = []
    while len(found) < 8:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        x = EndoQ.from_rows(rows, 1)
        if is_integral(m, x):
            found.append(x)
    for x, y in itertools.combinations(found, 2):
        assert is_integral(m, x + y)
        assert is_integral(m, x * y)


# --- perm_endo and rosati --------------------------------------------------


def test_perm_endo_identity_cases():
    m = glue_model_g2()
    ident = (0, 1)
    assert perm_endo(m, PermEndoSpec(ident, full_grid(2))) == endo_identity(m)
    # restricted identity keeps only diagonal cells of U
    U = frozenset({(0, 0), (0, 1), (1, 0)})
    assert perm_endo(m, PermEndoSpec(ident, U)) == subset_idempotent(m, [0])


def test_perm_endo_power_matches_power_of_sigma():
    m = build_model(1, 3, glue=[(Rat(1, 4), Rat(1, 4), 0)])
    assert m.atom_exponents == (4, 4, 1)
    cyc = (1, 2, 0)
    s = perm_endo(m, PermEndoSpec(cyc, full_grid(3)))
    s2 = perm_endo(m, PermEndoSpec((2, 0, 1), full_grid(3)))
    assert s * s == s2
    assert s * s * s == endo_identity(m)


def test_rosati_fixes_atoms_and_is_involution():
    m = build_model(1, 3, glue=[(Rat(1, 4), Rat(1, 4), 0)])
    rng = random.Random(909)
    for i in range(3):
        e = subset_idempotent(m, [i])
        assert rosati(e, m) == e
    for _ in range(100):
        rows = [
            [QuadInt(Rat(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2), 1)
             for _ in range(3)]
            for _ in range(3)
        ]
        x = EndoQ.from_rows(rows, 1)
        y = EndoQ.from_rows(
            [[QuadInt(rng.randint(-3, 3), rng.randint(-2, 2), 1) for _ in range(3)]
             for _ in range(3)], 1)
        assert rosati(rosati(x, m), m) == x
        assert rosati(x * y, m) == rosati(y, m) * rosati(x, m)
        assert rosati(x + y, m) == rosati(x, m) + rosati(y, m)


def test_rosati_swaps_gamma_pairs():
    m = build_model(1, 3, glue=[(Rat(1, 4), Rat(1, 4), 0)])
    n = m.atom_exponents
    for a in range(3):
        for b in range(3):
            # gamma_b^T gamma_a = n_a E[b][a]
            rows = [[n[a] if (i, j) == (b, a) else 0 for j in range(3)] for i in range(3)]
            x = EndoQ.from_rows(rows, 1)
            swapped = [[n[b] if (i, j) == (a, b) else 0 for j in range(3)] for i in range(3)]
            assert rosati(x, m) == EndoQ.from_rows(swapped, 1)


def test_rosati_permutation_identity_example():
    # transposition (1 2), U = {(1,2)} in 1-based labels, g = 2:
    # rosati(sigma_U) . rosati(sigma_J^-1) picks out e_K' with
    # K' = {i : (sigma(i), i) in U} = {2}
    m = glue_model_g2()
    swap = (1, 0)
    s_U = perm_endo(m, PermEndoSpec(swap, frozenset({(0, 1)})))
    s_J = perm_endo(m, PermEndoSpec(swap, full_grid(2)))  # own inverse
    got = rosati(s_U, m) * rosati(s_J, m)
    assert got == subset_idempotent(m, [1])


def test_rosati_permutation_identity_general_involutions():
    m = build_model(1, 4, glue=[(Rat(1, 6), Rat(1, 6), Rat(1, 6), Rat(1, 6))])
    rng = random.Random(111)
    invols = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (3, 1, 2, 0)]
    cells = [(i, j) for i in range(4) for j in range(4)]
    for sigma in invols:
        for _ in range(20):
            U = frozenset(c for c in cells if rng.random() < 0.5)
            s_U = perm_endo(m, PermEndoSpec(sigma, U))
            s_J_inv = perm_endo(m, PermEndoSpec(sigma, full_grid(4)))
            got = rosati(s_U, m) * rosati(s_J_inv, m)
            K = [i for i in range(4) if (sigma[i], i) in U]
            assert got == subset_idempotent(m, K)


# --- subsets lemma ---------------------------------------------------------


def test_subsets_lemma_trivial_pairs():
    m = glue_model_g2()
    assert subsets_lemma_check(m, [], [0, 1]) == CONSISTENT
    assert subsets_lemma_check(m, [0, 1], []) == CONSISTENT


def test_subsets_lemma_exhaustive_small():
    m = build_model(1, 3, glue=[(Rat(1, 5), Rat(1, 5), Rat(2, 5))])
    assert all(n >= 4 for n in m.atom_exponents)
    subsets = [frozenset(K) for size in range(4)
               for K in itertools.combinations(range(3), size)]
    for A in subsets:
        for B in subsets:
            assert subsets_lemma_check(m, A, B) == CONSISTENT


def test_subsets_lemma_precondition_fires():
    # n = (2, 2) on the (1/2,1/2)-glue model
    m = build_model(1, 2, glue=[(Rat(1, 2), Rat(1, 2))])
    assert m.atom_exponents == (2, 2)
    with pytest.raises(PreconditionError):
        subsets_lemma_check(m, [0], [1])
    # PreconditionError is a HypothesisError
    with pytest.raises(HypothesisError):
        subsets_lemma_check(m, [0], [1])
    ax = build_model(1, 2, mode=AXIOMATIC, exponents=(6, 6))
    with pytest.raises(PreconditionError):
        subsets_lemma_check(ax, [0], [1])  # unions not certified
    ax_bad = build_model(1, 2, mode=AXIOMATIC, exponents=(3, 6), assume_proper_ge4=True)
    with pytest.raises(PreconditionError):
        subsets_lemma_check(ax_bad, [0], [1])


def full_exponent_scan(m):
    """The first K in size-then-lex order with n_K < 4, scanning all
    2^g - 2 proper nonempty subsets, or None."""
    for size in range(1, m.g):
        for K in itertools.combinations(range(m.g), size):
            n = exponent(m, K)
            if n < 4:
                return frozenset(K), n
    return None


def symmetric_glue(g, n, x, y):
    """A constant glue vector x/n and the S_g orbit of (y/n, (n - y)/n)
    on two atoms: every swap of two atoms is integral."""
    pair = (Rat(y, n), Rat(n - y, n)) + (Rat(0),) * (g - 2)
    return [(Rat(x, n),) * g] + sorted(set(itertools.permutations(pair)))


def test_verify_proper_exponents_matches_the_full_scan():
    # symmetric glue takes the g - 1 subset route, random glue mostly
    # does not; (1, 4, 12, 7, 10) first fails on a union of two atoms
    rng = random.Random(20261019)
    cases = [(1, 4, symmetric_glue(4, 12, 7, 10))]
    for k in range(40):
        g = rng.randint(2, 8)
        d = rng.choice((1, 2, 3, 7))
        n = rng.choice((2, 3, 4, 5, 6, 7, 9, 10, 12))
        if k % 2:
            glue = symmetric_glue(g, n, rng.randrange(1, n), rng.randrange(n))
        else:
            glue = [[(Rat(rng.randrange(n), n), Rat(rng.randrange(n), n)) for _ in range(g)]
                    for _ in range(rng.randint(1, 2))]
        cases.append((d, g, glue))
    routes = {True: 0, False: 0}
    union_failures = 0
    for d, g, glue in cases:
        m = build_model(d, g, glue=glue)
        got = cmlat.verify_proper_exponents(m)
        assert got == full_exponent_scan(build_model(d, g, glue=glue)), (d, g, glue)
        routes[cmlat.swaps_are_integral(m)] += 1
        union_failures += got is not None and len(got[0]) > 1
        if cmlat.swaps_are_integral(m):
            # the closed form of the symmetric route, n_{1..s} from r and n_1
            r, n1 = cmlat.diagonal_step(m), exponent(m, [0])
            for s in range(1, g):
                assert exponent(m, range(s)) == math.lcm(r, n1 // math.gcd(n1, g - s)), (m, s)
    assert routes[True] >= 20 and routes[False] >= 10
    assert union_failures >= 1


def test_subsets_lemma_check_is_fast_on_a_symmetric_g64_model():
    m = build_model(1, 64, glue=[(Rat(1, 5),) * 64])
    t0 = time.perf_counter()
    assert subsets_lemma_check(m, [0], [1]) == CONSISTENT
    assert time.perf_counter() - t0 < 1.0


def test_subsets_lemma_axiomatic_c6_exhaustive(subtests=None):
    exps = (6, 6, 6, 6, 6, 6, 24, 24, 24, 4)
    m = build_model(3, 10, mode=AXIOMATIC, exponents=exps, assume_proper_ge4=True)
    rng = random.Random(222)
    subsets = [frozenset(i for i in range(10) if rng.random() < 0.5) for _ in range(40)]
    subsets += [frozenset(), frozenset(range(10)), frozenset([0]), frozenset([9])]
    for A in subsets:
        for B in subsets:
            assert subsets_lemma_check(m, A, B) == CONSISTENT


# --- exponents invariants --------------------------------------------------


def test_exponent_primitivity_invariant():
    models = [
        glue_model_g2(),
        build_model(1, 3, glue=[(Rat(1, 5), Rat(2, 5), 0)]),
        build_model(3, 2, glue=[(0, Rat(1, 3))], maximal_order=True),
    ]
    for m in models:
        for K in proper_nonempty_subsets(m.g):
            n = exponent(m, K)
            e_K = subset_idempotent(m, K)
            assert is_integral(m, e_K.scale(n))
            if n > 1:
                assert not is_integral(m, e_K.scale(n - 1))
            assert n == oracle_exponent(m, K)


def test_disjoint_idempotent_identities():
    m = build_model(1, 4, glue=[(Rat(1, 6), Rat(1, 6), Rat(1, 6), Rat(1, 6))])
    K1, K2 = frozenset([0, 2]), frozenset([1])
    e1, e2 = subset_idempotent(m, K1), subset_idempotent(m, K2)
    assert (e1 * e2).is_zero()
    assert e1 + e2 == subset_idempotent(m, K1 | K2)


def test_complement_exponents_match():
    # n_K = n_{I minus K} since e_K = id - e_{I\K}
    m = build_model(1, 3, glue=[(Rat(1, 5), Rat(2, 5), Rat(1, 5))])
    for K in proper_nonempty_subsets(3):
        comp = frozenset(range(3)) - K
        assert exponent(m, K) == exponent(m, comp)


# --- JSON ------------------------------------------------------------------


def test_model_json_roundtrip():
    m = glue_model_g2()
    data = model_to_dict(m)
    m2 = model_from_dict(data)
    assert m2.mode == LATTICE and m2.d == m.d and m2.g == m.g
    assert m2.lattice == m.lattice
    assert m2.atom_exponents == m.atom_exponents
    ax = build_model(3, 10, mode=AXIOMATIC,
                     exponents=(6, 6, 6, 6, 6, 6, 24, 24, 24, 4),
                     assume_proper_ge4=True)
    ax2 = model_from_dict(model_to_dict(ax))
    assert ax2.mode == AXIOMATIC
    assert ax2.atom_exponents == ax.atom_exponents
    assert ax2.assume_proper_ge4


def test_model_json_shorthand_glue():
    data = {"d": 1, "g": 2, "mode": "lattice", "glue": [[[1, 5], [2, 5]]]}
    m = model_from_dict(data)
    assert m.atom_exponents == (5, 5)


def test_model_json_validation():
    with pytest.raises(InvalidInput):
        model_from_dict({"d": 1, "g": 2})
    with pytest.raises(InvalidInput):
        model_from_dict({"d": 1, "g": 2, "mode": "weird"})
    with pytest.raises(InvalidInput):
        model_from_dict({"d": 1, "g": 2, "mode": "lattice", "glue": [[[1, 0], [0, 1]]]})


def test_model_json_refuses_unknown_keys():
    # the shape of the benchmark's lattice models loads; a misspelt key
    # is named, not ignored
    data = {"d": 3, "g": 2, "glue": [[[1, 5], [1, 5]]], "mode": "lattice",
            "maximal_order": True}
    assert model_from_dict(data).maximal_order
    with pytest.raises(InvalidInput, match="unknown keys 'maximal_ordr', 'x'"):
        model_from_dict(dict(data, maximal_ordr=True, x=0))


def test_model_json_rejects_bools():
    # JSON true/false are not integers, though Python counts bools as ints;
    # and a flag must be a JSON boolean, not any truthy value
    good = {"d": 1, "g": 2, "mode": "lattice", "glue": [[[1, 5], [2, 5]]]}
    assert model_from_dict(good).atom_exponents == (5, 5)
    for key, value in (
        ("d", True),
        ("g", True),
        ("glue", [[[True, 5], [2, 5]]]),
        ("glue", [[[[1, 5], [0, True]], [2, 5]]]),
        ("glue", 5),
        ("exponents", [5, True]),
        ("exponents", 5),
        ("maximal_order", "no"),
        ("assume_proper_exponents_ge4", "false"),
    ):
        with pytest.raises(InvalidInput):
            model_from_dict(dict(good, **{key: value}))


def test_endo_json_codec():
    m = build_model(2, 2, glue=[(Rat(1, 5), Rat(2, 5))])
    x = EndoQ.from_rows([[Rat(1, 2), QuadInt(Rat(-3), Rat(1, 7), 2)], [0, 5]], 2)
    assert endo_from_jsonable(endo_to_jsonable(x), m) == x
    # the [num, den] shorthand for a rational entry
    assert endo_from_jsonable([[[1, 2], [[-3, 1], [1, 7]]], [[0, 1], [5, 1]]], m) == x
    zero = [[0, 1], [0, 1]]
    for bad in ([1, 0], [[1, 1], [1, 0]], [True, 1], [[1, 1], [False, 1]], [1, 2, 3], 7):
        with pytest.raises(InvalidInput):
            endo_from_jsonable([[bad, zero], [zero, zero]], m)
    for bad in ([[zero, zero]], [[zero], [zero]], "x"):
        with pytest.raises(InvalidInput):
            endo_from_jsonable(bad, m)

"""Tests for the correspondence algebra: frozen convolution table,
grid orthogonality, transpose, and the unit and tensor laws."""

import random

import pytest

from motivix.cmlat import (
    EndoQ,
    build_model,
    endo_identity,
    endo_zero,
    full_grid,
    perm_endo,
    PermEndoSpec,
    rosati,
)
from motivix.corr import (
    A1,
    A2,
    THETA,
    Corr2,
    build_grids,
    compose,
    conv,
    transpose,
)
from motivix.errors import ShapeError, UnsupportedQuery
from motivix.exact import QuadInt, Rat


def model_441():
    # glue (1/4, 1/4, 0) gives atom exponents (4, 4, 1)
    m = build_model(1, 3, glue=[(Rat(1, 4), Rat(1, 4), Rat(0))])
    assert m.atom_exponents == (4, 4, 1)
    return m


def model_555():
    m = build_model(3, 3, glue=[(Rat(1, 5), Rat(1, 5), Rat(2, 5))])
    assert m.atom_exponents == (5, 5, 5)
    return m


def unit_entry(m, i, j, c=1):
    rows = [[c if (r, s) == (i, j) else 0 for s in range(m.g)] for r in range(m.g)]
    return EndoQ.from_rows(rows, m.d)


def pair_probe(m, a, b):
    # the probe cycle built from the a-th and b-th embeddings corresponds
    # to the endomorphism n_b * E[a][b]
    return unit_entry(m, a, b, m.atom_exponents[b])


def random_endo(m, rng, scale=5):
    rows = [
        [
            QuadInt(Rat(rng.randint(-scale, scale)), Rat(rng.randint(-scale, scale)), m.d)
            for _ in range(m.g)
        ]
        for _ in range(m.g)
    ]
    return EndoQ.from_rows(rows, m.d)


def test_conv_table_frozen():
    # conv by the (a,b) pair probe picks out exactly the matching grid
    # cell, with weight 2 for theta and -1/2 for each a-grid
    for m in (model_441(), model_555()):
        grids = build_grids(m)
        n = m.atom_exponents
        for a in range(m.g):
            for b in range(m.g):
                probe = pair_probe(m, a, b)
                base = unit_entry(m, b, a, n[a])  # gamma_b^T gamma_a
                for i in range(m.g):
                    for j in range(m.g):
                        th = conv(probe, grids.theta[i][j])
                        c1 = conv(probe, grids.a1[i][j])
                        c2 = conv(probe, grids.a2[i][j])
                        if (i, j) == (a, b):
                            assert th == base.scale(2)
                            assert c1 == base.scale(Rat(-1, 2))
                            assert c2 == base.scale(Rat(-1, 2))
                        else:
                            assert th.is_zero()
                            assert c1.is_zero()
                            assert c2.is_zero()


def test_conv_theta_block_of_permutation():
    # summing theta cells along the graph of a permutation sigma gives
    # conv = 2 * rosati(sigma_U) for any restriction U of the graph
    m = model_441()
    grids = build_grids(m)
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    for sigma in perms:
        full = frozenset((i, sigma[i]) for i in range(m.g))
        probe = perm_endo(m, PermEndoSpec(sigma, full_grid(m.g)))
        for U in (full, frozenset(list(full)[:1]), frozenset()):
            theta_U = Corr2.zero(m)
            for (i, j) in U:
                theta_U = theta_U + grids.theta[i][j]
            got = conv(probe, theta_U)
            want = rosati(perm_endo(m, PermEndoSpec(sigma, U)), m).scale(2)
            assert got == want


def test_conv_of_unit_is_rosati():
    m = model_555()
    rng = random.Random(20)
    for _ in range(10):
        sigma = random_endo(m, rng)
        assert conv(sigma, Corr2.unit(m)) == rosati(sigma, m)


def test_conv_full_grid_sum_matches_unit():
    # all theta plus all a1 plus all a2 cells convolve exactly like the
    # unit tensor: the weights 2 - 1/2 - 1/2 recover rosati
    m = model_441()
    grids = build_grids(m)
    total = Corr2.zero(m)
    for i in range(m.g):
        for j in range(m.g):
            total = total + grids.theta[i][j] + grids.a1[i][j] + grids.a2[i][j]
    rng = random.Random(21)
    for _ in range(10):
        rows = [[Rat(rng.randint(-9, 9)) for _ in range(m.g)] for _ in range(m.g)]
        sigma = EndoQ.from_rows(rows, m.d)
        assert conv(sigma, total) == rosati(sigma, m)
        assert conv(sigma, total) == conv(sigma, Corr2.unit(m))


def test_conv_grid_needs_rational_probe():
    m = model_441()
    grids = build_grids(m)
    sigma = EndoQ.from_rows(
        [[QuadInt(Rat(0), Rat(1), m.d) if r == s == 0 else 0 for s in range(3)] for r in range(3)],
        m.d,
    )
    with pytest.raises(UnsupportedQuery):
        conv(sigma, grids.theta[0][0])
    # a pure tensor tolerates the irrational probe
    conv(sigma, Corr2.unit(m))


def test_conv_tensor_rule():
    m = model_555()
    rng = random.Random(22)
    for _ in range(15):
        a = random_endo(m, rng)
        b = random_endo(m, rng)
        sigma = random_endo(m, rng)
        x = Corr2.tensor(m, a, b).scale(Rat(3, 2))
        assert conv(sigma, x) == (b * rosati(sigma, m) * a).scale(Rat(3, 2))


def test_conv_linearity():
    m = model_441()
    grids = build_grids(m)
    rng = random.Random(23)
    x = grids.theta[0][1] + Corr2.tensor(m, random_endo(m, rng), random_endo(m, rng))
    y = grids.a1[2][2].scale(Rat(5, 3)) + Corr2.unit(m)
    rows = [[Rat(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
    sigma = EndoQ.from_rows(rows, m.d)
    assert conv(sigma, x + y) == conv(sigma, x) + conv(sigma, y)
    assert conv(sigma, x.scale(Rat(-7, 4))) == conv(sigma, x).scale(Rat(-7, 4))


def test_grid_orthogonal_idempotents():
    m = model_441()
    grids = build_grids(m)
    cells = [(i, j) for i in range(m.g) for j in range(m.g)]
    tables = {THETA: grids.theta, A1: grids.a1, A2: grids.a2}
    for k1, t1 in tables.items():
        for k2, t2 in tables.items():
            for (i, j) in cells:
                for (p, q) in cells:
                    prod = compose(t1[i][j], t2[p][q])
                    if k1 == k2 and (i, j) == (p, q):
                        assert prod == t1[i][j]
                    else:
                        assert prod.is_zero()


def test_unit_laws():
    m = model_441()
    grids = build_grids(m)
    one = Corr2.unit(m)
    rng = random.Random(24)
    x = (
        grids.theta[1][2].scale(Rat(4, 7))
        + grids.a2[0][0]
        + Corr2.tensor(m, random_endo(m, rng), random_endo(m, rng)).scale(Rat(-2))
    )
    assert compose(one, x) == x
    assert compose(x, one) == x


def test_compose_tensor_rule_and_mixed_failure():
    m = model_555()
    rng = random.Random(25)
    a, b, c, d = (random_endo(m, rng) for _ in range(4))
    x = Corr2.tensor(m, a, b).scale(Rat(2))
    y = Corr2.tensor(m, c, d).scale(Rat(1, 3))
    assert compose(x, y) == Corr2.tensor(m, a * c, b * d).scale(Rat(2, 3))
    grids = build_grids(m)
    with pytest.raises(UnsupportedQuery):
        compose(x, grids.theta[0][0])
    with pytest.raises(UnsupportedQuery):
        compose(grids.a1[1][1], y)
    # scalar multiples of the unit do compose with grid atoms
    assert compose(one_scaled := Corr2.unit(m).scale(Rat(5)), grids.theta[0][1]) == grids.theta[0][1].scale(Rat(5))
    assert compose(grids.theta[0][1], one_scaled) == grids.theta[0][1].scale(Rat(5))


def test_transpose_involution_and_antihom():
    m = model_441()
    grids = build_grids(m)
    rng = random.Random(26)
    for _ in range(10):
        a, b = random_endo(m, rng), random_endo(m, rng)
        x = Corr2.tensor(m, a, b).scale(Rat(3)) + grids.theta[0][2] + grids.a1[1][1].scale(Rat(-1, 2))
        assert transpose(transpose(x)) == x
        assert transpose(Corr2.tensor(m, a, b)) == Corr2.tensor(
            m, rosati(a, m), rosati(b, m)
        )
    for _ in range(10):
        a, b, c, d = (random_endo(m, rng) for _ in range(4))
        x = Corr2.tensor(m, a, b)
        y = Corr2.tensor(m, c, d)
        assert transpose(compose(x, y)) == compose(transpose(y), transpose(x))


def test_tensor_canonical_merge():
    m = model_441()
    rng = random.Random(27)
    a, b = random_endo(m, rng), random_endo(m, rng)
    assert Corr2.tensor(m, a.scale(2), b) == Corr2.tensor(m, a, b.scale(2))
    assert Corr2.tensor(m, a.scale(Rat(2, 3)), b).scale(Rat(3)) == Corr2.tensor(m, a, b).scale(Rat(2))
    z = Corr2.tensor(m, a, b) - Corr2.tensor(m, a.scale(3), b).scale(Rat(1, 3))
    assert z.is_zero()
    assert Corr2.tensor(m, endo_zero(m), b).is_zero()


def test_model_mismatch_rejected():
    m1 = model_441()
    m2 = model_555()
    with pytest.raises(ShapeError):
        Corr2.unit(m1) + Corr2.unit(m2)
    with pytest.raises(ShapeError):
        Corr2.tensor(m1, endo_identity(m2), endo_identity(m2))


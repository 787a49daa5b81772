"""Tests for motive accounting: curve/surface decompositions, sums and
tensors against a dimension-vector oracle, the truncated projector ring,
blow-up rows, and the cubic ledger."""

import random

import pytest

from motivix.errors import InvalidInput
from motivix.exact import Rat
from motivix.motcalc import (
    MotiveExpr,
    blowup_rows,
    ck_curve,
    ck_surface,
    cubic_rationality_ledger,
    curve_h1,
    direct_sum,
    hypersurface_ck,
    lefschetz,
    middle_betti,
    product_of_curves,
    surface_part,
    tensor,
    unit,
    M2ALG,
    M2TR,
)


def oracle_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def oracle_add(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))]


def test_ck_curve_dims():
    assert ck_curve(0).dims() == (1, 0, 1)
    assert ck_curve(1).dims() == (1, 2, 1)
    assert ck_curve(10).dims() == (1, 20, 1)
    for g in range(8):
        assert ck_curve(g).total_dim() == 2 * g + 2
    with pytest.raises(InvalidInput):
        ck_curve(-1)


def test_ck_surface_dims():
    assert ck_surface(6, 4, 2).dims() == (1, 4, 6, 4, 1)
    assert ck_surface(22, 20, 0).dims() == (1, 0, 22, 0, 1)
    # rho-maximal sextic: b2 = 106, rho = 86, transcendental dimension 20
    s6 = ck_surface(106, 86, 0)
    assert middle_betti(2, 6) == 106
    tr = surface_part(M2TR, 106, 86, 0)
    assert tr.dims() == (0, 0, 20)
    assert s6.dims()[2] == 106
    with pytest.raises(InvalidInput):
        ck_surface(6, 7, 0)


def test_surface_alg_plus_tr_is_b2():
    rng = random.Random(31)
    for _ in range(50):
        b2 = rng.randint(0, 40)
        rho = rng.randint(0, b2)
        q = rng.randint(0, 5)
        alg = surface_part(M2ALG, b2, rho, q).dims()
        tr = surface_part(M2TR, b2, rho, q).dims()
        total = (alg[2] if len(alg) > 2 else 0) + (tr[2] if len(tr) > 2 else 0)
        assert total == b2


def test_product_of_curves_numbers():
    for g in range(0, 21):
        expr, rep = product_of_curves(g)
        assert rep["m2_tr"] == 2 * g * g
        assert rep["m2_alg"] == 2 * g * g + 2
        assert rep["ns_rank"] == 2 * g * g + 2
        assert rep["b2"] == 4 * g * g + 2
        assert rep["e_times_c_m2_tr"] == 2 * g
        assert expr.total_dim() == (2 * g + 2) ** 2
        want = oracle_convolve([1, 2 * g, 1], [1, 2 * g, 1])
        assert expr.dims() == want
        assert expr.dims()[2] == rep["b2"]
    _, rep10 = product_of_curves(10)
    assert rep10["m2_tr"] == 200


def test_product_of_curves_matches_abelian_surface():
    expr, rep = product_of_curves(1)
    assert expr.dims() == ck_surface(6, 4, 2).dims()
    assert rep["m2_tr"] == 6 - 4
    assert rep["ns_rank"] == 4


def test_product_of_curves_split_flag():
    _, rep = product_of_curves(3, elliptically_split=True)
    grid = rep["grid"]
    assert grid["t_cells"] == 9 and grid["t_cell_dim"] == 2
    assert grid["t_cells"] * grid["t_cell_dim"] == rep["m2_tr"]
    assert grid["a_cells"] * grid["a_cell_dim"] + grid["extra_algebraic"] == rep["m2_alg"]
    _, plain = product_of_curves(3)
    assert "grid" not in plain


def test_middle_betti_frozen():
    assert middle_betti(4, 3) == 23
    assert middle_betti(2, 4) == 22
    assert middle_betti(2, 6) == 106
    assert middle_betti(2, 3) == 7
    assert middle_betti(3, 3) == 10
    assert middle_betti(3, 4) == 60
    assert middle_betti(2, 2) == 2
    assert middle_betti(1, 1) == 0


def test_hypersurface_ck_cubic_fourfold():
    ring = hypersurface_ck(4, 3)
    assert ring.projector(1).prods == {(3, 1): Rat(1, 3)}
    assert ring.projector(3).prods == {(1, 3): Rat(1, 3)}
    assert ring.off_middle_indices() == [0, 1, 3, 4]
    mid = ring.middle()
    assert mid.delta == 1
    assert mid.compose(mid) == mid
    assert ring.middle_dim() == 23
    assert ring.prim_middle_dim() == 22
    with pytest.raises(InvalidInput):
        ring.projector(2)


def test_hypersurface_ck_small_sweep():
    # construction performs the orthogonality and idempotency checks
    for n in range(1, 7):
        for d in range(1, 6):
            ring = hypersurface_ck(n, d)
            pieces = ring.all_projectors()
            total = ring.zero()
            for _, p in pieces:
                total = total + p
            assert total == ring.delta()


def test_hypersurface_ck_projective_line():
    ring = hypersurface_ck(1, 1)
    assert ring.middle_dim() == 0
    p0 = ring.projector(0)
    p1 = ring.projector(1)
    assert p0.compose(p0) == p0 and p1.compose(p1) == p1
    assert p0.compose(p1).is_zero() and p1.compose(p0).is_zero()


def test_blowup_validation():
    for surfaces, curves, points in (
        ([(4, 9, 0)], [], 0), ([(6, 4)], [], 0), ([], [-1], 0), ([], [], -1),
    ):
        with pytest.raises(InvalidInput):
            blowup_rows(surfaces, curves, points)


def test_blowup_rows():
    rows = blowup_rows([(6, 4, 2)], [0, 3], 2)
    assert rows["m0"] == [0, 0, 2, 0, 2, 0, 2]
    # two curves: (L + L^2) tensor (M(C0) + M(C3))
    want_m1 = oracle_convolve([0, 0, 1, 0, 1], [2, 6, 2])
    assert tuple(rows["m1"]) == want_m1
    assert rows["m2"] == [0, 0, 1, 4, 6, 4, 1]
    assert blowup_rows([], [], 0) == {"m0": [], "m1": [], "m2": []}


def test_cubic_ledger():
    rep = cubic_rationality_ledger([(22, 20, 0)], [], 0)
    assert rep["b4"] == 23 and rep["rho2"] == 1
    assert rep["b4"] == middle_betti(4, 3)
    assert rep["dim_m4_tr"] == 22 and rep["dim_m4_prim"] == 22
    assert rep["surfaces"][0]["dim_m2_tr"] == 2
    assert rep["surfaces"][0]["verdict"] == "cannot host"
    assert rep["summary"] == "no host available"

    rep = cubic_rationality_ledger([], [1, 2], 5)
    assert rep["summary"] == "no host available"
    assert rep["curve_count"] == 2 and rep["point_count"] == 5
    # any iterable of genera, read once
    rep = cubic_rationality_ledger([], (g for g in [1, 2]), 0)
    assert rep["curve_count"] == 2
    with pytest.raises(InvalidInput):
        cubic_rationality_ledger([], (g for g in [1, -1]), 0)

    rep = cubic_rationality_ledger([(24, 2, 0)], [], 0)
    assert rep["surfaces"][0]["dim_m2_tr"] == 22
    assert "equality" in rep["surfaces"][0]["verdict"]
    assert "equality" in rep["summary"]

    rep = cubic_rationality_ledger([(22, 20, 0), (30, 1, 4)], [], 0)
    assert rep["surfaces"][1]["verdict"] == "could host"
    assert rep["summary"] == "a listed surface could host the transcendental part"

    with pytest.raises(InvalidInput):
        cubic_rationality_ledger([(4, 9, 0)], [], 0)


def test_cubic_ledger_checks_the_shape_of_each_surface():
    # a surface is a (b2, rho, q) triple, as in blowup_rows: any other
    # shape is InvalidInput, not an unpacking error
    for bad in ((22, 20), (22, 20, 0, 1), 22, "abc"):
        with pytest.raises(InvalidInput, match="triple"):
            cubic_rationality_ledger([bad], [], 0)
    assert cubic_rationality_ledger([[22, 20, 0]], [], 0)["surfaces"][0]["q"] == 0


def random_expr(rng, depth=0):
    """A random expression tree: nested tuples, evaluated by `evaluate`
    through motcalc and by `oracle_dims` from the definitions."""
    pick = rng.randint(0, 8 if depth < 2 else 5)
    if pick == 0:
        return ("unit",)
    if pick == 1:
        return ("lefschetz", rng.randint(0, 3))
    if pick == 2:
        return ("curve_h1", rng.randint(0, 4))
    if pick == 3:
        b2 = rng.randint(0, 10)
        tag = rng.choice(["M1", "M2alg", "M2tr", "M3"])
        return ("surface_part", tag, b2, rng.randint(0, b2), rng.randint(0, 3))
    if pick == 4:
        # the middle cohomology of a hypersurface, given by its vector
        return ("middle", rng.randint(1, 4), rng.randint(1, 4))
    if pick == 5:
        return ("ck_curve", rng.randint(0, 3))
    if pick <= 7:
        return ("sum", [random_expr(rng, depth + 1) for _ in range(rng.randint(0, 3))])
    return ("tensor", random_expr(rng, depth + 1), random_expr(rng, depth + 1))


def evaluate(tree):
    kind, args = tree[0], tree[1:]
    if kind == "middle":
        n, d = args
        return MotiveExpr((0,) * n + (middle_betti(n, d),))
    if kind == "sum":
        return direct_sum(evaluate(t) for t in args[0])
    if kind == "tensor":
        return tensor(evaluate(args[0]), evaluate(args[1]))
    build = {"unit": unit, "lefschetz": lefschetz, "curve_h1": curve_h1,
             "surface_part": surface_part, "ck_curve": ck_curve}[kind]
    return build(*args)


def oracle_dims(tree):
    kind, args = tree[0], tree[1:]
    if kind == "unit":
        out = [1]
    elif kind == "lefschetz":
        out = [0] * (2 * args[0]) + [1]
    elif kind == "curve_h1":
        out = [0, 2 * args[0]]
    elif kind == "surface_part":
        tag, b2, rho, q = args
        weight, dim = {
            "M1": (1, 2 * q), "M2alg": (2, rho), "M2tr": (2, b2 - rho), "M3": (3, 2 * q)
        }[tag]
        out = [0] * weight + [dim]
    elif kind == "middle":
        out = [0] * args[0] + [middle_betti(*args)]
    elif kind == "ck_curve":
        out = [1, 2 * args[0], 1]
    elif kind == "sum":
        out = []
        for t in args[0]:
            out = oracle_add(out, oracle_dims(t))
    else:
        return oracle_convolve(oracle_dims(args[0]), oracle_dims(args[1]))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_sums_and_tensors_match_the_dims_oracle():
    rng = random.Random(32)
    for _ in range(60):
        tree = random_expr(rng)
        e = evaluate(tree)
        want = oracle_dims(tree)
        assert e.dims() == want, tree
        assert e.total_dim() == sum(want)
        assert e == MotiveExpr(want + (0, 0)) and hash(e) == hash(MotiveExpr(want))
    assert lefschetz(0) == unit()
    assert tensor(direct_sum([]), ck_curve(2)).dims() == ()

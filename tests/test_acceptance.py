"""Release gate: seven criteria, one test and one pass/fail line each.

Every expected value here is either pinned from an independent
computation or re-derived inline from a closed form. A criterion that
cannot be met by the implementation fails loudly with the exact
sub-check that broke; nothing is loosened to force green.
"""

import itertools
import time
from fractions import Fraction as F

import pytest

from motivix.cmlat import (
    AXIOMATIC,
    CONSISTENT,
    VIOLATES,
    build_model,
    endo_zero,
    exponent,
    is_integral,
    subset_idempotent,
    subsets_lemma_check,
    proper_nonempty_subsets,
)
from motivix.cmlat import EndoQ
from motivix.corr import build_grids, conv
from motivix.decomp import (
    EXHAUSTIVE,
    INDECOMPOSABLE,
    PROOFTRACE,
    SURVIVING_CANDIDATE,
    UNDECIDED,
    decide,
    probes_for,
)
from motivix.errors import HypothesisError
from motivix.exact import QuadInt
from motivix.fermat import (
    V111,
    V210,
    V300,
    build_c6_instance,
    c6_generator_morphisms,
    canonical_form,
    degree,
    pullback,
    rep_membership,
)
from motivix.motcalc import (
    M2TR,
    blowup_rows,
    ck_surface,
    hypersurface_ck,
    product_of_curves,
    surface_part,
)
from motivix.polyring import BiPoly, MultiNf


def _criterion(number, failures, detail=""):
    status = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    line = "criterion %d: %s%s" % (
        number,
        status,
        (" [%s]" % detail if detail and not failures else ""),
    )
    print(line)
    assert not failures, line


_C6 = []


def _c6_instance():
    if not _C6:
        _C6.append(build_c6_instance(check_degrees=False))
    return _C6[0]


def _endo(m, coeffs):
    """The endomorphism with rational entry coeffs[(row, col)], zero elsewhere."""
    rows = [
        [QuadInt(coeffs.get((r, c), F(0)), F(0), m.d) for c in range(m.g)]
        for r in range(m.g)
    ]
    return EndoQ.from_rows(rows, m.d)


def _closed_form_images(m, cand, sigma):
    """The two probe images of a candidate, summed from the criterion-1
    cell table: graph cell (i, sigma(i)) puts -1/2 per algebraic grid and
    2 for the theta grid holding it on LAMBDA at entry (sigma(i), i), and
    one minus that on XI (the two sides sum to the probe)."""
    lam, xi = {}, {}
    for i in range(m.g):
        cell = (i, sigma[i])
        coeff = F(0)
        if cell in cand.U_lambda:
            coeff -= F(1, 2)
        if cell in cand.V_lambda:
            coeff -= F(1, 2)
        if cell in cand.W_lambda:
            coeff += 2
        lam[(sigma[i], i)] = coeff
        xi[(sigma[i], i)] = 1 - coeff
    return _endo(m, lam), _endo(m, xi)


def _g2_survivor_failures(m, ve, vp):
    """What the method promises at g = 2, where the probe family is the
    identity and the one transposition S fixing no coordinate.

    Exhaustive mode must report a nontrivial survivor whose images are
    (2I, -I) under the identity and (-S, 2S) under S: all four are
    integral because I and S are, so no probe can refute it.  Prooftrace
    mode must stop with UNDECIDED at its unresolved step."""
    failures = []
    ident = _endo(m, {(0, 0): 1, (1, 1): 1})
    swap = _endo(m, {(0, 1): 1, (1, 0): 1})
    want = {
        "identity": (ident.scale(2), -ident),
        "transposition(1,2)": (-swap, swap.scale(2)),
    }
    w = ve.witness
    if ve.status != SURVIVING_CANDIDATE or w is None or not w.is_nontrivial():
        failures.append(
            "exhaustive=%s with witness %r (nontrivial SURVIVING_CANDIDATE "
            "required)" % (ve.status, w)
        )
    else:
        for p in probes_for(m):
            images = _closed_form_images(m, w, p.sigma)
            if images != want[p.name]:
                failures.append(
                    "witness images under %s: %r != %r"
                    % (p.name, images, want[p.name])
                )
            for side, image in zip(("lambda", "xi"), images):
                if not is_integral(m, image):
                    failures.append(
                        "%s image under %s not integral" % (side, p.name)
                    )
    if vp.status != UNDECIDED or not any(
        s["rule"] == "unresolved" for s in vp.trace
    ):
        failures.append(
            "prooftrace=%s (UNDECIDED with an unresolved step required)"
            % vp.status
        )
    return failures


def _degree_from_x_component(phi):
    """deg(phi) by hand from a component that is a function of x alone.

    x has degree deg_y(source) on the source (the curve is monic in y),
    so a reduced rational function of x of degree k has degree
    k * deg_y(source) there; dividing by the degree of the matching
    coordinate on the target (deg_y for u, deg_x for v) gives deg(phi).
    Every such component here has a monomial denominator c x^n, which is
    coprime to the numerator when n = 0 or the numerator's constant term
    is nonzero.  Returns None when no component qualifies."""
    target = phi.target
    for comp, on_target in ((phi.u, target.deg_y), (phi.v, target.deg_x)):
        num, den = comp.num, comp.den
        if num.deg_y > 0 or den.deg_y > 0 or len(den.c) != 1:
            continue
        if den.deg_x > 0 and num.coeff(0, 0) == 0:
            continue
        k = max(num.deg_x, den.deg_x)
        total = k * phi.source.deg_y
        if total % on_target:
            return None
        return total // on_target
    return None


def test_criterion_1_convolution_tables():
    failures = []
    models = [
        build_model(1, 1),
        build_model(1, 2, glue=[(F(1, 5), F(1, 5))]),
        build_model(2, 3, glue=[(F(1, 7),) * 3]),
        build_model(1, 4, glue=[(F(1, 5), F(1, 5), 0, 0), (0, 0, F(1, 7), F(1, 7))]),
        build_model(3, 5, glue=[(F(1, 5),) * 5]),
    ]
    checked = 0
    t0 = time.monotonic()
    for m in models:
        grids = build_grids(m)
        zero = endo_zero(m)
        for probe in probes_for(m):
            for i in range(m.g):
                for j in range(m.g):
                    on_graph = probe.sigma[i] == j
                    for grid, factor in (
                        (grids.theta, F(2)),
                        (grids.a1, F(-1, 2)),
                        (grids.a2, F(-1, 2)),
                    ):
                        got = conv(probe.endo, grid[i][j])
                        want = (
                            _endo(m, {(j, i): factor}) if on_graph else zero
                        )
                        if got != want:
                            failures.append(
                                "g=%d probe %s cell (%d,%d): %r != %r"
                                % (m.g, probe.name, i + 1, j + 1, got, want)
                            )
                        checked += 1
    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        failures.append("conv tables took %.1fs" % elapsed)
    _criterion(1, failures, "%d cells over %d models" % (checked, len(models)))


def test_criterion_2_subsets_lemma():
    failures = []
    m = build_model(1, 6, glue=[(F(1, 5),) * 6])
    subsets = [
        frozenset(c)
        for r in range(7)
        for c in itertools.combinations(range(6), r)
    ]
    assert len(subsets) == 64
    violations = 0
    t0 = time.monotonic()
    for A in subsets:
        for B in subsets:
            if subsets_lemma_check(m, A, B) == VIOLATES:
                violations += 1
    elapsed = time.monotonic() - t0
    if violations:
        failures.append("%d violating pairs" % violations)
    if elapsed >= 60:
        failures.append("g=6 scan took %.1fs (budget 60s)" % elapsed)
    # low exponents must trip the precondition, never pass silently
    for bad in (
        build_model(1, 2, glue=[(F(1, 3), F(1, 3))]),
        build_model(
            1, 3, mode=AXIOMATIC, exponents=(4, 2, 5), assume_proper_ge4=True
        ),
    ):
        try:
            subsets_lemma_check(bad, frozenset([0]), frozenset())
            failures.append("no HypothesisError on a low-exponent model")
        except HypothesisError:
            pass
    _criterion(2, failures, "4096 pairs in %.1fs" % elapsed)


def test_criterion_3_exponent_oracle():
    failures = []
    models = [
        build_model(1, 2, glue=[(F(1, 5), F(1, 5))]),
        build_model(2, 3, glue=[(F(1, 7),) * 3]),
        build_model(1, 3, glue=[(F(1, 4), F(1, 2), F(1, 4))]),
        build_model(1, 4, glue=[(F(1, 5),) * 4]),
        build_model(3, 4, glue=[(F(1, 5), F(1, 5), 0, 0), (0, 0, F(1, 7), F(1, 7))]),
    ]
    checked = 0
    for mi, m in enumerate(models):
        for K in proper_nonempty_subsets(m.g):
            brute = None
            e_K = subset_idempotent(m, K)
            for t in range(1, 301):
                if is_integral(m, e_K.scale(t)):
                    brute = t
                    break
            got = exponent(m, K)
            if got != brute:
                failures.append(
                    "model %d subset %r: oracle %r != brute %r"
                    % (mi, sorted(i + 1 for i in K), got, brute)
                )
            checked += 1
    _criterion(3, failures, "%d subsets across %d lattices" % (checked, len(models)))


def test_criterion_4_decision_procedure():
    failures = []
    lattice_models = [
        ("g=1", build_model(1, 1)),
        ("g=2 glue 1/5", build_model(1, 2, glue=[(F(1, 5), F(1, 5))])),
        ("g=3 glue 1/5", build_model(1, 3, glue=[(F(1, 5),) * 3])),
        ("g=4 glue 1/5", build_model(2, 4, glue=[(F(1, 5),) * 4])),
        (
            "g=4 two-generator",
            build_model(
                1,
                4,
                glue=[(F(1, 5),) * 4, (F(1, 7),) * 4],
            ),
        ),
    ]
    g4_elapsed = 0.0
    for label, m in lattice_models:
        t0 = time.monotonic()
        ve = decide(m, EXHAUSTIVE)
        dt = time.monotonic() - t0
        vp = decide(m, PROOFTRACE)
        if m.g == 4:
            g4_elapsed = max(g4_elapsed, dt)
        if m.g == 2:
            failures.extend(
                "%s: %s" % (label, f) for f in _g2_survivor_failures(m, ve, vp)
            )
        elif not (ve.status == vp.status == INDECOMPOSABLE):
            failures.append(
                "%s: exhaustive=%s, prooftrace=%s (INDECOMPOSABLE required)"
                % (label, ve.status, vp.status)
            )
    if g4_elapsed >= 600:
        failures.append("g=4 exhaustive took %.1fs (budget 600s)" % g4_elapsed)
    inst = _c6_instance()
    t0 = time.monotonic()
    vc = decide(inst.model, PROOFTRACE)
    c6_elapsed = time.monotonic() - t0
    if vc.status != INDECOMPOSABLE:
        failures.append("genus-10 axiomatic instance: %s" % vc.status)
    if c6_elapsed >= 1.0:
        failures.append("g=10 symbolic run took %.3fs (budget 1s)" % c6_elapsed)
    _criterion(
        4,
        failures,
        "g=4 exhaustive %.1fs, g=10 symbolic %.3fs" % (g4_elapsed, c6_elapsed),
    )


def test_criterion_5_fermat_computations():
    failures = []
    phi1, phi2, phi3 = c6_generator_morphisms()
    x, y = BiPoly.var_x(), BiPoly.var_y()
    alpha = MultiNf.gen("cbrt4")
    expected = (
        ("first pullback", phi1, -2 * x * y**2),
        ("second pullback", phi2, BiPoly.const(-(alpha**2)) * y**3),
        ("third pullback", phi3, 2 * x * y),
    )
    for label, phi, want in expected:
        got = pullback(phi, canonical_form(phi.target))
        if got != want:
            failures.append("%s: %r" % (label, got))
    # phi1: -x^2 gives 6*2/2; phi2: (x^6 - 1)/(2x^3) gives 6*6/3;
    # phi3: x^2 gives 6*2/3
    by_hand = tuple(_degree_from_x_component(phi) for phi in (phi1, phi2, phi3))
    if by_hand != (6, 12, 4):
        failures.append("hand degrees %r != (6, 12, 4)" % (by_hand,))
    degrees = (degree(phi1), degree(phi2), degree(phi3))
    if degrees != by_hand:
        failures.append("degrees %r != %r by hand" % (degrees, by_hand))
    # monomial counts of the three spans: xyz, the mixed squares, the cubes
    counts = {V111: 0, V210: 0, V300: 0}
    for i in range(4):
        for j in range(4 - i):
            cls = rep_membership(BiPoly.monomial(i, j))
            if cls in counts:
                counts[cls] += 1
    if (counts[V111], counts[V210], counts[V300]) != (1, 6, 3):
        failures.append("span dimensions %r" % (counts,))
    inst = _c6_instance()
    if inst.report["form_ranks"] != {"g1": 6, "g2": 3, "total": 10}:
        failures.append("form ranks %r" % (inst.report["form_ranks"],))
    if inst.report["dim_m2_tr"] != 200:
        failures.append("dim_m2_tr %r != 200" % inst.report["dim_m2_tr"])
    _criterion(5, failures, "degrees computed %r" % (degrees,))


def test_criterion_6_motive_accounting():
    failures = []
    for g in range(1, 21):
        rep = product_of_curves(g)[1]
        if rep["m2_tr"] != 2 * g * g or rep["m2_alg"] != 2 * g * g + 2:
            failures.append("product accounting wrong at g=%d" % g)
    if surface_part(M2TR, 6, 4, 0).dims() != (0, 0, 2):
        failures.append("surface (b2, rho) = (6, 4) transcendental part != 2")
    if surface_part(M2TR, 106, 86, 0).dims() != (0, 0, 20):
        failures.append("rho-maximal sextic surface transcendental part != 20")
    ck_surface(6, 4, 0)  # validates the full six-part shape
    ring = hypersurface_ck(4, 3)
    projs = [ring.projector(j) for j in ring.off_middle_indices()]
    mid = ring.middle()
    for a in range(len(projs)):
        if projs[a].compose(projs[a]) != projs[a]:
            failures.append("projector %d not idempotent" % a)
        for b in range(a + 1, len(projs)):
            if not projs[a].compose(projs[b]).is_zero():
                failures.append("projectors %d, %d not orthogonal" % (a, b))
    if mid.compose(mid) != mid:
        failures.append("middle projector not idempotent")
    total = mid
    for p in projs:
        total = total + p
    if total != ring.delta():
        failures.append("projectors do not sum to the diagonal")
    if ring.middle_dim() != 23:
        failures.append("middle dimension %d != 23" % ring.middle_dim())
    rows = blowup_rows([(6, 4, 2)], [2], 1)
    if rows["m0"] != [0, 0, 1, 0, 1, 0, 1]:
        failures.append("point row %r" % (rows["m0"],))
    if rows["m1"] != [0, 0, 1, 4, 2, 4, 1]:
        failures.append("curve row %r" % (rows["m1"],))
    if rows["m2"] != [0, 0, 1, 4, 6, 4, 1]:
        failures.append("surface row %r" % (rows["m2"],))
    _criterion(6, failures, "g up to 20, projectors re-verified")


def test_criterion_7_property_suites():
    import test_properties as props

    failures = []
    suites = (
        ("rosati", props.check_rosati_involution_and_antihomomorphism),
        ("tensor-associativity", props.check_tensor_composition_associativity),
        ("probe-image-sum", props.check_probe_image_sum_soundness),
        ("refutation-swap", props.check_refutation_swap_symmetry),
    )
    for name, fn in suites:
        try:
            fn()
        except AssertionError as exc:
            failures.append("%s suite failed: %s" % (name, exc))
    _criterion(7, failures, "4 x %d randomized cases" % props.CASES)

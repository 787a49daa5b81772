import gc
import hashlib
import itertools
import json
import random
import time
import weakref
from fractions import Fraction as F

import pytest

from motivix import cmlat, decomp
from motivix.cmlat import (
    AXIOMATIC,
    CONSISTENT,
    EndoQ,
    PermEndoSpec,
    build_model,
    endo_identity,
    full_grid,
    is_integral,
    perm_endo,
    rosati,
    subset_idempotent,
    subsets_lemma_check,
    verify_proper_exponents,
)
from motivix.decomp import (
    B_CELLS,
    EXHAUSTIVE,
    INDECOMPOSABLE,
    PROOFTRACE,
    SURVIVING_CANDIDATE,
    UNDECIDED,
    Candidate,
    _images_direct,
    candidate_to_dict,
    decide,
    eval_probe,
    probes_for,
    refute,
    verdict_to_dict,
)
from motivix.errors import (
    CandidateError,
    HypothesisError,
    InvalidInput,
    PreconditionError,
    UnsupportedQuery,
    VerificationError,
)
from motivix.fermat import build_c6_instance


def sym_model(g, p=5):
    return build_model(1, g, glue=[(F(1, p),) * g]) if g > 1 else build_model(1, 1)


def all_cells(g):
    return frozenset((i, j) for i in range(g) for j in range(g))


def symmetric_candidate(g):
    # whole diagonal transcendental on LAMBDA, everything off-diagonal on XI,
    # both algebraic grids fully on LAMBDA
    return Candidate(
        g,
        all_cells(g),
        all_cells(g),
        frozenset((i, i) for i in range(g)),
    )


def random_candidate(rng, g):
    cells = sorted(all_cells(g))
    pick = lambda: frozenset(c for c in cells if rng.random() < 0.5)
    return Candidate(g, pick(), pick(), pick())


def test_probe_counts():
    assert len(probes_for(sym_model(2))) == 2
    assert len(probes_for(sym_model(3))) == 4
    assert len(probes_for(sym_model(4))) == 7
    c6 = build_model(
        3,
        10,
        mode=AXIOMATIC,
        exponents=(6, 6, 6, 6, 6, 6, 24, 24, 24, 4),
        assume_proper_ge4=True,
    )
    probes = probes_for(c6)
    assert len(probes) == 46
    names = [p.name for p in probes]
    assert names[0] == "identity"
    assert names[1] == "transposition(1,2)"
    assert len(set(names)) == 46


def test_probe_endos():
    m = sym_model(3)
    probes = probes_for(m)
    assert probes[0].endo == endo_identity(m)
    swap12 = next(p for p in probes if p.name == "transposition(1,2)")
    assert swap12.endo.entry(0, 1).a == 1
    assert swap12.endo.entry(1, 0).a == 1
    assert swap12.endo.entry(2, 2).a == 1
    assert swap12.endo.entry(0, 0).a == 0
    for p in probes:
        assert p.endo == perm_endo(m, PermEndoSpec(p.sigma, full_grid(3)))
        assert p.endo is p.endo  # built on first access, then kept


def verdict_digest(v):
    text = json.dumps(verdict_to_dict(v), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_probes_build_their_endo_only_on_use(monkeypatch):
    # prooftrace and the lattice gate read sigma only; exhaustive search
    # convolves with a probe only in refute's re-check of its witness
    builds = []
    real = decomp.perm_endo
    monkeypatch.setattr(
        decomp, "perm_endo", lambda m, spec: builds.append(spec.sigma) or real(m, spec)
    )
    c6 = build_c6_instance(check_degrees=False).model
    runs = (
        (sym_model(4), PROOFTRACE, INDECOMPOSABLE,
         "9fc66ead98e9a31c5a4ec33643f54e05e977dfef89e2f377cbb00cba7f955439"),
        (c6, PROOFTRACE, INDECOMPOSABLE,
         "101ef579feebd7647778cc81f7516f479eaab14c28a1b447c47806c90e49897f"),
        (sym_model(3), EXHAUSTIVE, INDECOMPOSABLE,
         "c096b60dea975b0d752019e6eb5ce300a40b6a7486da86f18e954c7ba0272da2"),
    )
    for m, mode, status, digest in runs:
        v = decide(m, mode)
        assert v.status == status
        assert builds == []
        # the serialized verdict is the one eager probes gave
        assert verdict_digest(v) == digest
    v = decide(sym_model(2), EXHAUSTIVE)
    assert v.status == SURVIVING_CANDIDATE
    assert builds == [(0, 1), (1, 0)]
    assert verdict_digest(v) == (
        "7ed9ba5f594921fc86811967d0e0e857d5228a1193c2971a2bdeb91c5fe14071"
    )
    # the witness re-check still checks the side sum
    monkeypatch.setattr(decomp, "rosati", lambda x, m: rosati(x, m).scale(2))
    with pytest.raises(VerificationError, match="sum to rosati"):
        decide(sym_model(2), EXHAUSTIVE)


def test_eval_probe_identity_diagonal():
    # U = V = W on one diagonal cell: the half-coefficients cancel and the
    # identity probe returns exactly that primitive idempotent
    m = sym_model(2)
    c = Candidate(2, frozenset({(0, 0)}), frozenset({(0, 0)}), frozenset({(0, 0)}))
    ident = probes_for(m)[0]
    lam, xi = eval_probe(c, ident, m)
    assert lam == subset_idempotent(m, [0])
    assert xi == endo_identity(m) - subset_idempotent(m, [0])


def test_eval_probe_does_not_keep_the_model_alive():
    # the grids eval_probe builds are cached on the model itself, so the
    # model is freed once the caller drops it
    m = sym_model(2)
    c = Candidate(2, frozenset({(0, 0)}), frozenset(), frozenset())
    eval_probe(c, probes_for(m)[0], m)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def d7_model(g):
    # maximal order of Q(sqrt(-7)), glue (1/5 + 2/5 sqrt(-7), ...) and (1/7, ...)
    return build_model(
        7, g, glue=[((F(1, 5), F(2, 5)),) * g, (F(1, 7),) * g], maximal_order=True
    )


def monomial_endo(m, sigma, nums):
    """The endomorphism with nums[i] / 2 at (sigma[i], i), zeros elsewhere."""
    rows = [[F(0)] * m.g for _ in range(m.g)]
    for i, c in enumerate(nums):
        rows[sigma[i]][i] = F(c, 2)
    return EndoQ.from_rows(rows, m.d)


def graph_bits(cells, sigma):
    """The 0/1 membership of the graph cells (i, sigma(i)) in cells."""
    return tuple(int(cell in cells) for cell in enumerate(sigma))


def test_eval_probe_matches_direct_form():
    rng = random.Random(7)
    for m in (sym_model(2), sym_model(3), sym_model(4), d7_model(3), sym_model(5)):
        probes = probes_for(m)
        for _ in range(10 if m.g < 5 else 3):
            c = random_candidate(rng, m.g)
            for p in probes:
                lam, xi = eval_probe(c, p, m)
                dlam, dxi = _images_direct(
                    graph_bits(c.U_lambda, p.sigma),
                    graph_bits(c.V_lambda, p.sigma),
                    graph_bits(c.W_lambda, p.sigma),
                )
                assert all(isinstance(n, int) for n in dlam + dxi)
                assert lam == monomial_endo(m, p.sigma, dlam)
                assert xi == monomial_endo(m, p.sigma, dxi)


def test_eval_probe_sum_is_rosati():
    rng = random.Random(11)
    m = sym_model(3)
    for p in probes_for(m):
        for _ in range(5):
            c = random_candidate(rng, 3)
            lam, xi = eval_probe(c, p, m)
            assert lam + xi == rosati(p.endo, m)


def test_probe_locality():
    # cells off the probe's graph never change the images
    m = sym_model(3)
    probes = probes_for(m)
    swap12 = next(p for p in probes if p.name == "transposition(1,2)")
    base = Candidate(3, frozenset(), frozenset(), frozenset({(0, 1)}))
    # (0, 2) and (1, 1) are off the graph of the (1 2) transposition
    for extra in ((0, 2), (1, 1), (2, 0), (2, 1)):
        bumped = Candidate(
            3,
            base.U_lambda | {extra},
            base.V_lambda,
            base.W_lambda | {extra},
        )
        assert eval_probe(base, swap12, m) == eval_probe(bumped, swap12, m)
    # a graph cell does change them
    on_graph = Candidate(3, base.U_lambda, base.V_lambda, base.W_lambda | {(1, 0)})
    assert eval_probe(base, swap12, m) != eval_probe(on_graph, swap12, m)


def test_g2_symmetric_candidate_survives():
    m = sym_model(2)
    c = symmetric_candidate(2)
    assert c.is_nontrivial()
    res = refute(c, m)
    assert not res.refuted
    # every recorded query was integral
    assert all(s["integral"] for s in res.steps)


def test_g3_symmetric_analogue_refuted():
    m = sym_model(3)
    c = symmetric_candidate(3)
    res = refute(c, m)
    assert res.refuted
    assert res.steps[-1]["integral"] is False
    assert res.steps[-1]["rule"] == "transposition-case"


def test_refute_swap_symmetry():
    rng = random.Random(23)
    m = sym_model(3)
    probes = probes_for(m)
    for _ in range(8):
        c = random_candidate(rng, 3)
        assert refute(c, m, probes).refuted == refute(c.swap(), m, probes).refuted


def test_candidate_swap_and_nontrivial():
    c = symmetric_candidate(2)
    assert c.swap().swap() == c
    assert c.swap().W_lambda == frozenset({(0, 1), (1, 0)})
    trivial_all = Candidate(2, frozenset(), frozenset(), all_cells(2))
    trivial_none = Candidate(2, frozenset(), frozenset(), frozenset())
    assert not trivial_all.is_nontrivial()
    assert not trivial_none.is_nontrivial()
    assert c.swap().is_nontrivial()


def test_candidate_validation():
    with pytest.raises(CandidateError):
        Candidate(2, frozenset({(0, 2)}), frozenset(), frozenset())
    with pytest.raises(CandidateError):
        Candidate(2, frozenset({(0,)}), frozenset(), frozenset())
    with pytest.raises(CandidateError):
        Candidate(0, frozenset(), frozenset(), frozenset())
    with pytest.raises(CandidateError):
        Candidate(2, frozenset(), frozenset(), frozenset(), frozenset({(1, 1)}))
    # the eight admissible outer slots are fine
    Candidate(2, frozenset(), frozenset(), frozenset(), frozenset(B_CELLS))


def test_decide_agreement_small_g():
    g6 = build_model(2, 6, glue=[(F(1, 7),) * 6])
    for m in (sym_model(1), sym_model(3), sym_model(4), sym_model(5), d7_model(5), g6):
        ve = decide(m, EXHAUSTIVE)
        vp = decide(m, PROOFTRACE)
        assert ve.status == INDECOMPOSABLE
        assert vp.status == INDECOMPOSABLE
        assert ve.witness is None and vp.witness is None


def test_exhaustive_kill_counts_pinned():
    # the identity leaves two diagonal assignments open; on both, every
    # transposition choice that survives keeps the transcendental grid on
    # one side
    for m, total in ((sym_model(3), 256), (d7_model(4), 2048), (sym_model(5), 16384)):
        notes = [s["note"] for s in decide(m, EXHAUSTIVE).trace]
        assert "identity probe refuted %d of %d diagonal assignments " \
            "(side swap quotiented out)" % (total - 2, total) in notes
        assert "transposition probes refuted 0 further diagonal assignments; " \
            "2 admitted only candidates with all transcendental cells on " \
            "one side" in notes


def test_decide_two_generator_lattice():
    m = build_model(2, 3, glue=[(F(1, 5),) * 3, (F(1, 7),) * 3])
    assert m.atom_exponents == (35, 35, 35)
    assert decide(m, EXHAUSTIVE).status == INDECOMPOSABLE
    assert decide(m, PROOFTRACE).status == INDECOMPOSABLE


def test_decide_g2_exhaustive_finds_survivor():
    m = sym_model(2)
    v = decide(m, EXHAUSTIVE)
    assert v.status == SURVIVING_CANDIDATE
    assert v.witness is not None and v.witness.is_nontrivial()
    assert not refute(v.witness, m).refuted
    # deterministic witness
    v2 = decide(m, EXHAUSTIVE)
    assert v2.witness == v.witness


def test_decide_g2_prooftrace_undecided():
    m = sym_model(2)
    v = decide(m, PROOFTRACE)
    assert v.status == UNDECIDED
    assert v.witness is None
    assert any(s["rule"] == "unresolved" for s in v.trace)


def test_c6_axiomatic_prooftrace():
    c6 = build_model(
        3,
        10,
        mode=AXIOMATIC,
        exponents=(6, 6, 6, 6, 6, 6, 24, 24, 24, 4),
        assume_proper_ge4=True,
    )
    t0 = time.time()
    v = decide(c6, PROOFTRACE)
    assert time.time() - t0 < 1.0
    assert v.status == INDECOMPOSABLE
    assert len(v.probes) == 46
    rules = [s["rule"] for s in v.trace]
    assert "subsets-lemma" in rules
    assert "transposition-case" in rules
    assert rules[0] == "trusted-reduction"


def test_hypothesis_gate():
    m_small = build_model(1, 2, glue=[(F(1, 3), F(1, 3))])
    assert m_small.atom_exponents == (3, 3)
    for mode in (EXHAUSTIVE, PROOFTRACE):
        with pytest.raises(HypothesisError):
            decide(m_small, mode)
    bad_axiomatic = build_model(1, 3, mode=AXIOMATIC, exponents=(6, 3, 6))
    with pytest.raises(HypothesisError):
        decide(bad_axiomatic, PROOFTRACE)


def test_axiomatic_g1_is_vacuous_like_the_lattice():
    # {1} is not a proper subset, so the exponent hypothesis holds at g = 1
    # in both modes, and prooftrace closes on the vacuous notes
    lat = decide(build_model(1, 1), PROOFTRACE)
    ax = decide(build_model(1, 1, mode=AXIOMATIC, exponents=(1,)), PROOFTRACE)
    assert ax.status == lat.status == INDECOMPOSABLE
    assert [s["rule"] for s in ax.trace] == [s["rule"] for s in lat.trace] == [
        "trusted-reduction", "hypothesis", "probe-validity", "vacuous", "conclusion"]
    assert ax.trace[3:] == lat.trace[3:]


def test_axiomatic_gate_notes_claim_no_check_at_g1():
    # at g = 1 the one declared exponent is 1 and is not checked: the note
    # says the hypothesis holds vacuously; from g = 2 the notes are as before
    one = decide(build_model(1, 1, mode=AXIOMATIC, exponents=(1,)), PROOFTRACE)
    assert one.trace[1] == {
        "probe": None,
        "rule": "hypothesis",
        "note": "one atom has no proper nonempty subset; the exponent "
        "hypothesis holds vacuously",
    }
    for g, n in ((2, 4), (3, 5)):
        m = build_model(1, g, mode=AXIOMATIC, exponents=(n,) * g, assume_proper_ge4=True)
        assert [s["note"] for s in decide(m, PROOFTRACE).trace[1:3]] == [
            "declared atom exponents verified >= 4; union exponents >= 4 "
            "assumed with the declared data",
            "probe integrality holds in the source of the declared data; assumed",
        ]


def test_gate_notes_claim_no_probe_at_g1():
    # one atom has no transposition probe: in both modes the probe-validity
    # note says so instead of describing probes; from g = 2 it is as before
    for m in (build_model(1, 1), build_model(1, 1, mode=AXIOMATIC, exponents=(1,))):
        assert decide(m, PROOFTRACE).trace[2] == {
            "probe": None,
            "rule": "probe-validity",
            "note": "one atom has no transposition probe; probe integrality "
            "holds vacuously",
        }
    lat = build_model(1, 2, glue=[(F(1, 5), F(1, 5))])
    assert decide(lat, PROOFTRACE).trace[2]["note"] == (
        "all transposition probes and their Rosati transforms are integral "
        "(verified on the lattice)"
    )


def test_gate_and_subsets_lemma_share_the_exponent_check():
    # an AXIOMATIC model that does not declare union exponents >= 4 fails
    # the gate and the lemma with one message; declaring them passes both
    m = build_model(1, 3, mode=AXIOMATIC, exponents=(5, 5, 5))
    with pytest.raises(HypothesisError) as gate:
        decide(m, PROOFTRACE)
    with pytest.raises(PreconditionError) as lemma:
        subsets_lemma_check(m, [0], [1])
    assert type(gate.value) is HypothesisError
    assert str(gate.value) == str(lemma.value) == cmlat.exponent_failure(m)
    assert "does not certify exponents >= 4 for unions" in str(gate.value)
    flagged = build_model(1, 3, mode=AXIOMATIC, exponents=(5, 5, 5), assume_proper_ge4=True)
    assert cmlat.exponent_failure(flagged) is None
    assert decide(flagged, PROOFTRACE).status == INDECOMPOSABLE
    assert subsets_lemma_check(flagged, [0], [1]) == CONSISTENT
    # a failing atom reads the same from both, in the gate's words
    bad = build_model(1, 3, mode=AXIOMATIC, exponents=(6, 3, 6), assume_proper_ge4=True)
    with pytest.raises(HypothesisError) as gate:
        decide(bad, PROOFTRACE)
    with pytest.raises(PreconditionError) as lemma:
        subsets_lemma_check(bad, [0], [1])
    assert str(gate.value) == str(lemma.value) == (
        "exponent hypothesis fails: atom 2 has exponent 3 < 4")


def test_probe_validity_gate():
    # swapping the coordinates does not preserve this lattice, so the
    # transposition probe is not an endomorphism of the model
    m = build_model(1, 2, glue=[(F(1, 5), F(2, 5))])
    assert m.atom_exponents == (5, 5)
    probes = probes_for(m)
    assert not is_integral(m, probes[1].endo)
    with pytest.raises(HypothesisError):
        decide(m, EXHAUSTIVE)
    with pytest.raises(HypothesisError):
        decide(m, PROOFTRACE)


def test_hypothesis_gate_messages():
    # exponent failures name the first bad K in size-then-lex order and win
    # over a failing probe; a probe-only failure names its transposition
    glue_3 = [(F(1, 5), F(1, 5), 0)]  # n_3 = 1, probes (1,3), (2,3) fail
    glue_12 = [(F(1, 5), F(1, 5), 0, 0), (0, 0, F(1, 5), F(1, 5))]
    sym_12 = sorted(set(itertools.permutations((F(1, 4),) * 3 + (F(3, 4),))))
    cases = (
        (build_model(1, 2, glue=[(F(1, 3), F(1, 3))]),
         "exponent hypothesis fails: n_[1] = 3 < 4"),
        (build_model(1, 3, glue=glue_3),
         "exponent hypothesis fails: n_[3] = 1 < 4"),
        (build_model(1, 4, glue=glue_12),
         "exponent hypothesis fails: n_[1, 2] = 1 < 4"),
        (build_model(1, 4, glue=sym_12),
         "exponent hypothesis fails: n_[1, 2] = 2 < 4"),
        (build_model(1, 2, glue=[(F(1, 5), F(2, 5))]),
         "probe transposition(1,2) is not an integral endomorphism of this model"),
        (build_model(1, 3, glue=[(F(1, 5), F(1, 5), F(2, 5))]),
         "probe transposition(1,3) is not an integral endomorphism of this model"),
    )
    for m, message in cases:
        for mode in (EXHAUSTIVE, PROOFTRACE):
            with pytest.raises(HypothesisError) as err:
                decide(m, mode)
            assert str(err.value) == message
        with pytest.raises(HypothesisError) as err:
            refute(Candidate(m.g, frozenset(), frozenset(), frozenset()), m)
        assert str(err.value) == message


def count_probe_queries(monkeypatch):
    """Record the sigma of every swap query, the permutation matrix of a
    transposition asked through cmlat.monomial_is_integral, which every
    lattice query of cmlat and decomp goes through."""
    calls = []
    real = cmlat.monomial_is_integral

    def counted(m, sigma, nums, den):
        if den == 1 and list(sigma) != list(range(m.g)) and all(c == 1 for c in nums):
            calls.append(tuple(sigma))
        return real(m, sigma, nums, den)

    monkeypatch.setattr(cmlat, "monomial_is_integral", counted)
    return calls


def test_gate_asks_two_generators_only_when_they_pass(monkeypatch):
    # (1 2) and the g-cycle generate S_g, so a passing model needs no
    # other swap query, and the exponent check reuses their answer; at
    # g = 2 the two are one permutation, asked once
    calls = count_probe_queries(monkeypatch)
    m = sym_model(8)
    assert decide(m, PROOFTRACE).status == INDECOMPOSABLE
    assert calls == [decomp._transposition(8, 0, 1), (1, 2, 3, 4, 5, 6, 7, 0)]
    # later checks on the same model ask none of them again
    assert verify_proper_exponents(m) is None
    assert subsets_lemma_check(m, [0], [1]) == CONSISTENT
    assert decide(m, EXHAUSTIVE).status == INDECOMPOSABLE
    assert len(calls) == 2
    del calls[:]
    m = sym_model(2)
    assert decide(m, PROOFTRACE).status == UNDECIDED
    assert decide(m, EXHAUSTIVE).status == SURVIVING_CANDIDATE
    assert calls == [(1, 0)]


def test_decide_asks_a_handful_of_kernel_queries(monkeypatch):
    # at g = 64 two swap generators, the exponent n_1 and the swap step
    # r, and in exhaustive mode the diagonals of the passing classes; at
    # g = 2 one swap and n_1, since the gate needs no r there
    real = cmlat.monomial_is_integral
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cmlat, "monomial_is_integral", counted)
    for g, mode, want in ((64, EXHAUSTIVE, 7), (64, PROOFTRACE, 5), (2, PROOFTRACE, 3)):
        del calls[:]
        decide(sym_model(g), mode)
        assert len(calls) == want, (g, mode)


def test_gate_names_the_first_failing_probe_of_the_full_scan():
    rng = random.Random(20261019)
    models = [
        build_model(1, 3, glue=[(F(1, 5), F(1, 5), F(2, 5))]),
        build_model(2, 5, glue=[(F(1, 5),) * 4 + (F(2, 5),)]),
        build_model(1, 6, glue=[(F(2, 5),) + (F(1, 5),) * 5]),
    ]
    for g in (3, 4, 5, 6, 7, 8):
        n = rng.choice((5, 7, 11))
        models.append(build_model(rng.choice((1, 2, 3)), g,
                                  glue=[[F(rng.randrange(1, n), n) for _ in range(g)]]))
    named = 0
    for m in models:
        bad = [p.name for p in probes_for(m) if not p.is_identity
               and not (is_integral(m, p.endo) and is_integral(m, rosati(p.endo, m)))]
        assert bad, m
        with pytest.raises(HypothesisError) as err:
            decide(m, PROOFTRACE)
        if "probe" in str(err.value):
            named += 1
            assert str(err.value) == (
                "probe %s is not an integral endomorphism of this model" % bad[0])
    assert named >= 5


def test_gate_skips_the_subset_scan_above_g_10(monkeypatch):
    # a failing probe at g <= 10 scans all 2^g - 2 subsets so that an
    # exponent failure is reported first; above g = 10 the probe is named
    # without that scan
    def no_scan(m):
        raise AssertionError("the gate scanned every subset")

    monkeypatch.setattr(decomp, "exponent_failure", no_scan)
    m = build_model(1, 24, glue=[(F(1, 5),) * 23 + (F(2, 5),)])
    with pytest.raises(HypothesisError) as err:
        decide(m, PROOFTRACE)
    assert str(err.value) == (
        "probe transposition(1,24) is not an integral endomorphism of this model")
    m = build_model(1, 12, glue=[(F(1, 5),) * 11 + (F(2, 5),)])
    for mode in (PROOFTRACE, EXHAUSTIVE):
        with pytest.raises(HypothesisError, match=r"probe transposition\(1,12\)"):
            decide(m, mode)


def test_decide_input_validation():
    m = sym_model(2)
    with pytest.raises(InvalidInput):
        decide(m, "GUESS")
    # exhaustive search serves every g the models allow: 21 is decided,
    # and 65 is refused when the model is built
    v = decide(sym_model(21), EXHAUSTIVE)
    assert v.status == INDECOMPOSABLE and v.witness is None
    with pytest.raises(InvalidInput, match="MAX_G = 64"):
        sym_model(65)
    ax = build_model(1, 3, mode=AXIOMATIC, exponents=(5, 5, 5), assume_proper_ge4=True)
    with pytest.raises(UnsupportedQuery):
        decide(ax, EXHAUSTIVE)


def test_candidate_serialization():
    c = symmetric_candidate(3)
    d = candidate_to_dict(c)
    assert d["w_lambda"] == [[1, 1], [2, 2], [3, 3]]


def test_verdict_serialization():
    m = sym_model(2)
    v = decide(m, EXHAUSTIVE)
    d = verdict_to_dict(v)
    assert d["status"] == SURVIVING_CANDIDATE
    assert d["mode"] == "exhaustive"
    assert d["g"] == 2
    assert d["probes"] == ["identity", "transposition(1,2)"]
    assert d["witness"]["g"] == 2
    query_steps = [s for s in d["steps"] if s.get("query") is not None]
    assert query_steps, "surviving verdicts carry the witness's probe record"
    for s in query_steps:
        assert set(s) >= {"probe", "query", "integral", "rule"}
        assert s["integral"] is True
    json.dumps(d, sort_keys=True)  # json-safe end to end
    dp = verdict_to_dict(decide(m, PROOFTRACE))
    json.dumps(dp, sort_keys=True)
    assert dp["witness"] is None

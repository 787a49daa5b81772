"""The class search of decide(EXHAUSTIVE) against two slower oracles.

`ordered_decide` walks all 2^(3g-1) diagonal masks in (wm, um, vm) order
behind the full hypothesis gate (every proper subset exponent, then each
transposition probe and its Rosati transform as EndoQs). It is the
oracle for g <= 6. `type_orbit_exhaustive` walks one S_g orbit of
(w, u, v) type multisets at a time, C(g + 7, 7) of them, and serves as
the oracle up to g = 8. `class_walk` puts every class of c values to the
2g x 2g kernel, C(g + 5, 5) - C(g + 2, 2) of them, as the search did
before it built only the congruent ones; it is the oracle up to g = 20.
Beyond that, exhaustive is checked against prooftrace.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from motivix.cmlat import (
    build_model,
    diagonal_is_integral,
    diagonal_step,
    first_bad_swap,
    is_integral,
    monomial_is_integral,
    rosati,
    swap_is_integral,
    verify_proper_exponents,
)
from motivix.decomp import (
    EXHAUSTIVE,
    INDECOMPOSABLE,
    PROOFTRACE,
    SURVIVING_CANDIDATE,
    TRUSTED_REDUCTION,
    Verdict,
    _build_witness,
    _class_weight,
    _CS,
    _images_direct,
    _materialize_choice,
    _TYPES,
    _decide_exhaustive,
    _masks,
    _note,
    _pair_survivors,
    _passing_classes,
    _rests,
    _type_splits,
    decide,
    probes_for,
    refute,
    verdict_to_dict,
)
from motivix.errors import HypothesisError, PreconditionError, VerificationError

CLASS_NUMBER_ONE = (1, 2, 3, 7, 11, 19, 43, 67, 163)


def full_gate(m, probes, trace):
    bad = verify_proper_exponents(m)
    if bad is not None:
        K, n = bad
        raise HypothesisError(
            "exponent hypothesis fails: n_%r = %d < 4" % (sorted(i + 1 for i in K), n)
        )
    trace.append(
        {
            "probe": None,
            "rule": "hypothesis",
            "note": "every proper nonempty subset has exponent >= 4 "
            "(verified on the lattice)",
        }
    )
    for p in probes:
        if p.is_identity:
            continue
        if not (is_integral(m, p.endo) and is_integral(m, rosati(p.endo, m))):
            raise HypothesisError(
                "probe %s is not an integral endomorphism of this model" % p.name
            )
    trace.append(
        {
            "probe": None,
            "rule": "probe-validity",
            "note": "all transposition probes and their Rosati "
            "transforms are integral (verified on the lattice)",
        }
    )


def ordered_exhaustive(m, probes):
    g = m.g
    integral_memo = {}

    def ok(sigma, nums):
        key = (sigma, nums)
        got = integral_memo.get(key)
        if got is None:
            got = integral_memo[key] = monomial_is_integral(m, sigma, nums, 2)
        return got

    full = (1 << g) - 1
    pairs = [(a, b) for a in range(g) for b in range(a + 1, g)]
    pair_memo = {}
    diag_bits = [tuple(mask >> i & 1 for i in range(g)) for mask in range(full + 1)]

    def pair_survivors(a, b, um, vm, wm):
        fmask = full & ~((1 << a) | (1 << b))
        key = (a, b, um & fmask, vm & fmask, wm & fmask)
        got = pair_memo.get(key)
        if got is not None:
            return got
        sigma = list(range(g))
        sigma[a], sigma[b] = b, a
        sigma = tuple(sigma)
        u, v, w = list(diag_bits[um]), list(diag_bits[vm]), list(diag_bits[wm])
        survivors = []
        for bits in itertools.product((1, 0), repeat=6):
            u[a], u[b], v[a], v[b], w[a], w[b] = bits
            lam, xi = _images_direct(u, v, w)
            if ok(sigma, lam) and ok(sigma, xi):
                survivors.append(bits)
        got = pair_memo[key] = tuple(survivors)
        return got

    ident = tuple(range(g))
    total = killed_identity = killed_pairs = trivial_only = 0
    for wm in range(1, full + 1, 2):
        for um in range(full + 1):
            for vm in range(full + 1):
                total += 1
                lam, xi = _images_direct(diag_bits[um], diag_bits[vm], diag_bits[wm])
                if not (ok(ident, lam) and ok(ident, xi)):
                    killed_identity += 1
                    continue
                per_pair = []
                for (a, b) in pairs:
                    surv = pair_survivors(a, b, um, vm, wm)
                    if not surv:
                        break
                    per_pair.append(((a, b), surv))
                else:
                    choice = _materialize_choice(wm == full, per_pair)
                    if choice is None:
                        trivial_only += 1
                        continue
                    witness = _build_witness(g, um, vm, wm, choice)
                    check = refute(witness, m, probes)
                    if check.refuted or not witness.is_nontrivial():
                        raise VerificationError("ordered witness must pass")
                    return SURVIVING_CANDIDATE, survivor_notes() + list(check.steps), witness
                killed_pairs += 1
    return INDECOMPOSABLE, refuted_notes(killed_identity, total, killed_pairs,
                                         trivial_only), None


def type_bits(combo):
    """The U, V and W bit lists of the coordinate types combo lists."""
    w, u, v = zip(*(_TYPES[t] for t in combo))
    return list(u), list(v), list(w)


def arrangements(combo):
    """How many diagonal assignments with W(1,1) on LAMBDA have the
    multiset of types combo: the multinomial times n_{w=1} / g."""
    count = math.factorial(len(combo))
    for t in set(combo):
        count //= math.factorial(combo.count(t))
    return count * sum(_TYPES[t][0] for t in combo) // len(combo)


def type_pair_survivors(ok, u, v, w):
    """Surviving local assignments of a transposition at positions 1, 2,
    given the diagonal bits u, v, w of the others at positions 3..g."""
    survivors = []
    for bits in itertools.product((1, 0), repeat=6):
        u[0], u[1], v[0], v[1], w[0], w[1] = bits
        lam, xi = _images_direct(u, v, w)
        if ok(lam) and ok(xi):
            survivors.append(bits)
    return tuple(survivors)


def assignment_pair_survivors(ok, rest):
    """_pair_survivors by its definition: each of the 64 local assignments
    of a transposition, LAMBDA-first, survives when both of its images
    are integral, given the c values rest of the other coordinates."""
    rest_xi = tuple(2 - c for c in rest)
    survivors = []
    for bits in itertools.product((1, 0), repeat=6):
        lam, xi = _images_direct(bits[0:2], bits[2:4], bits[4:6])
        if ok(lam + rest) and ok(xi + rest_xi):
            survivors.append(bits)
    return tuple(survivors)


def type_orbit_exhaustive(m, probes):
    """The search one S_g orbit of type multisets at a time: each multiset
    holding a w = 1 type stands for arrangements(combo) masks, and its
    types in descending order are its first mask in (wm, um, vm) order,
    so the orbits are scanned sorted by that mask."""
    g = m.g
    ident = tuple(range(g))
    integral_memo = {}

    def ok(nums):
        key = tuple(sorted(nums))
        got = integral_memo.get(key)
        if got is None:
            got = integral_memo[key] = monomial_is_integral(m, ident, key, 2)
        return got

    pair_memo = {}

    def pair_survivors(rest):
        got = pair_memo.get(rest)
        if got is None:
            got = pair_memo[rest] = type_pair_survivors(ok, *type_bits((0, 0) + rest))
        return got

    full = (1 << g) - 1
    orbits = sorted(
        (_masks(combo), combo)
        for combo in itertools.combinations_with_replacement(range(len(_TYPES)), g)
        if _TYPES[combo[0]][0]
    )
    total = killed_identity = killed_pairs = trivial_only = 0
    for (wm, um, vm), combo in orbits:
        weight = arrangements(combo)
        total += weight
        lam, xi = _images_direct(*type_bits(combo))
        if not (ok(lam) and ok(xi)):
            killed_identity += weight
            continue
        per_pair = [
            ((a, b), pair_survivors(combo[:a] + combo[a + 1:b] + combo[b + 1:]))
            for a in range(g)
            for b in range(a + 1, g)
        ]
        if not all(surv for _, surv in per_pair):
            killed_pairs += weight
            continue
        choice = _materialize_choice(wm == full, per_pair)
        if choice is None:
            trivial_only += weight
            continue
        witness = _build_witness(g, um, vm, wm, choice)
        check = refute(witness, m, probes)
        if check.refuted or not witness.is_nontrivial():
            raise VerificationError("orbit witness must pass")
        return SURVIVING_CANDIDATE, survivor_notes() + list(check.steps), witness
    return INDECOMPOSABLE, refuted_notes(killed_identity, total, killed_pairs,
                                         trivial_only), None


def class_walk(m, probes):
    """The class search as it was before it built only the congruent
    classes: every class of c values holding a c >= 2 goes to the 2g x 2g
    kernel under a memo keyed on its sorted c values. Returns the
    (status, notes, witness) of _decide_exhaustive and the classes the
    identity probe passes, in walk order."""
    g = m.g
    ident = tuple(range(g))
    integral_memo = {}

    def ok(nums):
        key = tuple(sorted(nums))
        got = integral_memo.get(key)
        if got is None:
            got = integral_memo[key] = monomial_is_integral(m, ident, key, 2)
        return got

    pair_memo = {}

    def pair_survivors(rest):
        got = pair_memo.get(rest)
        if got is None:
            got = pair_memo[rest] = _pair_survivors(ok, rest)
        return got

    total = 1 << 3 * g - 1
    passed = killed_pairs = trivial_only = 0
    passing, open_classes = [], []
    for cs in classes(g):
        if not (ok(cs) and ok([2 - c for c in cs])):
            continue
        passing.append(cs)
        weight = _class_weight(cs)
        passed += weight
        per_rest = [(rest, pair_survivors(rest)) for rest in _rests(cs)]
        if not all(surv for _, surv in per_rest):
            killed_pairs += weight
        elif _materialize_choice(cs[-1] >= 2, per_rest) is None:
            trivial_only += weight
        else:
            open_classes.append(cs)
    if not open_classes:
        notes = refuted_notes(total - passed, total, killed_pairs, trivial_only)
        return (INDECOMPOSABLE, notes, None), passing
    combo = min((combo for cs in open_classes for combo in _type_splits(cs)), key=_masks)
    wm, um, vm = _masks(combo)
    c_at = [4 * w - u - v for w, u, v in (_TYPES[t] for t in combo)]
    per_pair = []
    for a, b in itertools.combinations(range(g), 2):
        rest = c_at[:a] + c_at[a + 1:b] + c_at[b + 1:]
        per_pair.append(((a, b), pair_survivors(tuple(sorted(rest, reverse=True)))))
    witness = _build_witness(g, um, vm, wm, _materialize_choice(wm == (1 << g) - 1, per_pair))
    check = refute(witness, m, probes)
    if check.refuted or not witness.is_nontrivial():
        raise VerificationError("class walk witness must pass")
    return (SURVIVING_CANDIDATE, survivor_notes() + list(check.steps), witness), passing


def survivor_notes():
    return [
        _note(
            "diagonal-case",
            "identity probe left a diagonal assignment open",
            probe="identity",
        ),
        _note(
            "transposition-case",
            "a nontrivial candidate survives every probe",
        ),
    ]


def refuted_notes(killed_identity, total, killed_pairs, trivial_only):
    return [
        _note(
            "diagonal-case",
            "identity probe refuted %d of %d diagonal assignments "
            "(side swap quotiented out)" % (killed_identity, total),
            probe="identity",
        ),
        _note(
            "transposition-case",
            "transposition probes refuted %d further diagonal assignments; "
            "%d admitted only candidates with all transcendental cells on "
            "one side" % (killed_pairs, trivial_only),
        ),
        _note(
            "conclusion",
            "no nontrivial candidate survives the probes; the "
            "transcendental part is essentially indecomposable",
        ),
    ]


def oracle_decide(search):
    """decide(m, EXHAUSTIVE) by the full gate and the given search."""

    def run(m):
        probes = probes_for(m)
        trace = [_note("trusted-reduction", TRUSTED_REDUCTION)]
        full_gate(m, probes, trace)
        status, extra, witness = search(m, probes)
        trace.extend(extra)
        return Verdict(status, EXHAUSTIVE, m.g, tuple(probes), tuple(trace), witness)

    return run


def outcome(run, m):
    """(status, text): the status and JSON report of run(m), or "gate"
    and the message of the HypothesisError it raises."""
    try:
        v = run(m)
    except HypothesisError as err:
        return "gate", str(err)
    return v.status, json.dumps(verdict_to_dict(v), sort_keys=True)


def corpus(seed):
    """Seeded lattice models, g = 2..6: the symmetric family of the
    acceptance tests (one or two glue vectors, sqrt(-d) parts, the
    maximal order), glue closed under permuting the atoms, and models
    that fail the gate."""
    rng = random.Random(seed)
    models = [
        build_model(1, 2, glue=[(F(1, 5),) * 2]),
        build_model(7, 3, glue=[((F(1, 5), F(2, 5)),) * 3, (F(1, 7),) * 3],
                    maximal_order=True),
        build_model(2, 4, glue=[(F(1, 5),) * 4, (F(1, 7),) * 4]),
        build_model(1, 3, glue=[(F(1, 5), F(1, 5), F(2, 5))]),  # probe (1,3) fails
        build_model(1, 4, glue=[(F(1, 5), F(1, 5), 0, 0), (0, 0, F(1, 5), F(1, 5))]),
    ]
    for g in (2, 2, 3, 3, 4, 4, 5, 6):
        d = rng.choice(CLASS_NUMBER_ONE)
        n = rng.choice((5, 7, 11, 13))
        k = rng.randrange(1, n)
        coord = (F(k, n), F(rng.randrange(n), n)) if rng.random() < 0.5 else F(k, n)
        glue = [(coord,) * g]
        if rng.random() < 0.5:
            glue.append((F(1, rng.choice((5, 7, 11))),) * g)
        models.append(build_model(d, g, glue=glue,
                                  maximal_order=d % 4 == 3 and rng.random() < 0.5))
    for g in (2, 3, 3, 4):
        n = rng.choice((4, 5, 6, 8))
        vec = [F(rng.randrange(n), n) for _ in range(g)]
        models.append(build_model(rng.choice((1, 2)), g,
                                  glue=sorted(set(itertools.permutations(vec)))))
        models.append(build_model(1, g, glue=[vec]))
    return models


ordered_decide = oracle_decide(ordered_exhaustive)
type_orbit_decide = oracle_decide(type_orbit_exhaustive)


def below_gate_models():
    """Symmetric lattices with exponents below 4: they fail the gate but
    keep every swap integral, so the search still applies; they leave
    survivors at g >= 3 with witnesses other than the g = 2 one."""
    models = [build_model(1, g, glue=[(F(1, n),) * g]) for g in (3, 4) for n in (2, 3)]
    models.append(build_model(3, 4, glue=[(F(1, 2),) * 4], maximal_order=True))
    models.append(build_model(2, 5, glue=[((F(1, 2), F(1, 2)),) * 5]))
    models.append(build_model(1, 4, glue=sorted(set(itertools.permutations(
        (F(1, 2),) * 3 + (F(0),))))))
    return models


def test_orbit_weights_cover_every_mask():
    # each type multiset holding a w = 1 type is one orbit; its weight
    # counts its masks with W(1,1) on LAMBDA, and its representative is
    # the first of them in (wm, um, vm) order
    for g in range(1, 7):
        orbits = [c for c in itertools.combinations_with_replacement(range(8), g)
                  if _TYPES[c[0]][0]]
        assert sum(map(arrangements, orbits)) == 2 ** (3 * g - 1)
        if g > 4:
            continue
        masks = {}
        for wm in range(1, 1 << g, 2):
            for um in range(1 << g):
                for vm in range(1 << g):
                    types = (_TYPES.index((wm >> i & 1, um >> i & 1, vm >> i & 1))
                             for i in range(g))
                    masks.setdefault(tuple(sorted(types)), []).append((wm, um, vm))
        assert sorted(masks) == orbits
        for combo in orbits:
            assert len(masks[combo]) == arrangements(combo)
            assert masks[combo][0] == _masks(combo)
    assert len(orbits) == 1632  # C(13, 7) - C(9, 3) at g = 6


def classes(g):
    """The classes of c values the search walks: those holding a c >= 2."""
    return [cs for cs in itertools.combinations_with_replacement(_CS, g) if cs[0] >= 2]


def test_class_weights_sum_their_type_orbits():
    # a class stands for the type multisets with its c values; its weight
    # is the sum of their arrangements, and the classes partition the orbits
    for g in range(1, 7):
        seen = []
        for cs in classes(g):
            splits = list(_type_splits(cs))
            assert len(splits) == (cs.count(3) + 1) * (cs.count(-1) + 1)
            for combo in splits:
                c_of = sorted((4 * w - u - v for w, u, v in (_TYPES[t] for t in combo)),
                              reverse=True)
                assert tuple(c_of) == cs
            assert _class_weight(cs) == sum(map(arrangements, splits))
            seen.extend(splits)
        orbits = [c for c in itertools.combinations_with_replacement(range(8), g)
                  if _TYPES[c[0]][0]]
        assert sorted(seen) == orbits
    for g in range(1, 21):
        walked = classes(g)
        assert len(walked) == math.comb(g + 5, 5) - math.comb(g + 2, 2)
        assert sum(map(_class_weight, walked)) == 2 ** (3 * g - 1)
    assert len(walked) == 52899  # C(25, 5) - C(22, 2) at g = 20


def test_pair_survivors_match_every_assignment():
    # every rest of g - 2 c values, on symmetric, asymmetric and
    # below-the-gate lattices up to g = 6
    models = corpus(20261018) + below_gate_models()
    assert {m.g for m in models} == {2, 3, 4, 5, 6}
    checked = 0
    for m in models:
        ident = tuple(range(m.g))
        memo = {}

        def ok(nums):
            key = tuple(sorted(nums))
            if key not in memo:
                memo[key] = monomial_is_integral(m, ident, key, 2)
            return memo[key]

        for rest in itertools.combinations_with_replacement(_CS, m.g - 2):
            want = assignment_pair_survivors(ok, rest)
            assert _pair_survivors(ok, rest) == want, (m, rest)
            checked += bool(want) and len(want) < 64
    assert checked  # some rests keep part of the 64 assignments


def test_orbit_search_matches_ordered_oracle():
    statuses = set()
    for m in corpus(20261018):
        want = outcome(ordered_decide, m)
        assert outcome(lambda m: decide(m, EXHAUSTIVE), m) == want, m
        statuses.add(want[0])
    # the corpus reaches every branch: a survivor, refutations, the gate
    assert statuses == {SURVIVING_CANDIDATE, INDECOMPOSABLE, "gate"}


def test_orbit_search_matches_ordered_oracle_below_the_gate():
    for m in below_gate_models():
        probes = probes_for(m)
        got = _decide_exhaustive(m, probes)
        assert got == ordered_exhaustive(m, probes), m
        assert got[0] == SURVIVING_CANDIDATE


def test_class_search_matches_type_orbit_oracle():
    statuses = set()
    models = corpus(20261019)
    models += [
        build_model(1, 7, glue=[(F(1, 5),) * 7]),
        build_model(7, 7, glue=[((F(1, 5), F(2, 5)),) * 7, (F(1, 7),) * 7],
                    maximal_order=True),
        build_model(2, 8, glue=[(F(2, 11),) * 8]),
        build_model(1, 8, glue=[(F(1, 5),) * 7 + (F(2, 5),)]),  # probe (1,8) fails
    ]
    for m in models:
        want = outcome(type_orbit_decide, m)
        assert outcome(lambda m: decide(m, EXHAUSTIVE), m) == want, m
        statuses.add(want[0])
    assert statuses == {SURVIVING_CANDIDATE, INDECOMPOSABLE, "gate"}
    below = below_gate_models() + [
        build_model(1, 6, glue=[(F(1, 2),) * 6]),
        build_model(1, 7, glue=[(F(1, 3),) * 7]),
    ]
    for m in below:
        probes = probes_for(m)
        got = _decide_exhaustive(m, probes)
        assert got == type_orbit_exhaustive(m, probes), m
        assert got[0] == SURVIVING_CANDIDATE


@pytest.mark.parametrize(
    "d, glue, maximal",
    [
        (1, F(1, 5), False),
        (3, F(1, 7), False),  # the CM field of y^2 = x^3 - 1
        (3, (F(1, 5), F(2, 5)), True),
        (2, F(2, 11), False),
    ],
)
def test_exhaustive_matches_prooftrace_beyond_the_oracle(d, glue, maximal):
    for g in range(7, 13):
        if g < 10 and (d, maximal) != (1, False):
            continue  # g = 10 to 12 per field keeps the test short
        check_against_prooftrace(build_model(d, g, glue=[(glue,) * g],
                                             maximal_order=maximal))


@pytest.mark.parametrize("g", [16, 20, 32, 64])
def test_exhaustive_matches_prooftrace_up_to_the_bound(g):
    check_against_prooftrace(build_model(1, g, glue=[(F(1, 5),) * g]))


def check_against_prooftrace(m):
    t0 = time.perf_counter()
    ve = decide(m, EXHAUSTIVE)
    elapsed = time.perf_counter() - t0
    vp = decide(m, PROOFTRACE)
    assert ve.status == vp.status == INDECOMPOSABLE
    assert ve.witness is None
    notes = [s["note"] for s in ve.trace]
    assert any("of %d diagonal assignments" % 2 ** (3 * m.g - 1) in n for n in notes)
    assert elapsed < 5.0


def symmetric_models(seed, count=40, max_g=10):
    """Seeded lattices whose glue vectors repeat one coordinate at every
    atom, so every swap is integral: one or two glue generators, sqrt(-d)
    parts, maximal orders, d of class number one, g = 2..max_g."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        g = rng.randrange(2, max_g + 1)
        d = rng.choice(CLASS_NUMBER_ONE)
        glue = []
        for _ in range(rng.choice((1, 2))):
            n = rng.choice((2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 25))
            coord = F(rng.randrange(1, n), n)
            if rng.random() < 0.4:
                coord = (coord, F(rng.randrange(n), n))
            glue.append((coord,) * g)
        models.append(build_model(d, g, glue=glue,
                                  maximal_order=d % 4 == 3 and rng.random() < 0.5))
    return models


def walk_agrees(m):
    """Whether the search and the class walk agree on m: the passing
    classes, the notes with their kill counts, the status and witness."""
    probes = probes_for(m)
    want, passing = class_walk(m, probes)
    assert sorted(_passing_classes(m)) == sorted(passing), m
    assert _decide_exhaustive(m, probes) == want, m
    return want[0]


def test_congruent_search_matches_the_class_walk():
    models = [m for m in corpus(20261022) if first_bad_swap(m) is None]
    models += below_gate_models() + symmetric_models(20261022)
    assert max(m.g for m in models) == 10
    statuses = {walk_agrees(m) for m in models}
    assert statuses == {SURVIVING_CANDIDATE, INDECOMPOSABLE}


def test_congruent_search_matches_the_class_walk_to_g20():
    for g in (11, 14, 17, 20):
        assert walk_agrees(build_model(1, g, glue=[(F(1, 5),) * g])) == INDECOMPOSABLE


def test_diagonal_membership_matches_the_kernel():
    # the (x_1, S) test against the 2g x 2g kernel, on random diagonals
    # over den 1, 2 and 4, half of them congruent mod the step
    rng = random.Random(20261023)
    models = [m for m in corpus(20261023) if first_bad_swap(m) is None]
    models += below_gate_models() + symmetric_models(20261023, count=20)
    answers = set()
    for m in models + [build_model(1, 1, glue=[(F(1, 5),)])]:
        ident = tuple(range(m.g))
        r = diagonal_step(m)
        # an integer dividing den, by the power argument
        assert type(r) is int and m.lattice.den % r == 0, m
        for den in (1, 2, 4):
            step = den * r
            for _ in range(12):
                base = rng.randrange(-50, 50)
                if rng.random() < 0.5:
                    nums = [base + step * rng.randrange(-3, 4) for _ in ident]
                else:
                    nums = [rng.randrange(-50, 50) for _ in ident]
                want = monomial_is_integral(m, ident, nums, den)
                assert diagonal_is_integral(m, nums, den) == want, (m, nums, den)
                answers.add(want)
    assert answers == {True, False}
    # the step needs the swaps; a model whose probe (1,3) fails has none
    with pytest.raises(PreconditionError):
        diagonal_step(build_model(1, 3, glue=[(F(1, 5), F(1, 5), F(2, 5))]))


def test_gated_models_have_a_c_modulus_of_at_least_four():
    # at g >= 3, n_12 >= 4 divides r^2 for the integer step r, so r >= 2
    # and no residue class mod the modulus 2r holds more than two c values
    models = corpus(20261018) + corpus(20261022) + symmetric_models(20261022)
    checked = 0
    for m in models:
        if m.g < 3 or outcome(lambda m: decide(m, EXHAUSTIVE), m)[0] == "gate":
            continue
        modulus = 2 * diagonal_step(m)
        assert modulus >= 4, m
        assert max(sum(c % modulus == k for c in _CS) for k in range(modulus)) <= 2
        checked += 1
    assert checked >= 10


def test_two_generators_match_the_full_swap_scan():
    # first_bad_swap asks (1 2) and the g-cycle; the scan asks every
    # pair. Glue closed under cyclic shifts passes the cycle alone, glue
    # symmetric in atoms 1 and 2 passes (1 2) alone
    rng = random.Random(20261024)
    models = corpus(20261024) + below_gate_models() + symmetric_models(20261024)
    for _ in range(40):
        g = rng.randrange(2, 8)
        n = rng.choice((2, 3, 4, 5, 6, 7))
        vec = [F(rng.randrange(n), n) for _ in range(g)]
        shape = rng.randrange(3)
        if shape == 0:
            glue = [vec[k:] + vec[:k] for k in range(g)]
        elif shape == 1:
            glue = [vec, [vec[1], vec[0]] + vec[2:]]
        else:
            glue = [vec]
        models.append(build_model(rng.choice((1, 2, 3)), g, glue=glue))
    passing = 0
    for m in models:
        bad = [pair for pair in itertools.combinations(range(m.g), 2)
               if not swap_is_integral(m, *pair)]
        got = first_bad_swap(m)
        if bad:
            assert got is not None and [i for i in range(m.g) if got[i] != i] == list(bad[0]), m
        else:
            assert got is None, m
            passing += 1
    assert 20 <= passing < len(models) - 20

"""Randomized algebra suites, one thousand cases each with fixed
seeds: Rosati involution and anti-homomorphism, tensor composition
associativity, probe-image sum soundness, and refutation symmetry
under swapping the two sides.

The suites are named check_* so that pytest does not collect them:
acceptance criterion 7 (test_acceptance.py) runs each of them once."""

import random
from fractions import Fraction as F

from motivix.cmlat import EndoQ, build_model, rosati
from motivix.corr import Corr2, compose
from motivix.decomp import Candidate, eval_probe, probes_for, refute
from motivix.exact import QuadInt

CASES = 1000


def _models():
    out = []
    for d in (1, 2, 3):
        out.append(build_model(d, 2, glue=[(F(1, 5), F(1, 5))]))
        out.append(build_model(d, 3, glue=[(F(1, 7),) * 3]))
    out.append(build_model(2, 4, glue=[(F(1, 5),) * 4]))
    return out


MODELS = _models()
PROBES = [probes_for(m) for m in MODELS]


def _rand_rat(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_endo(rng, m):
    rows = [
        [QuadInt(_rand_rat(rng), _rand_rat(rng), m.d) for _ in range(m.g)]
        for _ in range(m.g)
    ]
    return EndoQ.from_rows(rows, m.d)


def _rand_cells(rng, g):
    return frozenset(
        (i, j) for i in range(g) for j in range(g) if rng.random() < 0.5
    )


def _rand_candidate(rng, g):
    return Candidate(
        g, _rand_cells(rng, g), _rand_cells(rng, g), _rand_cells(rng, g)
    )


def check_rosati_involution_and_antihomomorphism():
    rng = random.Random(20260823)
    for k in range(CASES):
        m = MODELS[k % len(MODELS)]
        x = _rand_endo(rng, m)
        y = _rand_endo(rng, m)
        assert rosati(rosati(x, m), m) == x
        assert rosati(x * y, m) == rosati(y, m) * rosati(x, m)
        assert rosati(x + y, m) == rosati(x, m) + rosati(y, m)


def _rand_sparse_endo(rng, m, entries=2):
    rows = [[QuadInt(F(0), F(0), m.d) for _ in range(m.g)] for _ in range(m.g)]
    for _ in range(entries):
        i, j = rng.randrange(m.g), rng.randrange(m.g)
        rows[i][j] = QuadInt(_rand_rat(rng), _rand_rat(rng), m.d)
    return EndoQ.from_rows(rows, m.d)


def _rand_tensor_combo(rng, m, terms=2):
    # sparse factors keep the expanded atom count, and hence the cost of
    # the double composition, manageable over a thousand cases
    out = Corr2.zero(m)
    for _ in range(terms):
        coeff = F(rng.randint(-3, 3), rng.randint(1, 2))
        out = out + Corr2.tensor(
            m, _rand_sparse_endo(rng, m), _rand_sparse_endo(rng, m)
        ).scale(coeff)
    return out


def check_tensor_composition_associativity():
    rng = random.Random(977)
    small = [m for m in MODELS if m.g <= 3]
    for k in range(CASES):
        m = small[k % len(small)]
        a = _rand_tensor_combo(rng, m)
        b = _rand_tensor_combo(rng, m)
        c = _rand_tensor_combo(rng, m)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def check_probe_image_sum_soundness():
    rng = random.Random(31337)
    for k in range(CASES):
        idx = k % len(MODELS)
        m = MODELS[idx]
        p = PROBES[idx][rng.randrange(len(PROBES[idx]))]
        cand = _rand_candidate(rng, m.g)
        lam, xi = eval_probe(cand, p, m)
        assert lam + xi == rosati(p.endo, m)


def check_refutation_swap_symmetry():
    rng = random.Random(4242)
    small = [i for i, m in enumerate(MODELS) if m.g <= 3]
    for k in range(CASES):
        idx = small[k % len(small)]
        m = MODELS[idx]
        cand = _rand_candidate(rng, m.g)
        r1 = refute(cand, m, probes=PROBES[idx])
        r2 = refute(cand.swap(), m, probes=PROBES[idx])
        assert r1.refuted == r2.refuted

"""Decision procedure for essential decompositions of the transcendental
part of a product-of-isogenous-elliptic-curves surface.

A candidate decomposition assigns a side label, LAMBDA or XI, to every
cell of the three g x g projector grids (the two algebraic grids and the
transcendental grid) and to the eight remaining weight slots.  The
procedure probes candidates with permutation correspondences:
convolution against the probe sends each side of a candidate to an
endomorphism of the glued product of CM elliptic curves, and both images
have to be integral.

EXHAUSTIVE mode enumerates every nontrivial candidate for g <= 10,
factored through the per-probe restrictions and taken up to relabelling
the atoms, and refutes them probe by probe.  PROOFTRACE mode replays the
symbolic two-case argument at any g and emits the derivation as a trace.

The grid shape of the candidate space is a trusted reduction: any
essential decomposition is matched summand by summand against the
refined cell decomposition (semisimple matching of indecomposable
pieces), so one side label per cell loses no generality.  The procedure
re-proves refutations, not the reduction itself.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

from .cmlat import (
    LATTICE,
    PermEndoSpec,
    endo_to_jsonable,
    exponent,
    full_grid,
    is_integral,
    monomial_is_integral,
    perm_endo,
    rosati,
    verify_proper_exponents,
)
from .corr import Corr2, build_grids, conv
from .errors import (
    CandidateError,
    HypothesisError,
    InvalidInput,
    UnsupportedQuery,
    VerificationError,
)

EXHAUSTIVE = "EXHAUSTIVE"
PROOFTRACE = "PROOFTRACE"

INDECOMPOSABLE = "INDECOMPOSABLE"
SURVIVING_CANDIDATE = "SURVIVING_CANDIDATE"
UNDECIDED = "UNDECIDED"

LAMBDA = "LAMBDA"
XI = "XI"

# the eight weight slots outside the central (1,1) one
B_CELLS = tuple(
    (s, t) for s in range(3) for t in range(3) if (s, t) != (1, 1)
)

TRUSTED_REDUCTION = (
    "any essential decomposition matches the refined cell decomposition "
    "summand by summand, so candidates carry one side label per grid "
    "cell and per outer weight slot; this shape is taken as given"
)


def _check_cells(name, cells, g):
    out = set()
    for cell in cells:
        if (
            not isinstance(cell, tuple)
            or len(cell) != 2
            or not all(isinstance(c, int) for c in cell)
        ):
            raise CandidateError("bad cell %r in %s" % (cell, name))
        i, j = cell
        if not (0 <= i < g and 0 <= j < g):
            raise CandidateError("cell %r out of range in %s" % (cell, name))
        out.add((i, j))
    return frozenset(out)


@dataclass(frozen=True)
class Candidate:
    """One side of a potential two-sided decomposition.

    The four sets hold the cells labelled LAMBDA; the XI side is the
    complement grid by grid.  U/V are the two algebraic grids, W the
    transcendental grid (atom indices, 0-based internally), L the outer
    weight slots (weight pairs in {0,1,2}^2 minus (1,1))."""

    g: int
    U_lambda: frozenset
    V_lambda: frozenset
    W_lambda: frozenset
    L_lambda: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.g, int) or self.g < 1:
            raise CandidateError("candidate needs an integer g >= 1")
        object.__setattr__(
            self, "U_lambda", _check_cells("U_lambda", self.U_lambda, self.g)
        )
        object.__setattr__(
            self, "V_lambda", _check_cells("V_lambda", self.V_lambda, self.g)
        )
        object.__setattr__(
            self, "W_lambda", _check_cells("W_lambda", self.W_lambda, self.g)
        )
        bad = frozenset(self.L_lambda) - frozenset(B_CELLS)
        if bad:
            raise CandidateError(
                "outer weight slots %r not in the eight admissible ones"
                % sorted(bad)
            )
        object.__setattr__(self, "L_lambda", frozenset(self.L_lambda))

    @property
    def all_cells(self):
        return frozenset(itertools.product(range(self.g), repeat=2))

    @property
    def U_xi(self):
        return self.all_cells - self.U_lambda

    @property
    def V_xi(self):
        return self.all_cells - self.V_lambda

    @property
    def W_xi(self):
        return self.all_cells - self.W_lambda

    @property
    def L_xi(self):
        return frozenset(B_CELLS) - self.L_lambda

    def is_nontrivial(self):
        """Both sides must receive a transcendental cell."""
        return bool(self.W_lambda) and bool(self.W_xi)

    def swap(self):
        """Exchange the LAMBDA and XI sides."""
        return Candidate(
            self.g, self.U_xi, self.V_xi, self.W_xi, self.L_xi
        )


@dataclass(frozen=True)
class Probe:
    """A permutation probe: sigma as a tuple, on the model it probes.

    `endo`, the full-grid permutation endomorphism the probe convolves
    to, is built on first access and kept. Prooftrace and the lattice
    gate read sigma only, so they build none."""

    sigma: tuple
    model: object = field(compare=False, repr=False)

    @functools.cached_property
    def endo(self):
        spec = PermEndoSpec(self.sigma, full_grid(self.model.g))
        return perm_endo(self.model, spec)

    @property
    def name(self):
        g = len(self.sigma)
        moved = [i for i in range(g) if self.sigma[i] != i]
        if not moved:
            return "identity"
        assert len(moved) == 2, "probes are transpositions"
        return "transposition(%d,%d)" % (moved[0] + 1, moved[1] + 1)

    @property
    def is_identity(self):
        return all(self.sigma[i] == i for i in range(len(self.sigma)))


def probes_for(m):
    """The identity plus all transpositions: 1 + g(g-1)/2 probes."""
    g = m.g
    out = [Probe(tuple(range(g)), m)]
    for a in range(g):
        for b in range(a + 1, g):
            sigma = list(range(g))
            sigma[a], sigma[b] = b, a
            out.append(Probe(tuple(sigma), m))
    return out


# ---------------------------------------------------------------------------
# probe images


def _side_class(m, cand_sets, grids):
    """The formal class of one candidate side: its a1/a2/theta cells."""
    U, V, W = cand_sets
    out = Corr2.zero(m)
    for (i, j) in sorted(U):
        out = out + grids.a1[i][j]
    for (i, j) in sorted(V):
        out = out + grids.a2[i][j]
    for (i, j) in sorted(W):
        out = out + grids.theta[i][j]
    return out


def _grids(m):
    if m._grids is None:
        m._grids = build_grids(m)
    return m._grids


def eval_probe(c, p, m):
    """Convolve both sides of the candidate against the probe.

    Returns (lambda_image, xi_image); their sum must be rosati(sigma_J),
    else VerificationError.  Only the cells over the probe's graph
    contribute."""
    if not isinstance(c, Candidate):
        raise CandidateError("eval_probe expects a Candidate")
    if c.g != m.g:
        raise CandidateError("candidate for g=%d on a model with g=%d" % (c.g, m.g))
    grids = _grids(m)
    lam = conv(p.endo, _side_class(m, (c.U_lambda, c.V_lambda, c.W_lambda), grids))
    xi = conv(p.endo, _side_class(m, (c.U_xi, c.V_xi, c.W_xi), grids))
    if lam + xi != rosati(p.endo, m):
        raise VerificationError("side images must sum to rosati(sigma_J)")
    return lam, xi


def _images_direct(u, v, w):
    """Closed form of eval_probe, doubled.

    u, v, w hold the LAMBDA bits (0 or 1) of the U, V and W grids on the
    probe's graph cells (i, sigma(i)); both images are zero off the
    entries (sigma(i), i). There the LAMBDA image is c_i / 2 with
    c_i = 4 w_i - u_i - v_i, and the XI image is (2 - c_i) / 2. Returns
    the two numerator tuples (c_i) and (2 - c_i). Agreement with the
    convolution route is covered by the decomp tests."""
    lam = tuple(4 * wi - ui - vi for ui, vi, wi in zip(u, v, w))
    return lam, tuple(2 - c for c in lam)


# ---------------------------------------------------------------------------
# refutation


@dataclass(frozen=True)
class RefutationResult:
    refuted: bool
    steps: tuple


def _probe_rule(p):
    return "diagonal-case" if p.is_identity else "transposition-case"


def _step(p, image, integral, rule, side):
    return {
        "probe": p.name,
        "side": side,
        "query": endo_to_jsonable(image),
        "integral": integral,
        "rule": rule,
    }


def refute(c, m, probes=None):
    """Run the probes against the candidate.

    Returns RefutationResult(refuted, steps); refuted as soon as either
    side image of some probe fails to be integral.  PASSES does not
    assert decomposability, only that these probes do not rule the
    candidate out.  Raises HypothesisError if the model violates the
    exponent hypothesis or a probe is not itself integral."""
    if not isinstance(c, Candidate):
        raise CandidateError("refute expects a Candidate")
    if c.g != m.g:
        raise CandidateError("candidate for g=%d on a model with g=%d" % (c.g, m.g))
    if probes is None:
        probes = probes_for(m)
        _hypothesis_gate(m, probes, [])
    steps = []
    for p in probes:
        lam, xi = eval_probe(c, p, m)
        rule = _probe_rule(p)
        lam_ok = is_integral(m, lam)
        steps.append(_step(p, lam, lam_ok, rule, "lambda"))
        if not lam_ok:
            return RefutationResult(True, tuple(steps))
        xi_ok = is_integral(m, xi)
        steps.append(_step(p, xi, xi_ok, rule, "xi"))
        if not xi_ok:
            return RefutationResult(True, tuple(steps))
    return RefutationResult(False, tuple(steps))


# ---------------------------------------------------------------------------
# hypothesis gate


def _probe_is_valid(m, sigma):
    """Whether the transposition probe for sigma and its Rosati transform
    are integral on the LATTICE model m, asked without building either.
    The probe holds n_j / n_sigma(j) at (sigma(j), j); its Rosati
    transform is the plain swap, with 1 there."""
    n = m.atom_exponents
    L = math.lcm(*n)
    nums = [n[j] * (L // n[sigma[j]]) for j in range(m.g)]
    return monomial_is_integral(m, sigma, nums, L) and monomial_is_integral(
        m, sigma, [1] * m.g, 1
    )


def _hypothesis_gate(m, probes, trace):
    """Check what the argument needs before any probing.

    LATTICE: verify n_K >= 4 on every proper nonempty K, and verify each
    transposition probe and its Rosati transform are integral.
    AXIOMATIC: verify the declared atom exponents; union exponents and
    probe integrality hold in the geometric source of the declared data
    and are recorded as assumptions.

    In LATTICE mode the probes go first. Once every plain swap is
    integral, S_g acts on the lattice, so n_K depends on |K| alone and
    K = {1..s} stands for every subset of size s. A failing probe sends
    the gate through all 2^g - 2 subsets instead, so an exponent failure
    is still reported first, at its first K in size-then-lex order."""
    if m.mode == LATTICE:
        bad_probe = next(
            (p for p in probes if not p.is_identity and not _probe_is_valid(m, p.sigma)),
            None,
        )
        if bad_probe is None:
            bad = None
            for s in range(1, m.g):
                K = frozenset(range(s))
                n = exponent(m, K)
                if n < 4:
                    bad = K, n
                    break
        else:
            bad = verify_proper_exponents(m)
        if bad is not None:
            K, n = bad
            raise HypothesisError(
                "exponent hypothesis fails: n_%r = %d < 4"
                % (sorted(i + 1 for i in K), n)
            )
        trace.append(
            {
                "probe": None,
                "rule": "hypothesis",
                "note": "every proper nonempty subset has exponent >= 4 "
                "(verified on the lattice)",
            }
        )
        if bad_probe is not None:
            raise HypothesisError(
                "probe %s is not an integral endomorphism of this model"
                % bad_probe.name
            )
        trace.append(
            {
                "probe": None,
                "rule": "probe-validity",
                "note": "all transposition probes and their Rosati "
                "transforms are integral (verified on the lattice)",
            }
        )
    else:
        for i, n in enumerate(m.atom_exponents):
            if n < 4:
                raise HypothesisError(
                    "exponent hypothesis fails: atom %d has exponent %d < 4"
                    % (i + 1, n)
                )
        trace.append(
            {
                "probe": None,
                "rule": "hypothesis",
                "note": "declared atom exponents verified >= 4; union "
                "exponents >= 4 assumed with the declared data",
            }
        )
        trace.append(
            {
                "probe": None,
                "rule": "probe-validity",
                "note": "probe integrality holds in the source of the "
                "declared data; assumed",
            }
        )


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    status: str
    mode: str
    g: int
    probes: tuple
    trace: tuple
    witness: object = None


def _note(rule, note, probe=None):
    return {"probe": probe, "rule": rule, "note": note}


def decide(m, mode):
    """Decide essential indecomposability for the model.

    EXHAUSTIVE (lattice models, g <= 10): enumerate all nontrivial
    candidates up to the side swap, factored through per-probe
    restrictions and taken one S_g orbit of diagonal assignments at a
    time, and refute each.  PROOFTRACE (any g): replay the
    symbolic argument.  INDECOMPOSABLE means every nontrivial candidate
    is refuted; SURVIVING_CANDIDATE reports one that no probe refutes
    (without asserting decomposability); UNDECIDED means the symbolic
    argument does not close."""
    if mode not in (EXHAUSTIVE, PROOFTRACE):
        raise InvalidInput("unknown mode %r" % (mode,))
    if mode == EXHAUSTIVE:
        # ahead of the hypothesis gate, which scans all 2^g - 2 subsets
        # when a probe fails
        if m.g > 10:
            raise InvalidInput("exhaustive search is bounded to g <= 10")
        if m.mode != LATTICE:
            raise UnsupportedQuery(
                "exhaustive search needs a lattice model; axiomatic "
                "integrality does not cover off-diagonal probe images"
            )
    probes = probes_for(m)
    trace = [_note("trusted-reduction", TRUSTED_REDUCTION)]
    _hypothesis_gate(m, probes, trace)
    if mode == EXHAUSTIVE:
        status, extra, witness = _decide_exhaustive(m, probes)
    else:
        status, extra, witness = _decide_prooftrace(m)
    trace.extend(extra)
    return Verdict(status, mode, m.g, tuple(probes), tuple(trace), witness)


# ---------------------------------------------------------------------------
# EXHAUSTIVE


# the (w, u, v) LAMBDA bits of one diagonal coordinate, in descending order
_TYPES = tuple(itertools.product((1, 0), repeat=3))


def _decide_exhaustive(m, probes):
    """Refute every diagonal assignment, one S_g orbit at a time.

    The gate has proven every plain swap of two atoms integral, so
    relabelling the atoms changes no integrality answer, and an
    assignment is decided by the multiset of its coordinate types
    (w, u, v). A multiset holding a w = 1 type stands for its
    multinomial * n_{w=1} / g arrangements with W(1,1) on LAMBDA, which
    keeps the kill counts exact. Its representative lists the types in
    descending order at positions 1..g; that is also its first
    arrangement in (wm, um, vm) order, so scanning representatives in
    that order finds the same first survivor, and witness, as scanning
    every mask."""
    g = m.g
    integral_memo = {}

    def ok(sigma, nums):
        key = (sigma, nums)
        got = integral_memo.get(key)
        if got is None:
            got = integral_memo[key] = monomial_is_integral(m, sigma, nums, 2)
        return got

    pair_memo = {}

    def pair_outcome(rest):
        """(some local assignment survives, one keeps a transcendental
        cell on XI) for a transposition whose other g - 2 coordinates
        have the types rest; computed with the pair at positions 1, 2."""
        got = pair_memo.get(rest)
        if got is None:
            surv = _pair_survivors(ok, 0, 1, *_type_bits((0, 0) + rest))
            got = pair_memo[rest] = (
                bool(surv),
                any(bits[4] == 0 or bits[5] == 0 for bits in surv),
            )
        return got

    full = (1 << g) - 1
    ident = tuple(range(g))
    orbits = sorted(
        (_masks(combo), combo)
        for combo in itertools.combinations_with_replacement(range(len(_TYPES)), g)
        if _TYPES[combo[0]][0]  # holds a w = 1 type (W(1,1) pinned by the side swap)
    )
    diag_total = 0
    diag_killed_identity = 0
    diag_killed_pairs = 0
    diag_trivial_only = 0
    for (wm, um, vm), combo in orbits:
        weight = _arrangements(combo)
        diag_total += weight
        u, v, w = _type_bits(combo)
        lam, xi = _images_direct(u, v, w)
        if not (ok(ident, lam) and ok(ident, xi)):
            diag_killed_identity += weight
            continue
        outcomes = []
        for x, y in itertools.combinations_with_replacement(sorted(set(combo)), 2):
            rest = list(combo)
            rest.remove(x)
            if y in rest:
                rest.remove(y)
                outcomes.append(pair_outcome(tuple(rest)))
        if not all(alive for alive, _ in outcomes):
            diag_killed_pairs += weight
            continue
        if wm == full and not any(donor for _, donor in outcomes):
            diag_trivial_only += weight
            continue
        per_pair = [
            ((a, b), _pair_survivors(ok, a, b, u, v, w))
            for a in range(g)
            for b in range(a + 1, g)
        ]
        choice = _materialize_choice(wm, full, per_pair)
        if choice is None:
            raise VerificationError("an orbit representative must keep its orbit's outcome")
        witness = _build_witness(g, um, vm, wm, choice)
        if not witness.is_nontrivial():
            raise VerificationError("materialized witness must be nontrivial")
        check = refute(witness, m, probes)
        if check.refuted:
            raise VerificationError("materialized witness must pass")
        extra = [
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
        extra.extend(check.steps)
        return SURVIVING_CANDIDATE, extra, witness
    extra = [
        _note(
            "diagonal-case",
            "identity probe refuted %d of %d diagonal assignments "
            "(side swap quotiented out)" % (diag_killed_identity, diag_total),
            probe="identity",
        ),
        _note(
            "transposition-case",
            "transposition probes refuted %d further diagonal assignments; "
            "%d admitted only candidates with all transcendental cells on "
            "one side" % (diag_killed_pairs, diag_trivial_only),
        ),
        _note(
            "conclusion",
            "no nontrivial candidate survives the probes; the "
            "transcendental part is essentially indecomposable",
        ),
    ]
    return INDECOMPOSABLE, extra, None


def _type_bits(combo):
    """The U, V and W bit lists of the coordinate types combo lists."""
    w, u, v = zip(*(_TYPES[t] for t in combo))
    return list(u), list(v), list(w)


def _masks(combo):
    """(wm, um, vm): the diagonal masks of the types combo lists, the
    type at position i giving bit i."""
    u, v, w = _type_bits(combo)
    return tuple(sum(bit << i for i, bit in enumerate(bits)) for bits in (w, u, v))


def _arrangements(combo):
    """How many diagonal assignments with W(1,1) on LAMBDA have the
    multiset of types combo: the multinomial times n_{w=1} / g."""
    count = math.factorial(len(combo))
    for t in set(combo):
        count //= math.factorial(combo.count(t))
    return count * sum(_TYPES[t][0] for t in combo) // len(combo)


def _pair_survivors(ok, a, b, u, v, w):
    """Surviving 6-bit local assignments for the (a, b) transposition,
    given the diagonal bits u, v, w away from {a, b}.  A local assignment
    lists the LAMBDA bits of cells (a,b),(b,a) in the U, V, W grids,
    iterated LAMBDA-first; those cells lie on the probe's graph at
    positions a and b, the diagonal cells everywhere else."""
    sigma = list(range(len(u)))
    sigma[a], sigma[b] = b, a
    sigma = tuple(sigma)
    u, v, w = list(u), list(v), list(w)
    survivors = []
    for bits in itertools.product((1, 0), repeat=6):
        u[a], u[b], v[a], v[b], w[a], w[b] = bits
        lam, xi = _images_direct(u, v, w)
        if ok(sigma, lam) and ok(sigma, xi):
            survivors.append(bits)
    return tuple(survivors)


def _materialize_choice(wm, full, per_pair):
    """Pick one surviving local assignment per transposition pair so the
    XI side keeps a transcendental cell, or None if only all-LAMBDA
    transcendental grids survive.  First-fit in the fixed iteration
    order, so witnesses are reproducible."""
    need_xi_w = wm == full
    choice = {}
    if not need_xi_w:
        for (pair, surv) in per_pair:
            choice[pair] = surv[0]
        return choice
    donor = None
    for (pair, surv) in per_pair:
        for bits in surv:
            if bits[4] == 0 or bits[5] == 0:
                donor = (pair, bits)
                break
        if donor:
            break
    if donor is None:
        return None
    for (pair, surv) in per_pair:
        choice[pair] = donor[1] if pair == donor[0] else surv[0]
    return choice


def _build_witness(g, um, vm, wm, choice):
    U, V, W = set(), set(), set()
    for i in range(g):
        if um >> i & 1:
            U.add((i, i))
        if vm >> i & 1:
            V.add((i, i))
        if wm >> i & 1:
            W.add((i, i))
    for (a, b), bits in choice.items():
        uab, uba, vab, vba, wab, wba = bits
        for (flag, cell, grid) in (
            (uab, (a, b), U),
            (uba, (b, a), U),
            (vab, (a, b), V),
            (vba, (b, a), V),
            (wab, (a, b), W),
            (wba, (b, a), W),
        ):
            if flag:
                grid.add(cell)
    # outer weight slots are invisible to convolution; park them on LAMBDA
    return Candidate(g, frozenset(U), frozenset(V), frozenset(W), frozenset(B_CELLS))


# ---------------------------------------------------------------------------
# PROOFTRACE


def _decide_prooftrace(m):
    g = m.g
    if g == 1:
        return (
            INDECOMPOSABLE,
            [
                _note(
                    "vacuous",
                    "one atom gives a single transcendental cell, so no "
                    "candidate puts transcendental cells on both sides",
                ),
                _note(
                    "conclusion",
                    "only trivial candidates exist; the transcendental "
                    "part is essentially indecomposable",
                ),
            ],
            None,
        )
    steps = [
        _note(
            "diagonal-case",
            "suppose both sides hold a diagonal transcendental cell; the "
            "identity probe sends the sides to -1/2 e_A - 1/2 e_B + 2 e_C "
            "over the diagonal index sets, and both images are integral",
            probe="identity",
        ),
        _note(
            "norm-primitivity",
            "a diagonal index in only one algebraic grid side would leave "
            "a half or three-halves multiple of a primitive norm "
            "idempotent integral; exponents >= 4 forbid that, so both "
            "algebraic grids agree with each other on the diagonal",
        ),
        _note(
            "subsets-lemma",
            "rearranging, 3 id splits as (2 e_A + e_B) + (2 e_A' + e_B') "
            "with both brackets integral; the subsets lemma forces each "
            "diagonal transcendental index set to be empty or everything, "
            "contradicting the split",
        ),
    ]
    if g == 2:
        steps.append(
            _note(
                "unresolved",
                "with the whole diagonal on one side, the other side "
                "still holds an off-diagonal transcendental cell; closing "
                "that case needs a transposition probe with a fixed "
                "coordinate to keep the majority side visible, and g = 2 "
                "transpositions fix nothing, so the derivation stops",
            )
        )
        return UNDECIDED, steps, None
    steps.extend(
        [
            _note(
                "transposition-case",
                "otherwise one side holds the whole diagonal and the other "
                "holds some off-diagonal transcendental cell (i, j); probe "
                "with the transposition that swaps i and j (g >= 3 leaves "
                "it a fixed coordinate); multiplying the integral images "
                "by the integral transposed probe lands in diagonal "
                "idempotents indexed along the probe's graph",
            ),
            _note(
                "norm-primitivity",
                "the same half-multiple exclusions merge the algebraic "
                "grid sides along the graph",
            ),
            _note(
                "subsets-lemma",
                "both graph-index sets of transcendental cells are "
                "nonempty (a fixed coordinate on the diagonal side, the "
                "cell (i, j) on the other) yet the lemma forces each to "
                "be empty or everything; contradiction",
            ),
            _note(
                "conclusion",
                "every nontrivial candidate is refuted; the "
                "transcendental part is essentially indecomposable",
            ),
        ]
    )
    return INDECOMPOSABLE, steps, None


# ---------------------------------------------------------------------------
# serialization


def candidate_to_dict(c):
    """JSON form; atom indices 1-based, weight slots kept as weights."""
    return {
        "g": c.g,
        "u_lambda": sorted([i + 1, j + 1] for (i, j) in c.U_lambda),
        "v_lambda": sorted([i + 1, j + 1] for (i, j) in c.V_lambda),
        "w_lambda": sorted([i + 1, j + 1] for (i, j) in c.W_lambda),
        "l_lambda": sorted([s, t] for (s, t) in c.L_lambda),
    }


def verdict_to_dict(v):
    return {
        "status": v.status,
        "mode": v.mode.lower(),
        "g": v.g,
        "probes": [p.name for p in v.probes],
        "steps": list(v.trace),
        "witness": candidate_to_dict(v.witness) if v.witness is not None else None,
    }


__all__ = [
    "EXHAUSTIVE",
    "PROOFTRACE",
    "INDECOMPOSABLE",
    "SURVIVING_CANDIDATE",
    "UNDECIDED",
    "LAMBDA",
    "XI",
    "B_CELLS",
    "Candidate",
    "Probe",
    "RefutationResult",
    "Verdict",
    "probes_for",
    "eval_probe",
    "refute",
    "decide",
    "candidate_to_dict",
    "verdict_to_dict",
]

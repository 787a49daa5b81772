"""Decision procedure for essential decompositions of the transcendental
part of a product-of-isogenous-elliptic-curves surface.

A candidate decomposition assigns a side label, LAMBDA or XI, to every
cell of the three g x g projector grids (the two algebraic grids and the
transcendental grid) and to the eight remaining weight slots.  The
procedure probes candidates with permutation correspondences:
convolution against the probe sends each side of a candidate to an
endomorphism of the glued product of CM elliptic curves, and both images
have to be integral.

EXHAUSTIVE mode enumerates every nontrivial candidate for g <= 20,
factored through the per-probe restrictions and taken one class of
diagonal c values (c = 4w - u - v per atom, six values) at a time, and
refutes them probe by probe.  PROOFTRACE mode replays the symbolic
two-case argument at any g and emits the derivation as a trace.

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
    AXIOMATIC,
    LATTICE,
    PermEndoSpec,
    _transposition,
    endo_to_jsonable,
    exponent_failure,
    first_bad_swap,
    full_grid,
    is_integral,
    monomial_is_integral,
    perm_endo,
    rosati,
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

# C(g + 5, 5) classes of c values: 53,130 at g = 20
EXHAUSTIVE_MAX_G = 20

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
        if len(moved) != 2:
            raise InvalidInput(
                "probe %r is neither the identity nor a transposition" % (self.sigma,)
            )
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
            out.append(Probe(_transposition(g, a, b), m))
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
        _hypothesis_gate(m, [])
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


# above this g a failing probe is reported without first scanning all
# 2^g - 2 subsets for an exponent failure
_SUBSET_SCAN_MAX_G = 10

# the (hypothesis, probe-validity) notes of a passed gate, per model mode,
# or per (mode, g) where g changes what the gate checked
_GATE_NOTES = {
    LATTICE: (
        "every proper nonempty subset has exponent >= 4 (verified on the lattice)",
        "all transposition probes and their Rosati transforms are integral "
        "(verified on the lattice)",
    ),
    AXIOMATIC: (
        "declared atom exponents verified >= 4; union exponents >= 4 "
        "assumed with the declared data",
        "probe integrality holds in the source of the declared data; assumed",
    ),
}
# one atom has no proper subset, so no declared exponent is checked, and
# no transposition probe, so no probe is checked or assumed
_G1_PROBE_NOTE = (
    "one atom has no transposition probe; probe integrality holds vacuously"
)
_GATE_NOTES[LATTICE, 1] = (_GATE_NOTES[LATTICE][0], _G1_PROBE_NOTE)
_GATE_NOTES[AXIOMATIC, 1] = (
    "one atom has no proper nonempty subset; the exponent hypothesis holds "
    "vacuously",
    _G1_PROBE_NOTE,
)


def _hypothesis_gate(m, trace):
    """Check what the argument needs before any probing, and note it.

    The exponent hypothesis, n_K >= 4 on every proper nonempty K, is
    cmlat.exponent_failure, the check the subsets lemma makes: computed
    on a lattice, and on an AXIOMATIC model the declared atom exponents
    plus the declared assume_proper_ge4 for unions. Probe integrality is
    cmlat.first_bad_swap on a lattice, one swap query per probe and g - 1
    in all when the adjacent swaps pass; an AXIOMATIC model assumes it.

    In LATTICE mode the probes go first. Once every plain swap is
    integral, S_g acts on the lattice, so n_K depends on |K| alone and
    K = {1..s} stands for every subset of size s; every later diagonal
    query depends only on its sorted entries (_decide_exhaustive). A
    failing probe at g <= 10 sends the gate through all 2^g - 2 subsets
    instead, so an exponent failure is still reported first, at its first
    K in size-then-lex order; above g = 10 the failing probe is reported
    without that scan."""
    bad_swap = first_bad_swap(m) if m.mode == LATTICE else None
    failure = None
    if bad_swap is None or m.g <= _SUBSET_SCAN_MAX_G:
        failure = exponent_failure(m)
    if failure is None and bad_swap is not None:
        failure = ("probe %s is not an integral endomorphism of this model"
                   % Probe(bad_swap, m).name)
    if failure is not None:
        raise HypothesisError(failure)
    notes = _GATE_NOTES.get((m.mode, m.g), _GATE_NOTES[m.mode])
    for rule, note in zip(("hypothesis", "probe-validity"), notes):
        trace.append(_note(rule, note))


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

    EXHAUSTIVE (lattice models, g <= 20): enumerate all nontrivial
    candidates up to the side swap, factored through per-probe
    restrictions and taken one class of diagonal assignments at a time
    (those with the same multiset of c = 4w - u - v, C(g + 5, 5)
    classes), and refute each.  PROOFTRACE (any g): replay the
    symbolic argument.  INDECOMPOSABLE means every nontrivial candidate
    is refuted; SURVIVING_CANDIDATE reports one that no probe refutes
    (without asserting decomposability); UNDECIDED means the symbolic
    argument does not close."""
    if mode not in (EXHAUSTIVE, PROOFTRACE):
        raise InvalidInput("unknown mode %r" % (mode,))
    if mode == EXHAUSTIVE:
        # ahead of the hypothesis gate, so a request exhaustive search
        # cannot serve is refused whatever the gate would say
        if m.g > EXHAUSTIVE_MAX_G:
            raise InvalidInput(
                "exhaustive search is bounded to g <= %d" % EXHAUSTIVE_MAX_G
            )
        if m.mode != LATTICE:
            raise UnsupportedQuery(
                "exhaustive search needs a lattice model; axiomatic "
                "integrality does not cover off-diagonal probe images"
            )
    probes = probes_for(m)
    trace = [_note("trusted-reduction", TRUSTED_REDUCTION)]
    _hypothesis_gate(m, trace)
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

# c = 4w - u - v, the one number by which a coordinate enters a probe image
# (_images_direct), in descending order; c >= 2 exactly when w = 1
_CS = (4, 3, 2, 0, -1, -2)

# the indices into _TYPES of the types with each c: two each for c = 3
# and c = -1, one for the others
_TYPES_OF_C = {
    c: tuple(t for t, (w, u, v) in enumerate(_TYPES) if 4 * w - u - v == c)
    for c in _CS
}


def _decide_exhaustive(m, probes):
    """Refute every diagonal assignment, one class of c values at a time.

    Precondition: every plain swap of two atoms is integral. The gate
    proves it before any search; the symmetric lattices of the tests
    below the gate have it too. Then S_g acts on the lattice, and
    relabelling the atoms changes no integrality answer:
    - a probe image with nums[i] / 2 at (sigma(i), i) is S_sigma *
      diag(nums / 2), and S_sigma is an integral involution, so it is
      integral iff the diagonal is, and that depends only on
      sorted(nums): one memo serves every probe;
    - the survivors of a transposition depend only on the other g - 2
      coordinates, so they are computed once per multiset of those, and
      only on the c pair of its own two cells, so each of the 21 pairs
      is decided once (_pair_survivors).

    A coordinate enters every image only through c = 4w - u - v, so an
    assignment is decided by the multiset of its c values, its class:
    C(g + 5, 5) classes, of which those holding some c >= 2 (w = 1) are
    walked. A class counts for its multinomial * 2^(n_3 + n_-1) *
    n_{c>=2} / g assignments with W(1,1) on LAMBDA (_class_weight); the
    walked classes weigh 2^(3g - 1) in all, so only the classes the
    identity probe passes are weighed, and it killed the rest. The kill
    counts stay exact. The first survivor, and the witness, are
    those of a scan over every mask in (wm, um, vm) order: the least
    _masks over the type multisets of the surviving classes."""
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
        """The surviving local assignments of a transposition whose other
        g - 2 coordinates have the c values rest, in descending order."""
        got = pair_memo.get(rest)
        if got is None:
            got = pair_memo[rest] = _pair_survivors(ok, rest)
        return got

    # every assignment with W(1,1) on LAMBDA
    diag_total = 1 << 3 * g - 1
    diag_passed = 0
    diag_killed_pairs = 0
    diag_trivial_only = 0
    open_classes = []
    for cs in itertools.combinations_with_replacement(_CS, g):
        if cs[0] < 2:
            break  # no w = 1 from here on (W(1,1) pinned by the side swap)
        if not (ok(cs) and ok([2 - c for c in cs])):
            continue
        weight = _class_weight(cs)
        diag_passed += weight
        per_rest = [(rest, pair_survivors(rest)) for rest in _rests(cs)]
        if not all(surv for _, surv in per_rest):
            diag_killed_pairs += weight
        elif _materialize_choice(cs[-1] >= 2, per_rest) is None:
            diag_trivial_only += weight
        else:
            open_classes.append(cs)
    if open_classes:
        combo = min(
            (combo for cs in open_classes for combo in _type_splits(cs)),
            key=_masks,
        )
        wm, um, vm = _masks(combo)
        c_at = [4 * w - u - v for w, u, v in (_TYPES[t] for t in combo)]
        per_pair = []
        for a, b in itertools.combinations(range(g), 2):
            rest = c_at[:a] + c_at[a + 1:b] + c_at[b + 1:]
            per_pair.append(((a, b), pair_survivors(tuple(sorted(rest, reverse=True)))))
        choice = _materialize_choice(wm == (1 << g) - 1, per_pair)
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
            "(side swap quotiented out)" % (diag_total - diag_passed, diag_total),
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


def _class_weight(cs):
    """How many diagonal assignments with W(1,1) on LAMBDA have the c
    values cs: the multinomial of the c counts, times 2^(n_3 + n_-1) for
    the two types behind each c = 3 and c = -1, times n_{c>=2} / g."""
    counts = [cs.count(c) for c in _CS]
    n4, n3, n2, _, n_1, _ = counts
    count = math.factorial(len(cs))
    for n in counts:
        count //= math.factorial(n)
    return (count << n3 + n_1) * (n4 + n3 + n2) // len(cs)


def _rests(cs):
    """The c values left by removing two coordinates from the descending
    cs, once per distinct result, each in descending order."""
    out = []
    for x, y in itertools.combinations_with_replacement(sorted(set(cs), reverse=True), 2):
        rest = list(cs)
        rest.remove(x)
        if y in rest:
            rest.remove(y)
            out.append(tuple(rest))
    return out


def _type_splits(cs):
    """The type multisets, as sorted _TYPES indices, whose c values are
    cs: (n_3 + 1)(n_-1 + 1) of them."""
    choices = [
        itertools.combinations_with_replacement(_TYPES_OF_C[c], cs.count(c))
        for c in sorted(set(cs))
    ]
    for parts in itertools.product(*choices):
        yield tuple(sorted(itertools.chain(*parts)))


def _masks(combo):
    """(wm, um, vm): the diagonal masks of the types combo lists, the
    type at position i giving bit i."""
    w, u, v = zip(*(_TYPES[t] for t in combo))
    return tuple(sum(bit << i for i, bit in enumerate(bits)) for bits in (w, u, v))


# the 64 local assignments of a transposition of atoms a < b, LAMBDA-first:
# the LAMBDA bits of cells (a,b),(b,a) in the U, V, W grids, each with its
# c values (c_ab, c_ba) sorted, the LAMBDA image's first two numerators
_PAIR_PATTERNS = tuple(
    (bits, tuple(sorted(_images_direct(bits[0:2], bits[2:4], bits[4:6])[0])))
    for bits in itertools.product((1, 0), repeat=6)
)
# the 21 c pairs they take
_C_PAIRS = tuple(sorted({pair for _, pair in _PAIR_PATTERNS}))


def _pair_survivors(ok, rest):
    """Surviving 6-bit local assignments for a transposition of two atoms,
    given the c values rest of the others, in _PAIR_PATTERNS order.
    ok(nums) answers for the images on the probe's graph, which holds the
    cells (a,b),(b,a) at its first two places and the diagonal cells of
    the others after them. An assignment enters both images only through
    its c pair, and ok through sorted(nums), so each of the 21 unordered
    c pairs is decided once and the patterns read their pair's answer."""
    rest_xi = tuple(2 - c for c in rest)
    alive = {
        pair: ok(pair + rest) and ok((2 - pair[0], 2 - pair[1]) + rest_xi)
        for pair in _C_PAIRS
    }
    return tuple(bits for bits, pair in _PAIR_PATTERNS if alive[pair])


def _materialize_choice(need_xi_w, per_pair):
    """Pick one surviving local assignment per transposition pair so the
    XI side keeps a transcendental cell, or None if only all-LAMBDA
    transcendental grids survive.  need_xi_w says the diagonal holds no
    XI transcendental cell.  First-fit in the fixed iteration order, so
    witnesses are reproducible."""
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

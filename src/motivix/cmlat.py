"""Lattice model of a CM abelian variety J isogenous to E^g.

Holds the endomorphism arithmetic the decision procedure runs on: integral
endomorphisms, exponents of abelian subvarieties, subset idempotents,
permutation endomorphisms, the Rosati transpose, and the subsets-lemma
engine.

Conventions (fixed once, everything downstream depends on them):
- the endomorphism order O is Z[sqrt(-d)], or Z[(1+sqrt(-d))/2] when
  d = 3 mod 4 and maximal_order is set;
- realification Q(sqrt(-d))^g -> Q^{2g} interleaves (rational part,
  sqrt(-d)-coefficient) per coordinate;
- composite gamma classes: gamma_b^T gamma_a = n_a * E[b][a], so
  e_i = E[i][i] and rosati(M) = D^-1 conj(M)^T D with D = diag(n_1..n_g);
- composition is plain matrix multiplication in column convention.

Indices are 0-based internally; 1-based only at the JSON/CLI boundary.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

from .errors import (
    InvalidInput,
    LatticeError,
    PreconditionError,
    ShapeError,
    UnsupportedQuery,
    VerificationError,
)
from .exact import QuadInt, Rat, ZLattice, _is_int

LATTICE = "LATTICE"
AXIOMATIC = "AXIOMATIC"

CONSISTENT = "CONSISTENT"
VIOLATES = "VIOLATES"

# glue coordinates are limited to this common denominator, which keeps
# the divisor scans behind exponents short
MAX_GLUE_DENOMINATOR = 10 ** 6

# g is limited to this bound: the lattice basis has (2g)^2 entries and
# prooftrace lists g(g-1)/2 probes; a lattice prooftrace at g = 64 takes
# about 0.4 s on a 2-vCPU host, build_model included
MAX_G = 64

_ZERO = Rat(0)

_UNASKED = object()  # a per-model answer not yet computed

__all__ = [
    "LATTICE",
    "AXIOMATIC",
    "CONSISTENT",
    "VIOLATES",
    "AbelianModel",
    "EndoQ",
    "PermEndoSpec",
    "build_model",
    "is_integral",
    "monomial_is_integral",
    "exponent",
    "subset_idempotent",
    "perm_endo",
    "full_grid",
    "rosati",
    "subsets_lemma_check",
    "proper_nonempty_subsets",
    "model_to_dict",
    "model_from_dict",
    "endo_to_jsonable",
    "endo_from_jsonable",
    "rat_to_jsonable",
    "endo_identity",
    "endo_zero",
    "verify_proper_exponents",
    "exponent_failure",
    "swap_is_integral",
    "first_bad_swap",
    "swaps_are_integral",
]


def _quad(x, d):
    """The rational x as a QuadInt over d, which the caller has checked."""
    return QuadInt._make(Rat(x), _ZERO, d)


class EndoQ:
    """An element of End_Q(J): a g x g matrix over Q(sqrt(-d)), held as
    rows, a tuple of g tuples of QuadInts over d."""

    __slots__ = ("rows", "d")

    def __init__(self, rows, d):
        rows = tuple(tuple(row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ShapeError("EndoQ needs a nonempty square matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("EndoQ is immutable")

    @classmethod
    def from_rows(cls, rows, d):
        """Entries are QuadInts over d or rationals; d is checked once."""
        d = QuadInt.check_d(d)
        qrows = []
        for row in rows:
            qrow = []
            for x in row:
                if isinstance(x, QuadInt):
                    if x.d != d:
                        raise InvalidInput("entry in Q(sqrt(-%d)), expected d=%d" % (x.d, d))
                    qrow.append(x)
                else:
                    qrow.append(_quad(x, d))
            qrows.append(qrow)
        return cls(qrows, d)

    @property
    def g(self):
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def _check_same(self, other, shape_msg):
        """ShapeError unless other has the same g, InvalidInput unless
        the same d."""
        if self.g != other.g:
            raise ShapeError(shape_msg % (self.g, self.g, other.g, other.g))
        if self.d != other.d:
            raise InvalidInput("mixed quadratic fields: d=%d vs d=%d" % (self.d, other.d))

    def _map(self, fn):
        return EndoQ([[fn(x) for x in row] for row in self.rows], self.d)

    def __add__(self, other):
        if not isinstance(other, EndoQ):
            return NotImplemented
        self._check_same(other, "add: %dx%d vs %dx%d")
        return EndoQ([map(operator.add, r, s) for r, s in zip(self.rows, other.rows)], self.d)

    def __sub__(self, other):
        if not isinstance(other, EndoQ):
            return NotImplemented
        self._check_same(other, "sub: %dx%d vs %dx%d")
        return EndoQ([map(operator.sub, r, s) for r, s in zip(self.rows, other.rows)], self.d)

    def __neg__(self):
        return self._map(operator.neg)

    def __mul__(self, other):
        # composition when other is an EndoQ, otherwise scalar scaling
        if not isinstance(other, EndoQ):
            return self.scale(other)
        self._check_same(other, "mul: %dx%d times %dx%d")
        cols = list(zip(*other.rows))
        return EndoQ(
            [[reduce(operator.add, map(operator.mul, row, col)) for col in cols]
             for row in self.rows],
            self.d,
        )

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if not isinstance(c, QuadInt):
            c = _quad(c, self.d)
        return self._map(lambda x: c * x)

    def conj(self):
        return self._map(QuadInt.conj)

    def is_zero(self):
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, EndoQ):
            return NotImplemented
        return self.d == other.d and self.rows == other.rows

    def __hash__(self):
        return hash((self.d, self.rows))

    def __repr__(self):
        return "EndoQ(d=%d, %r)" % (self.d, [list(r) for r in self.rows])


@dataclass(frozen=True)
class PermEndoSpec:
    """A permutation sigma of {0..g-1} with a restriction set U of cells
    (i, j) in I^2; describes the endomorphism sigma_U."""

    sigma: tuple
    U: frozenset

    def __post_init__(self):
        g = len(self.sigma)
        if sorted(self.sigma) != list(range(g)):
            raise InvalidInput("sigma is not a permutation of 0..%d" % (g - 1))
        for cell in self.U:
            if (
                not isinstance(cell, tuple)
                or len(cell) != 2
                or not all(0 <= c < g for c in cell)
            ):
                raise InvalidInput("U cell %r out of range for g=%d" % (cell, g))


def full_grid(g):
    return frozenset((i, j) for i in range(g) for j in range(g))


def _divisors_sorted(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


class AbelianModel:
    """A CM abelian variety J ~ E^g, either as an explicit lattice
    Lambda = O^g + glue (LATTICE mode) or as axiomatic exponent data
    (AXIOMATIC mode)."""

    def __init__(self, d, g, glue, mode, lattice, atom_exponents,
                 maximal_order, assume_proper_ge4):
        self.d = d
        self.g = g
        self.glue = glue
        self.mode = mode
        self.lattice = lattice
        self._atom_exps = atom_exponents
        self.maximal_order = maximal_order
        self.assume_proper_ge4 = assume_proper_ge4
        self._exp_cache = {}
        self._grids = None  # corr.GridProjectors, built on the first probe
        self._proper_ge4_verified = None
        self._bad_swap = _UNASKED  # see first_bad_swap

    @property
    def atom_exponents(self):
        if self._atom_exps is None:
            self._atom_exps = tuple(
                exponent(self, frozenset([i])) for i in range(self.g)
            )
        return self._atom_exps

    def __repr__(self):
        return "AbelianModel(d=%d, g=%d, mode=%s)" % (self.d, self.g, self.mode)


def _coerce_glue_vector(vec, g, d):
    if len(vec) != g:
        raise LatticeError("glue vector has length %d, expected g=%d" % (len(vec), g))
    out = []
    for x in vec:
        if isinstance(x, QuadInt):
            if x.d != d:
                raise LatticeError("glue coordinate in Q(sqrt(-%d)), expected d=%d" % (x.d, d))
            out.append(x)
        elif isinstance(x, (tuple, list)):
            if len(x) != 2:
                raise LatticeError("glue coordinate %r is not a (rational, coefficient) pair" % (x,))
            out.append(QuadInt._make(Rat(x[0]), Rat(x[1]), d))
        else:
            out.append(_quad(x, d))
    return tuple(out)


def build_model(d, g, glue=(), mode=LATTICE, exponents=None,
                maximal_order=False, assume_proper_ge4=False):
    """Construct an AbelianModel.

    glue: vectors in Q(sqrt(-d))^g; coordinates may be rationals, (a, b)
    pairs meaning a + b*sqrt(-d), or QuadInt.
    """
    if not _is_int(d) or not _is_int(g):
        raise InvalidInput("d and g must be integers, got d=%r, g=%r" % (d, g))
    if g < 1:
        raise InvalidInput("g must be >= 1, got %r" % (g,))
    if g > MAX_G:
        raise InvalidInput("g = %d exceeds the bound MAX_G = %d" % (g, MAX_G))
    if mode not in (LATTICE, AXIOMATIC):
        raise InvalidInput("mode must be LATTICE or AXIOMATIC, got %r" % (mode,))
    # each flag acts in one mode only; set in the other it would do nothing
    if maximal_order and mode == AXIOMATIC:
        raise InvalidInput("maximal_order shapes the lattice; an AXIOMATIC model has none")
    if assume_proper_ge4 and mode == LATTICE:
        raise InvalidInput(
            "assume_proper_ge4 declares AXIOMATIC data; a LATTICE model computes its exponents"
        )
    if maximal_order and d % 4 != 3:
        raise InvalidInput("maximal order differs from Z[sqrt(-d)] only for d = 3 mod 4")
    d = QuadInt.check_d(d)  # the model's one check of d
    glue_vecs = tuple(_coerce_glue_vector(v, g, d) for v in glue)
    den = math.lcm(*(q.denominator for v in glue_vecs for x in v for q in (x.a, x.b)))
    if den > MAX_GLUE_DENOMINATOR:
        # the bit length, since a long denominator has too many digits
        # to print
        raise InvalidInput(
            "glue coordinates have a common denominator of %d bits, above %d"
            % (den.bit_length(), MAX_GLUE_DENOMINATOR)
        )
    if exponents is not None:
        exponents = tuple(exponents)
        if not all(map(_is_int, exponents)):
            raise InvalidInput("exponents must be integers, got %r" % (exponents,))
    if mode == AXIOMATIC:
        if glue_vecs:
            raise InvalidInput("AXIOMATIC mode takes no glue vectors")
        if exponents is None:
            raise InvalidInput("AXIOMATIC mode requires the atom exponents")
        if len(exponents) != g:
            raise InvalidInput("expected %d exponents, got %d" % (g, len(exponents)))
        if any(n < 1 for n in exponents):
            raise InvalidInput("exponents must be >= 1, got %r" % (exponents,))
        if g == 1 and exponents[0] != 1:
            raise InvalidInput("n_I must be 1, got %d for g=1" % exponents[0])
        return AbelianModel(d, g, glue_vecs, AXIOMATIC, None, exponents,
                            maximal_order, assume_proper_ge4)
    if maximal_order:
        den = math.lcm(den, 2)
    # the generators of O^g, 1 and w = sqrt(-d) or (1 + sqrt(-d))/2 in each
    # coordinate, and the glue, realified (a + b sqrt(-d) -> (a, b)) as
    # integer rows over den
    w = [den // 2, den // 2] if maximal_order else [0, den]
    rows = []
    for i in range(g):
        pad, rest = [0] * (2 * i), [0] * (2 * (g - i - 1))
        rows += (pad + [den, 0] + rest, pad + w + rest)
    rows += [[q.numerator * (den // q.denominator) for x in v for q in (x.a, x.b)]
             for v in glue_vecs]
    lattice = ZLattice.from_rows(rows, den)
    model = AbelianModel(d, g, glue_vecs, LATTICE, lattice, None,
                         maximal_order, assume_proper_ge4)
    if exponents is not None:
        got = model.atom_exponents
        if exponents != got:
            raise InvalidInput(
                "supplied exponents %r disagree with computed %r" % (exponents, got)
            )
    return model


# ---------------------------------------------------------------------------
# idempotents and permutation endomorphisms


def _check_subset(m, K):
    K = frozenset(K)
    if not all(map(_is_int, K)):
        raise InvalidInput("atom indices must be integers, got %r" % (list(K),))
    if any(not 0 <= i < m.g for i in K):
        raise InvalidInput("subset %r out of range for g=%d" % (sorted(K), m.g))
    return K


def subset_idempotent(m, K):
    """e_K: the diagonal idempotent cutting out the factors in K."""
    K = _check_subset(m, K)
    zero, one = _quad(0, m.d), _quad(1, m.d)
    return EndoQ([[one if (i == j and i in K) else zero for j in range(m.g)]
                  for i in range(m.g)], m.d)


def endo_identity(m):
    return subset_idempotent(m, range(m.g))


def endo_zero(m):
    return subset_idempotent(m, [])


def perm_endo(m, spec):
    """The endomorphism sigma_U = sum over i with (i, sigma(i)) in U of
    (n_sigma(i)/n_i) E[i][sigma(i)]; sigma_J when U is the full grid."""
    if len(spec.sigma) != m.g:
        raise ShapeError("sigma on %d letters, model has g=%d" % (len(spec.sigma), m.g))
    n = m.atom_exponents
    zero = _quad(0, m.d)
    rows = [[zero] * m.g for _ in range(m.g)]
    for i in range(m.g):
        j = spec.sigma[i]
        if (i, j) in spec.U:
            rows[i][j] = _quad(Rat(n[j], n[i]), m.d)
    return EndoQ(rows, m.d)


def rosati(x, m):
    """The Rosati involution: M -> D^-1 conj(M)^T D with D = diag(n_i)."""
    if x.g != m.g:
        raise ShapeError("endomorphism size %d vs g=%d" % (x.g, m.g))
    n = m.atom_exponents
    rows = [
        [x.entry(j, i).conj() * Rat(n[j], n[i]) for j in range(m.g)]
        for i in range(m.g)
    ]
    return EndoQ(rows, m.d)


# ---------------------------------------------------------------------------
# integrality


def is_integral(m, x):
    """LATTICE mode: x is integral iff x . Lambda subset Lambda.

    AXIOMATIC mode: decided only for diagonal rational x (the e_K span)
    by the primitivity/shift/divisibility rules; raises UnsupportedQuery
    when the axioms cannot settle the query.
    """
    if not isinstance(x, EndoQ):
        raise InvalidInput("is_integral expects an EndoQ")
    if x.g != m.g:
        raise ShapeError("endomorphism size %d vs g=%d" % (x.g, m.g))
    if x.d != m.d:
        raise InvalidInput("endomorphism over d=%d, model d=%d" % (x.d, m.d))
    if m.mode == LATTICE:
        L, X = _realify_endo(x)
        return _maps_into(m, L, lambda h: [sum(map(operator.mul, r, h)) for r in X])
    for i in range(m.g):
        for j in range(m.g):
            e = x.entry(i, j)
            if i == j:
                if e.b != 0:
                    raise UnsupportedQuery(
                        "axiomatic integrality is defined only on the e_K span "
                        "(diagonal rational matrices); entry (%d,%d) has a "
                        "sqrt(-d) part" % (i + 1, j + 1)
                    )
            elif not e.is_zero():
                raise UnsupportedQuery(
                    "axiomatic integrality is defined only on the e_K span; "
                    "off-diagonal entry at (%d,%d)" % (i + 1, j + 1)
                )
    return _axiomatic_is_integral(m, [x.entry(i, i).a for i in range(m.g)])


def monomial_is_integral(m, sigma, nums, den):
    """is_integral for the LATTICE model m and the rational endomorphism
    with entry nums[i] / den at (sigma[i], i) and zeros elsewhere (sigma a
    permutation, den > 0), without building it as an EndoQ."""
    pairs = [(2 * i, 2 * j, c) for i, (j, c) in enumerate(zip(sigma, nums)) if c]

    def image(h):
        w = [0] * len(h)
        for i, j, c in pairs:
            w[j] = c * h[i]
            w[j + 1] = c * h[i + 1]
        return w

    return _maps_into(m, den, image)


def _maps_into(m, L, image):
    """The integrality kernel, in plain ints. The lattice is H / den for
    its integer HNF basis H, so x is integral iff x maps each row h / den
    of that basis into it, i.e. iff (L x) h lies in L times the row span
    of H. image(h) is the integer vector (L x) h, realified."""
    return all(m.lattice.spans(image(h), L) for h in m.lattice.hbasis)


def _realify_endo(x):
    """(L, X): L the lcm of the denominators of x, X the integer 2g x 2g
    matrix of L x acting on realified column vectors."""
    L = 1
    for row in x.rows:
        for e in row:
            L = math.lcm(L, e.a.denominator, e.b.denominator)
    d = x.d
    X = []
    for row in x.rows:
        re_row, im_row = [], []
        for e in row:
            # (a + b w)(u + v w) = (a u - d b v) + (b u + a v) w, w^2 = -d
            a = e.a.numerator * (L // e.a.denominator)
            b = e.b.numerator * (L // e.b.denominator)
            re_row += (a, -d * b)
            im_row += (b, a)
        X.append(re_row)
        X.append(im_row)
    return L, X


def _crt_solvable(congs):
    """Whether t = r mod n has a common solution across all (r, n)."""
    r0, m0 = 0, 1
    for r, n in congs:
        gcd = math.gcd(m0, n)
        if (r - r0) % gcd:
            return False
        step = n // gcd
        if step > 1:
            k = ((r - r0) // gcd * pow(m0 // gcd, -1, step)) % step
        else:
            k = 0
        lcm = m0 // gcd * n
        r0 = (r0 + m0 * k) % lcm
        m0 = lcm
    return True


def _axiomatic_is_integral(m, cs):
    """Integrality of diag(cs) on the AXIOMATIC model m, cs rationals."""
    # q*e_i with q not an integer is never integral: iterating x would give
    # unbounded denominators inside the finite group Lambda/O^g
    if any(c.denominator != 1 for c in cs):
        return False
    cs = [c.numerator for c in cs]
    n = m.atom_exponents
    # shift certificate: t = c_i mod n_i for all i makes
    # x = t*id + sum_i ((c_i - t)/n_i) * (n_i e_i), a sum of integrals
    if _crt_solvable(list(zip(cs, n))):
        return True
    # divisibility certificates: for each value v, the product over the other
    # values of (x - u*id) is integral and equals M_v * e_{K_v}, so n_{K_v}
    # must divide M_v
    values = sorted(set(cs))
    for v in values:
        K_v = [i for i, c in enumerate(cs) if c == v]
        if len(K_v) == m.g:
            continue
        M_v = 1
        for u in values:
            if u != v:
                M_v *= v - u
        if len(K_v) == 1:
            if M_v % n[K_v[0]]:
                return False
        elif m.assume_proper_ge4 and 0 < abs(M_v) < 4:
            # n_{K_v} >= 4 cannot divide a smaller nonzero product
            return False
    raise UnsupportedQuery(
        "axiomatic integrality undecided for diagonal pattern %r with "
        "exponents %r" % (cs, list(n))
    )


# ---------------------------------------------------------------------------
# exponents


def exponent(m, K):
    """n_K: the minimal positive integer with n_K * e_K integral.

    On a lattice model n_K divides den, the denominator of the lattice
    basis: Lambda = H / den lies in (1/den) Z^{2g}, and Z^{2g} lies in
    O^g, inside Lambda, so den * e_K maps Lambda into Lambda. The t with
    t * e_K integral form an ideal of Z, so the first divisor of den that
    passes is n_K."""
    K = _check_subset(m, K)
    if not K or len(K) == m.g:
        return 1
    if m.mode == AXIOMATIC:
        if len(K) == 1:
            return m.atom_exponents[next(iter(K))]
        raise UnsupportedQuery(
            "exponent of %r is not derivable from atom exponents alone"
            % (sorted(i + 1 for i in K),)
        )
    if K in m._exp_cache:
        return m._exp_cache[K]
    ident = tuple(range(m.g))
    for t in _divisors_sorted(m.lattice.den):
        if monomial_is_integral(m, ident, [t if i in K else 0 for i in ident], 1):
            m._exp_cache[K] = t
            return t
    raise VerificationError("no exponent found; den * e_K must be integral")


# ---------------------------------------------------------------------------
# the subsets lemma


def proper_nonempty_subsets(g):
    for size in range(1, g):
        for K in itertools.combinations(range(g), size):
            yield frozenset(K)


def _transposition(g, a, b):
    sigma = list(range(g))
    sigma[a], sigma[b] = b, a
    return tuple(sigma)


def swap_is_integral(m, a, b):
    """Whether the plain swap of atoms a and b, the permutation matrix
    with 1 at (sigma(i), i) for their transposition sigma, is integral on
    the LATTICE model m.

    It decides the transposition probe for (a, b) as well. The probe holds
    n_j / n_sigma(j) at (sigma(j), j), and its Rosati transform is the
    swap S. If S is integral, then S Lambda = Lambda as S is an
    involution, so S e_a S = e_b gives n_a = n_b, and the probe is S
    itself."""
    return monomial_is_integral(m, _transposition(m.g, a, b), [1] * m.g, 1)


def first_bad_swap(m):
    """The first transposition sigma in probe order, (0 1), (0 2), ...,
    (1 2), ..., whose plain swap is not integral on the LATTICE model m,
    or None. Asked once per model.

    The g - 1 adjacent swaps generate S_g, and the integral swaps form a
    group: an integral swap maps Lambda onto itself. So when the adjacent
    swaps pass every swap does, and S_g acts on the lattice by permuting
    the atoms; only a failing one sends the check through every pair."""
    if m._bad_swap is _UNASKED:
        g = m.g
        m._bad_swap = None
        if not all(swap_is_integral(m, a, a + 1) for a in range(g - 1)):
            a, b = next(pair for pair in itertools.combinations(range(g), 2)
                        if not swap_is_integral(m, *pair))
            m._bad_swap = _transposition(g, a, b)
    return m._bad_swap


def swaps_are_integral(m):
    """Whether every plain swap of two atoms is integral on the LATTICE
    model m (first_bad_swap)."""
    return first_bad_swap(m) is None


def verify_proper_exponents(m):
    """Check n_K >= 4 for every proper nonempty K; returns None when the
    check holds, else the first offending (K, n_K) in size-then-lex order.

    On a lattice model whose swaps are integral, S_g permutes the atoms,
    so n_K depends on |K| alone and K = {0..s-1} stands for every K of
    size s: g - 1 exponents instead of 2^g - 2, with the same answer."""
    if m.mode == AXIOMATIC:
        if m.g == 1:
            return None  # no proper nonempty subsets at all
        for i, n in enumerate(m.atom_exponents):
            if n < 4:
                return frozenset([i]), n
        if not m.assume_proper_ge4:
            return None, None  # unions not certified
        return None
    if m._proper_ge4_verified:
        return None
    if swaps_are_integral(m):
        subsets = (frozenset(range(s)) for s in range(1, m.g))
    else:
        subsets = proper_nonempty_subsets(m.g)
    for K in subsets:
        n = exponent(m, K)
        if n < 4:
            return K, n
    m._proper_ge4_verified = True
    return None


def exponent_failure(m):
    """Why m fails the exponent hypothesis, n_K >= 4 for every proper
    nonempty K, as the message both the decision gate and the subsets
    lemma raise; None when it holds (verify_proper_exponents)."""
    bad = verify_proper_exponents(m)
    if bad is None:
        return None
    K, n = bad
    if K is None:
        return (
            "AXIOMATIC model does not certify exponents >= 4 for unions "
            "of atoms; build it with assume_proper_ge4"
        )
    if m.mode == AXIOMATIC:
        return "exponent hypothesis fails: atom %d has exponent %d < 4" % (min(K) + 1, n)
    return "exponent hypothesis fails: n_%r = %d < 4" % (sorted(i + 1 for i in K), n)


def subsets_lemma_check(m, A, B):
    """Check one instance of the subsets lemma: if 2e_A + e_B is integral
    then A and B must both be empty or everything.

    Returns CONSISTENT or VIOLATES (a VIOLATES would be a counterexample).
    Precondition: every proper nonempty K has n_K >= 4; verified in LATTICE
    mode, and required as declared axiomatic data in AXIOMATIC mode.
    """
    A = _check_subset(m, A)
    B = _check_subset(m, B)
    failure = exponent_failure(m)
    if failure is not None:
        raise PreconditionError(failure)
    ident = tuple(range(m.g))
    nums = [2 * (i in A) + (i in B) for i in ident]
    if m.mode == LATTICE:
        integral = monomial_is_integral(m, ident, nums, 1)
    else:
        integral = _axiomatic_is_integral(m, nums)
    allowed = len(A) in (0, m.g) and len(B) in (0, m.g)
    if integral and not allowed:
        return VIOLATES
    return CONSISTENT


# ---------------------------------------------------------------------------
# JSON model description


def rat_to_jsonable(x):
    """A rational as its [numerator, denominator] pair."""
    x = Rat(x)
    return [x.numerator, x.denominator]


def _from_pair(p):
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise InvalidInput("rational must be a [numerator, denominator] pair, got %r" % (p,))
    num, den = p
    if not _is_int(num) or not _is_int(den) or den == 0:
        raise InvalidInput("bad rational pair %r" % (p,))
    return Rat(num, den)


def _parse_coord(entry, what):
    """(a, b) for a + b sqrt(-d) given as [[an, ad], [bn, bd]], or as the
    shorthand [num, den] for a rational."""
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        if all(_is_int(c) for c in entry):
            return _from_pair(entry), Rat(0)
        return _from_pair(entry[0]), _from_pair(entry[1])
    raise InvalidInput("bad %s %r" % (what, entry))


def endo_to_jsonable(x):
    """Row-major nested list with each entry as [[an, ad], [bn, bd]]."""
    return [
        [[rat_to_jsonable(q.a), rat_to_jsonable(q.b)] for q in row]
        for row in x.rows
    ]


def endo_from_jsonable(rows, m):
    """The endomorphism of m that endo_to_jsonable writes as rows; an
    entry may also be the [num, den] shorthand for a rational."""
    if not isinstance(rows, list) or len(rows) != m.g:
        raise InvalidInput("endomorphism must be a %d-row matrix" % m.g)
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != m.g:
            raise InvalidInput("endomorphism rows must have length %d" % m.g)
        out.append(
            [QuadInt._make(*_parse_coord(e, "endomorphism entry"), m.d) for e in row]
        )
    return EndoQ(out, m.d)


def model_to_dict(m):
    out = {
        "d": m.d,
        "g": m.g,
        "glue": [
            [[rat_to_jsonable(x.a), rat_to_jsonable(x.b)] for x in vec]
            for vec in m.glue
        ],
        "mode": m.mode.lower(),
        "exponents": list(m.atom_exponents),
    }
    if m.maximal_order:
        out["maximal_order"] = True
    if m.assume_proper_ge4:
        out["assume_proper_exponents_ge4"] = True
    return out


_MODEL_KEYS = {"d", "g", "mode", "glue", "exponents", "maximal_order",
               "assume_proper_exponents_ge4"}


def model_from_dict(data):
    if not isinstance(data, dict):
        raise InvalidInput("model description must be a JSON object")
    unknown = sorted(map(repr, set(data) - _MODEL_KEYS))
    if unknown:
        raise InvalidInput("model description has unknown keys %s" % ", ".join(unknown))
    for key in ("d", "g", "mode"):
        if key not in data:
            raise InvalidInput("model description missing %r" % key)
    mode = str(data["mode"]).upper()
    if mode not in (LATTICE, AXIOMATIC):
        raise InvalidInput("mode must be 'lattice' or 'axiomatic', got %r" % (data["mode"],))
    vecs = data.get("glue", [])
    if not isinstance(vecs, list):
        raise InvalidInput("glue must be a list of vectors, got %r" % (vecs,))
    glue = []
    for vec in vecs:
        if not isinstance(vec, (list, tuple)):
            raise InvalidInput("glue vector %r is not a list" % (vec,))
        glue.append([_parse_coord(entry, "glue coordinate") for entry in vec])
    exponents = data.get("exponents")
    if exponents is not None and (
        not isinstance(exponents, list) or not all(map(_is_int, exponents))
    ):
        raise InvalidInput("exponents must be a list of integers, got %r" % (exponents,))
    flags = [data.get(key, False)
             for key in ("maximal_order", "assume_proper_exponents_ge4")]
    if not all(isinstance(flag, bool) for flag in flags):
        raise InvalidInput(
            "maximal_order and assume_proper_exponents_ge4 must be true or false"
        )
    return build_model(
        data["d"],
        data["g"],
        glue=glue,
        mode=mode,
        exponents=exponents,
        maximal_order=flags[0],
        assume_proper_ge4=flags[1],
    )

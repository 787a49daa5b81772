"""Codimension-2 correspondences on (CxC)x(CxC) modulo balanced cycles.

A Corr2 is a formal rational combination of
- tensor atoms a (x) b with a, b in End_Q(J), and
- opaque grid atoms theta[i][j], a1[i][j], a2[i][j].

Tensor input is expanded at construction into the Q-basis
(w^u E_ij) (x) (w^v E_kl) of End_Q(J) (x)_Q End_Q(J), where w = sqrt(-d),
so the bilinear relations of the tensor product hold on the nose and
equality of Corr2 values is equality of classes.

The grid atoms are the transcendental/algebraic projector grids. They are
kept opaque because convolution consumes the honest cycles, not their
classes modulo balanced: the theta atom reduces to e_i (x) e_j modulo
balanced, yet its convolution carries the factor 2 coming from the
correction summands hidden in the transcendental projector of E x E. The
a-atoms reduce to product-type divisor classes outside the tensor span
altogether. Storing them atomically with their proven convolution table is
exact; collapsing them to tensors would silently change conv.
"""

from .errors import InvalidInput, ShapeError, UnsupportedQuery, VerificationError
from .exact import QuadInt, Rat
from .cmlat import (
    EndoQ,
    endo_identity,
    rosati,
    subset_idempotent,
)

TENSOR = "tensor"
THETA = "theta"
A1 = "a1"
A2 = "a2"

_GRID_KINDS = (THETA, A1, A2)
# convolution weight per grid family at a matching cell
_CONV_FACTOR = {THETA: Rat(2), A1: Rat(-1, 2), A2: Rat(-1, 2)}

__all__ = [
    "TENSOR",
    "THETA",
    "A1",
    "A2",
    "Corr2",
    "GridProjectors",
    "compose",
    "transpose",
    "conv",
    "build_grids",
]


class Corr2:
    """Formal sum of basis tensors and grid atoms; immutable values.

    Term keys are (TENSOR, i, j, u, k, l, v) for the basis tensor
    (w^u E_ij) (x) (w^v E_kl), or (kind, i, j) for a grid atom; the values
    are rational coefficients, zero coefficients never stored.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Corr2 is immutable")

    @classmethod
    def zero(cls, model):
        return cls(model, {})

    @classmethod
    def tensor(cls, model, a, b):
        if not isinstance(a, EndoQ) or not isinstance(b, EndoQ):
            raise InvalidInput("tensor legs must be EndoQ")
        if a.g != model.g or b.g != model.g or a.d != model.d or b.d != model.d:
            raise ShapeError(
                "tensor legs do not match the model (g=%d, d=%d)" % (model.g, model.d)
            )
        terms = {}
        g = model.g
        left = []
        for i in range(g):
            for j in range(g):
                q = a.entry(i, j)
                if q.a:
                    left.append((i, j, 0, q.a))
                if q.b:
                    left.append((i, j, 1, q.b))
        for k in range(g):
            for l in range(g):
                r = b.entry(k, l)
                parts = []
                if r.a:
                    parts.append((0, r.a))
                if r.b:
                    parts.append((1, r.b))
                for (i, j, u, ca) in left:
                    for (v, cb) in parts:
                        key = (TENSOR, i, j, u, k, l, v)
                        c = terms.get(key, Rat(0)) + ca * cb
                        if c == 0:
                            terms.pop(key, None)
                        else:
                            terms[key] = c
        return cls(model, terms)

    @classmethod
    def unit(cls, model):
        """The class of the generic 0-cycle: id (x) id."""
        ident = endo_identity(model)
        return cls.tensor(model, ident, ident)

    @classmethod
    def grid_atom(cls, model, kind, i, j):
        if kind not in _GRID_KINDS:
            raise InvalidInput("unknown grid kind %r" % (kind,))
        if not (0 <= i < model.g and 0 <= j < model.g):
            raise InvalidInput("grid cell (%d,%d) out of range" % (i, j))
        return cls(model, {(kind, i, j): Rat(1)})

    def _compat(self, other):
        if not isinstance(other, Corr2):
            raise InvalidInput("expected Corr2")
        a, b = self.model, other.model
        if a is not b and (a.d, a.g, a.atom_exponents) != (b.d, b.g, b.atom_exponents):
            raise ShapeError("Corr2 values from different models")

    def __add__(self, other):
        self._compat(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            c2 = terms.get(key, Rat(0)) + c
            if c2 == 0:
                terms.pop(key, None)
            else:
                terms[key] = c2
        return Corr2(self.model, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Corr2(self.model, {k: -c for k, c in self.terms.items()})

    def scale(self, q):
        q = Rat(q)
        if q == 0:
            return Corr2.zero(self.model)
        return Corr2(self.model, {k: q * c for k, c in self.terms.items()})

    def __rmul__(self, q):
        return self.scale(q)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Corr2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _split(self):
        tensor = {}
        grid = {}
        for k, c in self.terms.items():
            (tensor if k[0] == TENSOR else grid)[k] = c
        return tensor, grid

    def _sorted_terms(self):
        def key(item):
            k = item[0]
            if k[0] == TENSOR:
                return (0,) + k[1:]
            return (1 + _GRID_KINDS.index(k[0]), k[1], k[2])

        return sorted(self.terms.items(), key=key)

    def __repr__(self):
        parts = []
        for k, c in self._sorted_terms():
            if k[0] == TENSOR:
                _, i, j, u, kk, l, v = k
                lw = "w*" if u else ""
                rw = "w*" if v else ""
                parts.append(
                    "%s*(%sE%d%d(x)%sE%d%d)" % (c, lw, i + 1, j + 1, rw, kk + 1, l + 1)
                )
            else:
                parts.append("%s*%s[%d,%d]" % (c, k[0], k[1] + 1, k[2] + 1))
        return "Corr2(%s)" % (" + ".join(parts) if parts else "0")


def _mul_basis(i, j, u, i2, j2, u2, d):
    """(w^u E_ij)(w^u2 E_i2j2) as (key, rational factor), or None if 0."""
    if j != i2:
        return None
    uu = u + u2
    if uu == 2:
        return (i, j2, 0), Rat(-d)
    return (i, j2, uu), Rat(1)


def _unit_multiple(tensor_terms, g):
    """The scalar lam with tensor part lam * id(x)id, or None."""
    if len(tensor_terms) != g * g:
        return None
    lam = None
    for (_, i, j, u, k, l, v), c in tensor_terms.items():
        if i != j or k != l or u or v:
            return None
        if lam is None:
            lam = c
        elif c != lam:
            return None
    return lam


def compose(x, y):
    """Composition of correspondences, bilinear over the atoms.

    Tensors follow (a(x)b) o (c(x)d) = (a o c)(x)(b o d); grid atoms are
    pairwise orthogonal idempotents across and within families; a grid
    atom composes with the tensor part of the other factor only when that
    part is a scalar multiple of the unit id(x)id.
    """
    x._compat(y)
    model = x.model
    xt, xg = x._split()
    yt, yg = y._split()
    terms = {}

    def acc(key, c):
        c2 = terms.get(key, Rat(0)) + c
        if c2 == 0:
            terms.pop(key, None)
        else:
            terms[key] = c2

    for (_, i, j, u, k, l, v), cx in xt.items():
        for (_, i2, j2, u2, k2, l2, v2), cy in yt.items():
            left = _mul_basis(i, j, u, i2, j2, u2, model.d)
            if left is None:
                continue
            right = _mul_basis(k, l, v, k2, l2, v2, model.d)
            if right is None:
                continue
            (li, lj, lu), cl = left
            (ri, rj, rv), cr = right
            acc((TENSOR, li, lj, lu, ri, rj, rv), cx * cy * cl * cr)
    for kx, cx in xg.items():
        cy = yg.get(kx)
        if cy:
            # distinct grid atoms are orthogonal; matching ones idempotent
            acc(kx, cx * cy)
    if xt and yg:
        lam = _unit_multiple(xt, model.g)
        if lam is None:
            raise UnsupportedQuery(
                "composition of a general tensor with a grid atom is outside the model"
            )
        for kg, cg in yg.items():
            acc(kg, lam * cg)
    if yt and xg:
        lam = _unit_multiple(yt, model.g)
        if lam is None:
            raise UnsupportedQuery(
                "composition of a grid atom with a general tensor is outside the model"
            )
        for kg, cg in xg.items():
            acc(kg, lam * cg)
    return Corr2(model, terms)


def transpose(x):
    """Transposed correspondence: rosati on both tensor legs; the grid
    atoms are symmetric cycles and stay fixed."""
    model = x.model
    n = model.atom_exponents
    terms = {}
    for k, c in x.terms.items():
        if k[0] == TENSOR:
            _, i, j, u, kk, l, v = k
            # rosati(w^u E_ij) = (-1)^u (n_i/n_j) w^u E_ji, applied per leg
            mult = Rat(n[i], n[j]) * Rat(n[kk], n[l])
            if (u + v) % 2:
                mult = -mult
            key = (TENSOR, j, i, u, l, kk, v)
            c2 = terms.get(key, Rat(0)) + c * mult
            if c2 == 0:
                terms.pop(key, None)
            else:
                terms[key] = c2
        else:
            terms[k] = terms.get(k, Rat(0)) + c
    return Corr2(model, {k: c for k, c in terms.items() if c != 0})


def conv(sigma, x):
    """Convolution by sigma, landing in End_Q(J).

    Tensor atoms follow conv(sigma, a(x)b) = b o rosati(sigma) o a. Grid
    atoms follow the proven table: writing sigma with rational coefficient
    s_ij = sigma[i][j]/n_j against the (i,j) embedding pair, a theta cell
    (i,j) contributes 2 s_ij n_i E[j][i] and an a-cell -1/2 s_ij n_i E[j][i].
    """
    model = x.model
    if not isinstance(sigma, EndoQ) or sigma.g != model.g or sigma.d != model.d:
        raise ShapeError("probe must be a g x g EndoQ over the model's field")
    g = model.g
    n = model.atom_exponents
    # the model checked d once; these entries need no second check
    zero = QuadInt._make(Rat(0), Rat(0), model.d)
    res = [[zero] * g for _ in range(g)]
    rho = None
    w = QuadInt._make(Rat(0), Rat(1), model.d)
    for k, c in x.terms.items():
        if k[0] == TENSOR:
            if rho is None:
                rho = rosati(sigma, model)
            _, i, j, u, kk, l, v = k
            # (w^v E_kl) rho (w^u E_ij) = w^(u+v) rho[l][i] E[k][j]
            val = rho.entry(l, i) * c
            uv = u + v
            if uv == 1:
                val = val * w
            elif uv == 2:
                val = val * (-model.d)
            res[kk][j] = res[kk][j] + val
        else:
            kind, i, j = k
            s = sigma.entry(i, j)
            if s.b != 0:
                raise UnsupportedQuery(
                    "grid convolution table needs a rational coefficient at "
                    "cell (%d,%d)" % (i + 1, j + 1)
                )
            weight = c * _CONV_FACTOR[kind] * (s.a / n[j]) * n[i]
            # gamma_j^T gamma_i = n_i E[j][i]; weight already carries n_i
            res[j][i] = res[j][i] + weight
    return EndoQ(res, model.d)


class GridProjectors:
    """The three g x g projector grids of the product surface."""

    __slots__ = ("model", "theta", "a1", "a2")

    def __init__(self, model, theta, a1, a2):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    def __setattr__(self, name, value):
        raise AttributeError("GridProjectors is immutable")


def build_grids(m):
    """Construct the theta/a1/a2 grids and verify the class-1 identity:
    the theta atoms reduce to e_i (x) e_j modulo balanced, and those
    tensors must sum to id (x) id."""
    theta = tuple(
        tuple(Corr2.grid_atom(m, THETA, i, j) for j in range(m.g)) for i in range(m.g)
    )
    a1 = tuple(
        tuple(Corr2.grid_atom(m, A1, i, j) for j in range(m.g)) for i in range(m.g)
    )
    a2 = tuple(
        tuple(Corr2.grid_atom(m, A2, i, j) for j in range(m.g)) for i in range(m.g)
    )
    reduced = Corr2.zero(m)
    for i in range(m.g):
        for j in range(m.g):
            reduced = reduced + Corr2.tensor(
                m, subset_idempotent(m, [i]), subset_idempotent(m, [j])
            )
    if reduced != Corr2.unit(m):
        raise VerificationError("theta reductions must sum to the unit class")
    return GridProjectors(m, theta, a1, a2)


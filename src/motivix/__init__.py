"""Exact correspondence calculus for self-products of curves with
elliptically split Jacobians.

Everything is computed over Q or small number fields with exact
arithmetic; no floats anywhere. The high-level entry points:

- build_model / decide: set up a product-of-elliptic-curves model and
  run the indecomposability decision procedure.
- build_grids / conv: the correspondence grids and the convolution
  action of symmetry probes on them.
- product_of_curves / hypersurface_ck / blowup_rows: dimension
  accounting for the motives involved.
- build_c6_instance: the genus-10 sextic instance, assembled from
  explicit curve morphisms with machine-checked pullbacks.

The command line mirrors these: `motivix decide|conv-table|motive|
fermat|av`.
"""

__version__ = "0.1.0"

from .errors import (
    MotivixError,
    ShapeError,
    RankError,
    LatticeError,
    InvalidInput,
    UnsupportedQuery,
    CandidateError,
    HypothesisError,
    PreconditionError,
    ReductionError,
    VerificationError,
)
from .exact import Rat, QuadInt, ZLattice, solve_field
from .cmlat import (
    LATTICE,
    AXIOMATIC,
    CONSISTENT,
    VIOLATES,
    AbelianModel,
    EndoQ,
    build_model,
    is_integral,
    exponent,
    subset_idempotent,
    rosati,
    subsets_lemma_check,
    verify_proper_exponents,
    model_to_dict,
    model_from_dict,
)
from .corr import Corr2, GridProjectors, compose, transpose, conv, build_grids
from .motcalc import (
    MotiveExpr,
    CKProjectorRing,
    ck_curve,
    ck_surface,
    product_of_curves,
    hypersurface_ck,
    blowup_rows,
    cubic_rationality_ledger,
)
from .decomp import (
    EXHAUSTIVE,
    PROOFTRACE,
    INDECOMPOSABLE,
    SURVIVING_CANDIDATE,
    UNDECIDED,
    Candidate,
    Probe,
    Verdict,
    probes_for,
    refute,
    decide,
)
from .polyring import MultiNf, BiPoly, RatFunc
from .fermat import (
    PlaneCurve,
    CurveMorphism,
    OmegaCoefficient,
    fermat_sextic,
    cm_elliptic,
    fermat_cubic,
    canonical_form,
    pullback,
    rep_membership,
    span_rank,
    degree,
    c6_generator_morphisms,
    build_c6_instance,
)

__all__ = [
    "__version__",
    "MotivixError",
    "ShapeError",
    "RankError",
    "LatticeError",
    "InvalidInput",
    "UnsupportedQuery",
    "CandidateError",
    "HypothesisError",
    "PreconditionError",
    "ReductionError",
    "VerificationError",
    "Rat",
    "QuadInt",
    "ZLattice",
    "solve_field",
    "LATTICE",
    "AXIOMATIC",
    "CONSISTENT",
    "VIOLATES",
    "AbelianModel",
    "EndoQ",
    "build_model",
    "is_integral",
    "exponent",
    "subset_idempotent",
    "rosati",
    "subsets_lemma_check",
    "verify_proper_exponents",
    "model_to_dict",
    "model_from_dict",
    "Corr2",
    "GridProjectors",
    "compose",
    "transpose",
    "conv",
    "build_grids",
    "MotiveExpr",
    "CKProjectorRing",
    "ck_curve",
    "ck_surface",
    "product_of_curves",
    "hypersurface_ck",
    "blowup_rows",
    "cubic_rationality_ledger",
    "EXHAUSTIVE",
    "PROOFTRACE",
    "INDECOMPOSABLE",
    "SURVIVING_CANDIDATE",
    "UNDECIDED",
    "Candidate",
    "Probe",
    "Verdict",
    "probes_for",
    "refute",
    "decide",
    "MultiNf",
    "BiPoly",
    "RatFunc",
    "PlaneCurve",
    "CurveMorphism",
    "OmegaCoefficient",
    "fermat_sextic",
    "cm_elliptic",
    "fermat_cubic",
    "canonical_form",
    "pullback",
    "rep_membership",
    "span_rank",
    "degree",
    "c6_generator_morphisms",
    "build_c6_instance",
]

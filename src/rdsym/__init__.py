"""rdsym: symbolic-numeric toolkit for variable-coefficient semilinear
reaction-diffusion equations f(x)u_t = (g(x)u_x)_x + h(x)u^m.

The package implements the chain of mappings between the general class,
its f=g gauge, the imaged class v_t = v_xx + H v^m + F v and the
double-imaged class w_t = w_xx + H w^2 + G, structural classification of
equations against the known extension tables, sampling-based verification
of Lie and nonclassical symmetries, and a verified catalog of exact
solutions.
"""

from .expr import (
    Assumption,
    DiffError,
    EvalDomainError,
    Expr,
    ExprError,
    ParseError,
    diff,
    evaluate,
    num_equal,
    parse,
    simplify,
    substitute,
    to_str,
)
from .model import (
    AdmissibleForm,
    ClassificationResult,
    DoubleImagedEquation,
    EquivParams,
    ImagedEquation,
    Interval,
    PointTransformation,
    RDEquation,
    ValidationError,
    VectorField,
    validate,
)
from .classify import (
    classify,
    classify_admissible,
    classify_double_imaged,
    classify_imaged,
    classify_initial,
)
from .symmetry import (
    JetPoint,
    commutator,
    conditional_residual,
    lie_residual,
    prolong2,
    verify_algebra_closure,
    verify_lie,
    verify_nonclassical,
)
from .transforms import (
    apply_additional,
    apply_equiv,
    gauge_fg,
    imaged_preimage,
    map_residual_check,
    pullback_operators,
    pushforward_solution,
    to_double_imaged,
    to_imaged,
)
from .solutions import (
    GridReport,
    GridSpec,
    SolutionEntry,
    catalog,
    generate,
    verify_on_grid,
)

__version__ = "0.1.0"

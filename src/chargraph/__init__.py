"""Character degree graphs: construction, shape analysis, and desk-scale
classification checks."""

from .arith import Factorization, factorize, is_prime, prime_divisors, zsigmondy
from .classify import (
    CaseReport,
    RadicalValidationError,
    check_palfy,
    check_solvable_shape,
    classify_f,
    scan_counterexamples,
    scan_lemma_evenfive,
    scan_lemma_interest,
    scan_lemma_oddfour,
    synthetic_radical,
    verify_main,
)
from .degrees import cd_psl2, graph_psl2, prime_power
from .graphs import (
    CharGraph,
    DegreeSet,
    are_isomorphic,
    complement,
    disjoint_union,
    graph_from_cd,
    is_kn_free,
    join,
)
from .shapes import (
    Complement,
    Complete,
    Cycle,
    GraphExpr,
    Join,
    ShapeSyntaxError,
    Union,
    eval_shape,
    parse_shape,
    render_shape,
)

__version__ = "0.1.0"

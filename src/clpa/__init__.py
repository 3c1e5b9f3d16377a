"""Exact symbolic computation in Cohn-Leavitt path algebras of finite graphs.

The package classifies no-exit objects into graded matricial signatures with
machine-verified generator maps and decides the associated graph-theoretic
characterizations (noetherian/artinian lattices, monoid atomicity and
cancellativity, realization of graded matrix algebras).
"""

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    check_generator_map,
    evaluate_element,
    is_idempotent,
    relative_generator_images,
)
from .classify import (
    build_generator_map,
    classify,
    classify_system,
    no_exit_violations,
)
from .errors import ClpaError
from .expr import parse_expression
from .gradedmat import (
    DirectSum,
    GradedMatrix,
    GradedMatrixAlgebra,
    MatricialSignature,
    brute_force_iso_oracle,
    component_dim,
    decide_graded_iso,
    signature_from_json,
    signature_to_json,
)
from .graphs import (
    CLObject,
    Graph,
    Path,
    complete,
    is_complete_subobject,
    load_object,
    object_from_json,
    object_to_json,
    paths_into,
    relative_graph,
    subobject_system,
)
from .monoid import (
    MonoidElement,
    atomic_cancellative_verdict,
    cancellation_witness,
    equal,
    presentation,
)
from .reports import (
    PropertyReport,
    artinian_failure_witness,
    noetherian_chain_witness,
    relgraph_verify,
    report,
)
from .scalars import (
    QQ,
    LaurentPoly,
    PrimeField,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

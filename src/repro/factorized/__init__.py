"""Factorized linear algebra over silos (paper §IV).

:class:`AmalurMatrix` executes linear-algebra operators directly over the
source factors ``(D_k, M_k, I_k, R_k)`` of an
:class:`repro.matrices.IntegratedDataset`, never materializing the target
table, using the rewrite of Eq. (2):

    ``T X → Σ_k ((I_k D_k M_kᵀ) ∘ R_k) X``

The star-schema inner join of Chen et al.'s Morpheus (PVLDB'17) — the
state of the art the paper compares against — is the special case with
disjoint source columns and no redundancy: a dataset built by
:func:`repro.matrices.builder.star_schema`, run by the same operators.
"""

from repro.factorized.ops_counter import FlopCounter
from repro.factorized.operator_plan import OperatorPlan
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.factorized.queries import VirtualQueryEngine, QueryResult

__all__ = [
    "FlopCounter",
    "OperatorPlan",
    "AmalurMatrix",
    "VirtualQueryEngine",
    "QueryResult",
]

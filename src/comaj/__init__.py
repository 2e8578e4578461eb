"""Exact-arithmetic toolkit for generalized comaj statistics.

Permutation and tableau statistics, labeled chains over sequence lists,
truncated q-polynomial arithmetic, principal evaluations of Schur and
fundamental quasisymmetric functions, and verification drivers that
check the corresponding identities coefficientwise.
"""

from .characters import centralizer_size, character
from .engine import (
    LabeledTableau,
    are_neighbors,
    chain_steps,
    comaj_components,
    descents,
    empty_seqlist,
    increment_suffix,
    label_chain,
    labeled_tableau,
    prepend_labels,
    reading_order,
    seq_weight,
    zero_comaj_perm,
)
from .enumeration import fundamental_principal_series, schur_principal_by_tableaux
from .identities import (
    VerificationReport,
    exact_degree_bound,
    fundamental_comaj_polynomial,
    graded_multiplicity_character,
    graded_multiplicity_comaj,
    labeled_tableau_polynomial,
    schur_comaj_polynomial,
    verify_finite_evaluation,
    verify_fundamental_evaluation,
    verify_injection_recursion,
    verify_kronecker_multiplicity,
    verify_row_case,
    verify_variable_reindex,
)
from .perm import compose, cycle_type, descent_set, identity, inverse, symmetric_group
from .qpoly import (
    QPoly,
    Truncation,
    collapse,
    homogeneous_principal,
    pochhammer,
    pochhammer_all,
    power_sum_principal,
    schur_principal_jt,
)
from .tableaux import (
    Partition,
    StandardTableau,
    hook_length_count,
    partition,
    partitions,
    standard_tableaux,
)

__version__ = "0.1.0"

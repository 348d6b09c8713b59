"""Exact invariants and classification of weighted projective spaces.

Spaces are represented by their weight vectors (tuples of positive
integers).  The package computes normalized forms, p-contents, cohomology
rings and lens-space cohomology, local stratum data, and decides
homeomorphism and homotopy equivalence through canonical forms; a census
engine classifies whole boxes of weight vectors at once.

All arithmetic is exact, and one pure-Python kernel computes the canonical
forms for every input.
"""

from .classify import (
    CensusReport,
    ClassRecord,
    census,
    homeo_canonical_form,
    homeomorphic,
    homotopy_canonical_form,
    homotopy_equivalent,
)
from .cohom import (
    RingPresentation,
    additive_cohomology,
    graded_ring_iso,
    lens_cohomology,
    pullback_coefficients,
    ring,
)
from .errors import (
    InconsistentDataError,
    InvalidInputError,
    NotNormalizedError,
    NotPLocalError,
    ResourceLimitError,
    WprojError,
)
from .numth import factorize, is_p_local_unit, is_prime, p_part, unit_split
from .strata import (
    CellDecomposition,
    StratumChart,
    cell_decomposition,
    local_homology_order,
    singular_subspace,
    stratum_chart,
)
from .weights import (
    divisor_chain_form,
    divisor_count,
    is_divisor_chain,
    is_normalized,
    normalize,
    normalize_with_moves,
    p_content,
    p_content_table,
    p_coprime_parts,
    parse_weights,
    reconstruct_weights,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the canonical-form kernel: always "python", the only one."""
    return "python"

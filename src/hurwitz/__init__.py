"""Exact computation and cross-verification of simple Hurwitz numbers.

Four independent computation routes (cut-and-join recursion, character sums,
operator powers, closed forms) plus a brute-force permutation oracle, audit
suites for integrality and parity data, and a CLI.  All arithmetic is exact.
"""

from .analysis import (
    AuditRecord,
    AuditReport,
    coefficient_audit,
    converse_failures,
    identity_suite,
    integrality_audit,
    keys_with_ramification_at_most,
    parity_scan,
)
from .engine import (
    CacheConflictError,
    GenSeries,
    HurwitzCache,
    cache_load,
    connected_from_log,
    covering_series,
    covering_series_charsum,
    disconnected_count_charsum,
    hurwitz_number,
    one_part_closed,
    one_part_closed_stirling,
    one_part_genus0,
    stirling2,
    two_part_genus0,
)
from .oracle import WorkBoundExceeded, count_covers_bruteforce
from .partitions import (
    Partition,
    centralizer_order,
    conj_class_size,
    conjugate,
    content_sum,
    dim_irrep,
    hook_product,
    hurwitz_key,
    partitions_of,
    ramification,
    sort_to_partition,
)
from .symfunc import (
    PowerSumPoly,
    character,
    cut_and_join,
    schur_in_power_sums,
)

__version__ = "0.1.0"

"""Exact permutation geometry for spanning-set size bounds.

Inversion sets and the word metric on the symmetric group, left greedy chunk
forms, chunk-preserving decompositions and their rearrangements, Mahonian
counting with exact ball complements, bound calculators with crossover
thresholds, and constructive rewriting closures that verify the two spanning
mechanisms at desk scale.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundRow,
    ball_radius,
    classic_bound,
    compare_bounds,
    complement_lower_bound,
    crossover_n,
    mahonian_asymptotic,
    q_constant,
    theorem_bound,
)
from .errors import FalsificationError, InvalidInversionSetError, ScaleError
from .greedy import (
    chunk_preserving_cuts,
    chunk_stats,
    left_greedy_form,
    rearrangements,
)
from .mahonian import (
    ball_complement_count,
    ball_count,
    brute_force_row,
    mahonian_knuth,
    mahonian_row,
)
from .perm import (
    Permutation,
    all_permutations,
    cayley_distance_bfs,
    count_d_good,
    decreasing_histogram,
    find_d_bad_witness,
    from_inversion_set,
    identity,
    inversion_set,
    is_d_good,
    longest_decreasing,
    one_line,
    parse_permutation,
    reversal,
    validate_inversion_set,
    word_length,
)
from .reduction import (
    ReductionTrace,
    classic_closure,
    classic_step,
    main_closure,
    main_step,
)
from .verify import SUITES, SuiteResult, run_suite

__all__ = [
    "BoundRow",
    "FalsificationError",
    "InvalidInversionSetError",
    "Permutation",
    "ReductionTrace",
    "ScaleError",
    "SuiteResult",
    "SUITES",
    "all_permutations",
    "ball_complement_count",
    "ball_count",
    "ball_radius",
    "brute_force_row",
    "cayley_distance_bfs",
    "chunk_preserving_cuts",
    "chunk_stats",
    "classic_bound",
    "classic_closure",
    "classic_step",
    "compare_bounds",
    "complement_lower_bound",
    "count_d_good",
    "crossover_n",
    "decreasing_histogram",
    "find_d_bad_witness",
    "from_inversion_set",
    "identity",
    "inversion_set",
    "is_d_good",
    "left_greedy_form",
    "longest_decreasing",
    "mahonian_asymptotic",
    "mahonian_knuth",
    "mahonian_row",
    "main_closure",
    "main_step",
    "one_line",
    "parse_permutation",
    "q_constant",
    "rearrangements",
    "reversal",
    "run_suite",
    "theorem_bound",
    "validate_inversion_set",
    "word_length",
]

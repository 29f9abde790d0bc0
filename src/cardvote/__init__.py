"""Exact-arithmetic toolkit for truthful cardinal voting schemes: evaluators
for the benchmark schemes, exhaustive property checkers, worst-case profile
generators, and the constructive reductions behind the welfare-ratio bounds.
"""

from .core import (
    CandidateDistribution,
    Preference,
    Profile,
    WelfareReport,
    ratio,
    rv_winner,
    top_q_set,
    welfare,
    welfare_report,
    welfare_vector,
)
from .mechanisms import (
    Mechanism,
    constant_winner,
    integer_cbrt,
    j1q,
    j2q,
    j2q_quota_range,
    j_star,
    mix,
    parse_mechanism,
    range_voting,
    sample,
    sample_stream,
    symmetrize,
)
from .properties import (
    WitnessReport,
    check_anonymous,
    check_neutral,
    check_ordinal,
    check_truthful,
    enumerate_Rk_prefs,
    ordinal_equivalent,
)
from .generators import (
    DkParams,
    gen_Dk,
    gen_cyclic,
    gen_negative,
    rand_grid_profile,
    two_block_preference,
)
from .bounds import (
    ClassifiedPref,
    classify,
    gbar_value,
    lower_bound_formula,
    min_ratio_search,
    project_to_Dk,
    project_to_Dk_trace,
    reduce_to_Ck,
    reduce_to_Ck_trace,
)

__version__ = "0.1.0"

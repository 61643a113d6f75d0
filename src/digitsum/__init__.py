"""Exact engine for digit-sum weight sequences, cyclotomic summation
identities, and generalized Prouhet-Tarry-Escott partitions.

Everything is computed in exact arithmetic (arbitrary-precision integers,
rationals, and cyclotomic field elements); identity checks assert literal
equality, never closeness.
"""

from .arith import CycloNum, a_constant, cyclotomic_polynomial, euler_phi, xi, xi_power_table
from .bernoulli import bernoulli_numbers, bernoulli_poly, delta_n_bernoulli, faulhaber_sum
from .cost import DEFAULT_MAX_COST, CostCapExceeded
from .digits import digit_sum, digit_sums, iter_digit_sums
from .findiff import forward_diff_n, lhs_sum, weighted_rhs
from .identities import (
    DEFAULT_SEED,
    IdentityReport,
    MultiIndexConfig,
    joint_weight_polynomial,
    run_suite,
    mixed_power_sum,
    verify_alpha_moment,
    verify_beta_alpha_reduction,
    verify_betaconv_dual1,
    verify_betaconv_dual2,
    verify_multi_power_sum,
    verify_power_sum,
    verify_delta_bernoulli,
    verify_faulhaber,
    verify_joint_line_general,
    verify_generalized_pte,
    verify_joint_line_base2,
    verify_joint_vanishing,
    verify_moment,
    verify_multisum,
    verify_mixed_closed_form,
    verify_mixed_recurrence,
    verify_mixed_vanishing,
    verify_difference_identity,
    verify_multi_mixed_sum,
)
from .poly import RationalPoly
from .pte import (
    PteCertificate,
    PtePartition,
    ReducedPartition,
    cancel_common,
    generalized_partition,
    prouhet_partition,
    search_small_solutions,
    verify_power_sums,
)
from .weights import (
    WeightTable,
    alpha_moment0,
    alpha_moment1,
    alpha_table,
    beta_from_convolution,
    beta_moment0,
    beta_moment1,
    beta_table,
    xi_from_convolution,
)

__version__ = "0.1.0"

"""Exact engine for digit-sum weight sequences, cyclotomic summation
identities, and generalized Prouhet-Tarry-Escott partitions.

Everything is computed in exact arithmetic (arbitrary-precision integers,
rationals, and cyclotomic field elements); identity checks assert literal
equality, never closeness.

The root exports the names of the README's library example; every other
public name is imported from its module (``digitsum.identities``,
``digitsum.pte``, ``digitsum.weights``, ...).
"""

from .identities import verify_difference_identity
from .poly import RationalPoly
from .pte import cancel_common, generalized_partition, verify_power_sums

__all__ = [
    "RationalPoly",
    "generalized_partition",
    "verify_power_sums",
    "cancel_common",
    "verify_difference_identity",
]

__version__ = "0.1.0"

"""Exact engine for digit-sum weight sequences, cyclotomic summation
identities, and generalized Prouhet-Tarry-Escott partitions.

Everything is computed in exact arithmetic (arbitrary-precision integers,
rationals, and cyclotomic field elements); identity checks assert literal
equality, never closeness.

The root exports the names of the README's library example; every other
public name is imported from its module (``digitsum.identities``,
``digitsum.pte``, ``digitsum.weights``, ...).  The root names resolve on
first access (PEP 562), so importing a submodule such as ``digitsum.cli``
loads only what that submodule imports, never ``pte`` for a ``verify`` run.
"""

import importlib

# Each root name and the submodule that defines it.
_HOME = {
    "RationalPoly": "poly",
    "generalized_partition": "pte",
    "verify_power_sums": "pte",
    "cancel_common": "pte",
    "verify_difference_identity": "identities",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

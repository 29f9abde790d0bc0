"""Exact-arithmetic toolkit for truthful cardinal voting schemes: evaluators
for the benchmark schemes, exhaustive property checkers, worst-case profile
generators, and the constructive reductions behind the welfare-ratio bounds.
"""

from . import bounds, core, errors, generators, mechanisms, properties

__all__ = ["bounds", "core", "errors", "generators", "mechanisms", "properties"]

__version__ = "0.1.0"

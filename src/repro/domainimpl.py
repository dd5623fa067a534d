"""Selection of the abstract-domain implementation.

Two interchangeable implementations back the hot abstract domains (the
must/may/persistence cache states and the value-analysis memory /
block transfer):

* ``python`` — the original dict-of-int / per-instruction reference
  implementation, kept as the differential oracle,
* ``numpy`` — dense age matrices and packed bound arrays whose lattice
  operations are whole-array numpy kernels (the default).

Both produce bit-identical analysis results (pinned by the golden-bounds
matrix and the hypothesis lockstep suite in
``tests/test_vectorized_domains.py``); they differ only in speed.  This
module alone decides which one executes: an explicit ``domain_impl``
argument (:func:`repro.wcet.analyze_wcet`) wins, then the
``REPRO_DOMAIN_IMPL`` environment variable, then the default.  Pool
workers inherit the environment of the process that starts them.
"""

from __future__ import annotations

import os
from typing import Optional

#: Recognised implementation names.
DOMAIN_IMPLS = ("python", "numpy")

#: Implementation used when neither an argument nor the environment
#: selects one.
DEFAULT_DOMAIN_IMPL = "numpy"

#: Environment variable consulted when no explicit choice is given.
DOMAIN_IMPL_ENV = "REPRO_DOMAIN_IMPL"


def resolve_domain_impl(value: Optional[str] = None) -> str:
    """The effective implementation name for ``value``.

    ``None`` falls back to ``$REPRO_DOMAIN_IMPL``, then to
    :data:`DEFAULT_DOMAIN_IMPL`.  Unknown names raise ``ValueError``
    (including unknown values of the environment variable, so typos
    fail loudly instead of silently running the default).
    """
    chosen = value
    if chosen is None:
        chosen = os.environ.get(DOMAIN_IMPL_ENV) or DEFAULT_DOMAIN_IMPL
    if chosen not in DOMAIN_IMPLS:
        raise ValueError(
            f"unknown domain implementation {chosen!r}; expected one of "
            f"{', '.join(DOMAIN_IMPLS)} (via domain_impl= or "
            f"${DOMAIN_IMPL_ENV})")
    return chosen


def value_effective_impl(domain: type, value: Optional[str] = None) -> str:
    """The implementation the value phase executes for ``domain``.

    The packed-array memory and compiled block transfers hold exactly
    two bounds per word, so only the
    :class:`~repro.analysis.interval.Interval` domain runs ``numpy``;
    every other domain runs ``python``.  The value phase's cache key
    names this implementation, so cached states (which embed their
    memory representation) never mix.
    """
    from .analysis.interval import Interval

    impl = resolve_domain_impl(value)
    return impl if domain is Interval else "python"

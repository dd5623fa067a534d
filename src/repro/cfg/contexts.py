"""Pluggable context sensitivity for the whole-task expansion.

aiT analyses every program point once per *execution context* — the
VIVU scheme ("virtual inlining / virtual unrolling", Section 3): not
only is a function body distinguished per chain of call sites leading
to it, the *first* iteration of a loop (compulsory cache misses,
initialisation values) is distinguished from *subsequent* iterations
(steady-state hits, stabilised intervals).

This module defines the :class:`Context` record those schemes produce
and the :class:`ContextPolicy` that selects one.  A policy has two
parameters, the call-string depth ``k`` and the loop ``peel`` count,
and one name, its token, which :func:`parse_policy` reads back:

* ``full`` (:class:`FullCallString`) — unbounded call strings, no
  unrolling (the historical behaviour, kept as the differential
  baseline),
* ``klimited@K`` (:class:`KLimitedCallString`) — call strings
  truncated to the last ``K`` sites, bounding context growth on deep
  call trees,
* ``vivu@PEEL[@K]`` (:class:`VIVU`) — call strings (k-limited when
  ``K`` is given) plus peeling of the first ``PEEL`` iterations of
  every loop into their own context copies.

A context has two components:

* ``calls`` — the call-site addresses on the abstract call stack
  (possibly truncated under k-limiting), and
* ``iters`` — the loop-iteration component: one ``(header, phase)``
  pair per enclosing peeled loop, where ``phase < peel`` marks a
  peeled first-iteration copy and ``phase == peel`` the steady-state
  copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: One loop-iteration component entry: (loop header block address,
#: iteration phase).  Phases 0..peel-1 are the peeled ("virtually
#: unrolled") iterations; phase == peel is the steady state.
IterEntry = Tuple[int, int]


@dataclass(frozen=True, order=True, slots=True)
class Context:
    """A structured execution context: call string + loop iterations.

    Immutable; usable as a dict key and totally ordered by
    ``(calls, iters)`` (needed for deterministic worklists, WTOs, and
    reports).
    """

    calls: Tuple[int, ...] = ()
    iters: Tuple[IterEntry, ...] = ()

    # -- Construction helpers ----------------------------------------------

    def with_iters(self, iters: Tuple[IterEntry, ...]) -> "Context":
        return Context(self.calls, iters)

    def with_phase(self, header: int, phase: int) -> "Context":
        """This context with the given loop's phase replaced."""
        return Context(self.calls, tuple(
            (block, phase if block == header else p)
            for block, p in self.iters))

    # -- Queries ------------------------------------------------------------

    def peel_of(self, header: int) -> int:
        """How many peeled iteration copies of the loop headed at
        ``header`` precede this (steady-state) copy.  The steady copy
        carries ``phase == peel``, so its own phase *is* the count; a
        context without an iteration entry was never peeled (0)."""
        for block, phase in self.iters:
            if block == header:
                return phase
        return 0

    def has_phase_below(self, peel: int) -> bool:
        """Is this a (possibly nested) first-iteration copy — i.e. does
        any enclosing loop sit in a peeled iteration?"""
        return any(phase < peel for _, phase in self.iters)

    @property
    def label(self) -> str:
        """Human-readable context label for reports."""
        base = "/".join(f"{site:x}" for site in self.calls) or "root"
        if self.iters:
            base += "".join(f"[{header:x}.it{phase}]"
                            for header, phase in self.iters)
        return base

    def __repr__(self) -> str:
        return f"Context({self.label})"


#: The root (task entry) context.
ROOT_CONTEXT = Context()


class ContextPolicy:
    """Strategy deciding how many context copies each block gets.

    ``k`` bounds the call-string component built by
    :meth:`call_context`; ``peel`` drives the loop-unrolling post-pass
    of :func:`repro.cfg.expand.expand_task` (the iteration component).
    The subclasses only validate and set these two parameters.
    """

    #: Call-string depth: the last ``k`` call sites, or all when None.
    k: Optional[int] = None
    #: Loop iterations peeled into their own context copies.
    peel = 0

    def root(self) -> Context:
        return ROOT_CONTEXT

    def call_context(self, caller: Context, site: int) -> Context:
        """The callee's context: the caller's call string plus
        ``site``, cut to the last ``k`` sites when ``k`` is set."""
        calls = caller.calls + (site,)
        if self.k is not None:
            calls = calls[-self.k:]
        return Context(calls)

    def describe(self) -> str:
        """The policy's token (``full``, ``klimited@K`` or
        ``vivu@PEEL[@K]``), as reports, job labels and cache keys
        print it and :func:`parse_policy` reads it."""
        if self.peel:
            return f"vivu@{self.peel}" + (
                f"@{self.k}" if self.k is not None else "")
        return "full" if self.k is None else f"klimited@{self.k}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class FullCallString(ContextPolicy):
    """Unbounded call strings, no loop unrolling — the differential
    baseline that reproduces the historical expansion exactly."""


class KLimitedCallString(ContextPolicy):
    """Call strings truncated to the most recent ``k`` sites.

    Bounds expansion on deep call trees: instances whose last ``k``
    call sites coincide are merged, so growth is linear in program
    size instead of multiplicative in call-DAG fan-in.  The cost is
    call/return matching: a merged callee instance returns to every
    matching return site, which over-approximates the path set (sound
    for WCET, but looser).
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k


class VIVU(ContextPolicy):
    """Virtual inlining / virtual unrolling (conf_date_HeckmannF05 §3).

    Call strings (full, or k-limited when ``k`` is given) plus peeling
    of the first ``peel`` iterations of every loop into their own
    context copies: the peeled copies absorb compulsory cache misses
    and initialisation values, so steady-state copies classify
    ``ALWAYS_HIT`` and carry stabilised intervals.
    """

    def __init__(self, peel: int = 1, k: Optional[int] = None):
        if peel < 1:
            raise ValueError("peel must be at least 1")
        if k is not None and k < 1:
            raise ValueError("k must be at least 1")
        self.peel = peel
        self.k = k


#: Policy used when the caller does not choose one.
DEFAULT_POLICY = FullCallString()


def parse_policy(token: str) -> ContextPolicy:
    """Build a policy from its token: ``full``, ``klimited[@K]`` (K
    defaults to 2) or ``vivu[@PEEL[@K]]`` (PEEL defaults to 1).  The
    one parser of ``repro wcet --context-policy``, the batch matrix
    and serve requests."""
    name, *values = token.split("@")
    try:
        numbers = [int(value) for value in values]
    except ValueError:
        raise ValueError(f"bad policy token {token!r}: "
                         "parameters must be integers") from None
    if name == "full":
        if numbers:
            raise ValueError(f"policy 'full' takes no parameters "
                             f"(got {token!r})")
        return FullCallString()
    if name == "klimited":
        if len(numbers) > 1:
            raise ValueError(f"policy 'klimited' takes at most one "
                             f"parameter (got {token!r})")
        return KLimitedCallString(numbers[0] if numbers else 2)
    if name == "vivu":
        if len(numbers) > 2:
            raise ValueError(f"policy 'vivu' takes at most two "
                             f"parameters (got {token!r})")
        return VIVU(*numbers)
    raise ValueError(f"unknown policy token {token!r}; expected "
                     "full, klimited[@K], or vivu[@PEEL[@K]]")

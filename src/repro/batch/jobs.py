"""Job specifications and matrix expansion for the sweep engine.

A *job* is one point of the analysis cross-product: (workload, context
policy, pipeline model).  The CLI and programmatic callers describe a
sweep with a compact matrix string::

    WORKLOADS:POLICIES:MODELS

where each component is a comma-separated list or ``all`` (omitted
trailing components default to ``all``).  Policy tokens parameterise
the context-sensitivity schemes of :mod:`repro.cfg.contexts`:

* ``full`` — unbounded call strings,
* ``klimited`` / ``klimited@K`` — call strings truncated to K sites
  (default 2),
* ``vivu`` / ``vivu@PEEL`` / ``vivu@PEEL@K`` — VIVU loop peeling
  (default peel 1), optionally combined with k-limited call strings.

Examples::

    all:all:all                      the full 19 x 3 x 2 matrix
    fibcall,bs:full,vivu@2:krisc5    4 jobs
    all:vivu                         all workloads, VIVU, both models
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cache.config import PIPELINE_MODELS
from ..cfg.contexts import ContextPolicy, make_policy
from ..workloads.suite import workload_names

#: Policy tokens expanded by ``all`` (the sweep the bit-identity
#: claims of the golden-bounds suite are stated over).
ALL_POLICIES = ("full", "klimited", "vivu")


def parse_policy(token: str) -> ContextPolicy:
    """Build a context policy from a matrix token (see module doc)."""
    name, _, params = token.partition("@")
    values = [part for part in params.split("@") if part] if params else []
    try:
        numbers = [int(value) for value in values]
    except ValueError:
        raise ValueError(f"bad policy token {token!r}: "
                         "parameters must be integers") from None
    if name == "full":
        if numbers:
            raise ValueError(f"policy 'full' takes no parameters "
                             f"(got {token!r})")
        return make_policy("full")
    if name == "klimited":
        if len(numbers) > 1:
            raise ValueError(f"policy 'klimited' takes at most one "
                             f"parameter (got {token!r})")
        return make_policy("klimited", k=numbers[0] if numbers else None)
    if name == "vivu":
        if len(numbers) > 2:
            raise ValueError(f"policy 'vivu' takes at most two "
                             f"parameters (got {token!r})")
        peel = numbers[0] if numbers else 1
        k = numbers[1] if len(numbers) > 1 else None
        return make_policy("vivu", k=k, peel=peel)
    raise ValueError(f"unknown policy token {token!r}; expected "
                     "full, klimited[@K], or vivu[@PEEL[@K]]")


@dataclass(frozen=True)
class JobSpec:
    """One analysis job of a sweep, as plain picklable strings."""

    workload: str
    policy: str
    model: str

    @property
    def job_id(self) -> str:
        return f"{self.workload}/{self.policy}/{self.model}"

    def policy_object(self) -> ContextPolicy:
        return parse_policy(self.policy)


def _split(component: Optional[str], all_values: Sequence[str],
           what: str) -> List[str]:
    if component is None or component in ("", "all"):
        return list(all_values)
    tokens = [item.strip() for item in component.split(",")
              if item.strip()]
    if "all" in tokens:
        raise ValueError(
            f"'all' cannot be combined with explicit {what} "
            f"(got {component!r}); use 'all' alone for every "
            f"{what.rstrip('s')}")
    # Dedupe preserving first occurrence: repeated tokens would yield
    # duplicate JobSpecs, which double-write golden rows and skew the
    # DAG's canonical-owner hit/miss attribution.
    return list(dict.fromkeys(tokens))


def expand_matrix(spec: str = "all:all:all") -> List[JobSpec]:
    """Expand a matrix string into an ordered job list.

    Ordering is deterministic — workloads outermost (sorted when
    ``all``), then policies, then models — and models iterate
    innermost deliberately: each (workload, policy) pair's first model
    then owns (computes, and is charged for) its task graph, value,
    loop-bound, and cache artifacts, which the second model shares.
    """
    parts = spec.split(":")
    if len(parts) > 3:
        raise ValueError(f"bad matrix {spec!r}: expected "
                         "WORKLOADS:POLICIES:MODELS")
    parts += [None] * (3 - len(parts))
    workloads = _split(parts[0], workload_names(), "workloads")
    policies = _split(parts[1], ALL_POLICIES, "policies")
    models = _split(parts[2], PIPELINE_MODELS, "models")

    available = set(workload_names())
    for workload in workloads:
        if workload not in available:
            raise ValueError(f"unknown workload {workload!r} in matrix "
                             f"{spec!r}")
    for policy in policies:
        parse_policy(policy)
    for model in models:
        if model not in PIPELINE_MODELS:
            raise ValueError(f"unknown pipeline model {model!r} in "
                             f"matrix {spec!r}")

    return [JobSpec(workload, policy, model)
            for workload in workloads
            for policy in policies
            for model in models]

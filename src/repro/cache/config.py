"""Cache and machine timing configuration.

One configuration object is shared by the concrete simulator and the
abstract cache/pipeline analyses, so "the hardware" and "the model of
the hardware" can never drift apart.  The timing parameters define the
KRISC core: a 5-stage in-order scalar pipeline with separate
set-associative LRU instruction and data caches — the class of
"performance-oriented processors" whose caches and pipelines the paper
identifies as the source of execution-history-dependent timing
(Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and miss cost of one LRU cache."""

    num_sets: int = 16
    associativity: int = 2
    line_size: int = 16          # bytes; must be a power of two
    miss_penalty: int = 10       # extra cycles on a miss

    def __post_init__(self):
        for name in ("num_sets", "associativity", "line_size"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.miss_penalty < 0:
            raise ValueError("miss_penalty must be non-negative")

    @property
    def capacity(self) -> int:
        """Total bytes held by the cache."""
        return self.num_sets * self.associativity * self.line_size

    def line_of(self, address: int) -> int:
        """Memory-line number containing ``address``."""
        return address // self.line_size

    def set_of(self, address: int) -> int:
        """Cache set index for ``address``."""
        return self.line_of(address) % self.num_sets


#: Timing models a :class:`MachineConfig` can select.
PIPELINE_MODELS = ("additive", "krisc5")


@dataclass(frozen=True)
class MachineConfig:
    """The complete timing model of the KRISC core.

    Two timing models share the same hazard parameters, selected by
    ``pipeline_model``:

    ``additive`` (the default) charges every instruction the sum of its
    worst-case components, with no overlap between them:

    * 1 base cycle (pipelined issue),
    * instruction-fetch: +``icache.miss_penalty`` on an I-cache miss,
    * ``mul_extra`` further EX cycles for ``MUL``/``MULI``,
    * each data access beyond the first in a block transfer costs +1
      cycle; every D-cache miss costs +``dcache.miss_penalty``,
    * ``load_use_stall`` cycles when an instruction reads the register
      loaded by its immediate predecessor,
    * ``branch_penalty`` cycles for every taken control transfer
      (taken branches, calls, returns, indirect jumps).

    ``krisc5`` models the 5-stage in-order pipeline (IF/ID/EX/MEM/WB)
    the KRISC core actually is: instruction fetch overlaps the EX stage
    of the preceding instruction, the MEM unit services cache misses
    while later instructions keep executing (they queue only on the
    next memory access or a load-use interlock), multiplies occupy EX
    for ``1 + mul_extra`` cycles, and taken transfers redirect fetch
    ``branch_penalty`` cycles after the branch leaves EX.  The same
    hazard parameters apply, so ``krisc5`` cycle counts are bounded by
    the ``additive`` ones whenever any overlap is possible.

    ``pipeline_state_cap`` bounds the number of abstract pipeline
    states the krisc5 *analysis* tracks per program point (the concrete
    simulator is unaffected): smaller caps merge entry states earlier,
    trading bound tightness for analysis time.
    """

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    branch_penalty: int = 2
    mul_extra: int = 2
    load_use_stall: int = 1
    pipeline_model: str = "additive"
    pipeline_state_cap: int = 8

    def __post_init__(self):
        if self.pipeline_model not in PIPELINE_MODELS:
            raise ValueError(
                f"unknown pipeline model {self.pipeline_model!r}; "
                f"expected one of {', '.join(PIPELINE_MODELS)}")
        if self.pipeline_state_cap < 1:
            raise ValueError("pipeline_state_cap must be at least 1")

    @classmethod
    def default(cls) -> "MachineConfig":
        return cls()

    def with_model(self, model: str) -> "MachineConfig":
        """This configuration with a different ``pipeline_model``."""
        from dataclasses import replace
        return replace(self, pipeline_model=model)

    @classmethod
    def no_cache(cls) -> "MachineConfig":
        """A machine where every access costs the miss penalty (the
        all-miss baseline of ablation D3/E3 — timing as if caches were
        absent but penalties unchanged)."""
        return cls(icache=CacheConfig(num_sets=1, associativity=1,
                                      line_size=4, miss_penalty=10),
                   dcache=CacheConfig(num_sets=1, associativity=1,
                                      line_size=4, miss_penalty=10))

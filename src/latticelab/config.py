"""Run configuration: tolerances, horizons, seeds and proof constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

#: Absolute comparison tolerance used by every convergence verdict.
DEFAULT_TOLERANCE = 1e-9

#: Default number of members a check inspects; it caps only families longer
#: than that, such as a truncation family's model-defined ones.
DEFAULT_HORIZON = 10_000

DEFAULT_SEED = 0


@dataclass(frozen=True)
class CheckConfig:
    """Settings shared by the convergence and witness machinery.

    tolerance is absolute; every verdict records the values actually used
    so stored reports can be replayed bit-for-bit.
    """

    tolerance: float = DEFAULT_TOLERANCE
    horizon: int = DEFAULT_HORIZON
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise InputError(f"tolerance must be positive, got {self.tolerance}")
        if not math.isfinite(self.tolerance):
            raise InputError(f"tolerance must be finite, got {self.tolerance}")
        if self.horizon < 1:
            raise InputError(f"horizon must be >= 1, got {self.horizon}")
        if self.seed < 0:  # numpy's seeding takes no negative entropy
            raise InputError(f"seed must be >= 0, got {self.seed}")
        # a verdict records the tolerance, and a replay reads it back as a float
        object.__setattr__(self, "tolerance", float(self.tolerance))


@dataclass(frozen=True)
class ProofConstants:
    """Numeric constants of the two extraction arguments.

    eps_factor:   a coordinate is "big" when it exceeds eps_factor * eps.
    tail_budget:  p-norm allowance for member tails and approximation slack.
    block_mass:   p-norm each selected block of the limit must exceed.

    The jump argument needs eps_factor > 2 (big minus small must beat eps);
    the block argument needs block_mass - 2 * tail_budget > 1 so every
    difference block keeps norm above 1.  Overrides violating either bound
    are rejected up front.
    """

    eps_factor: float = 3.0
    tail_budget: float = 0.25
    block_mass: float = 2.0

    def __post_init__(self):
        if not self.eps_factor > 2.0:
            raise InputError(
                f"eps-factor must exceed 2 (jump arithmetic), got {self.eps_factor}"
            )
        if self.tail_budget <= 0 or self.block_mass <= 0:
            raise InputError("tail-budget and block-mass must be positive")
        if not self.block_mass - 2.0 * self.tail_budget > 1.0:
            raise InputError(
                "constants break the block arithmetic: need "
                f"block-mass - 2*tail-budget > 1, got {self.block_mass} - "
                f"2*{self.tail_budget} = {self.block_mass - 2 * self.tail_budget}"
            )


DEFAULT_CONSTANTS = ProofConstants()


def thread_count() -> int:
    """Always 1: every check runs serially in the calling thread."""
    return 1


def parse_constants(spec: str) -> ProofConstants:
    """Parse ``eps-factor=3,tail-budget=0.25,block-mass=2`` style overrides."""
    if not spec.strip():
        return DEFAULT_CONSTANTS
    kw = {}
    names = {"eps-factor": "eps_factor", "tail-budget": "tail_budget", "block-mass": "block_mass"}
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"constants override {part!r} is not name=value")
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in names:
            raise InputError(f"unknown constant {name!r}; expected one of {sorted(names)}")
        try:
            kw[names[name]] = float(value)
        except ValueError as exc:
            raise InputError(f"constant {name!r} has non-numeric value {value!r}") from exc
    return ProofConstants(**kw)

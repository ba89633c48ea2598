"""The parameters that can change an answer.

Defaults < problem-file params < command-line flags.  Each is a plain
int; building a `Params` checks it against `MINIMUMS`.  The sequence
and the reduction check read none of them: they shape the superficial
search and seed it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


# smallest accepted value of each parameter; seed takes any integer
MINIMUMS = {
    "trials": 0,
    "coeff_bound": 1,
}


@dataclass(frozen=True)
class Params:
    trials: int = 10  # superficial search attempts
    coeff_bound: int = 5  # initial coefficient box for random combinations
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in MINIMUMS.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    def replace(self, **kw) -> Params:
        return replace(self, **kw)

"""Tunable caps and their environment overrides.

Defaults < environment variables (MULTSEQ_<NAME>) < problem-file params
< command-line flags.  All knobs are plain ints so reports can echo
them verbatim; building a `Params` checks each against `MINIMUMS`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


# smallest accepted value of each cap; seed takes any integer.  A
# one-cell window would certify any table, and budgets of 0 are legal.
MINIMUMS = {
    "umax": 1,
    "vmax": 1,
    "window_width": 2,
    "nmax": 0,
    "nmax_escalation": 0,
    "nzd_cap": 1,
    "trials": 0,
    "coeff_bound": 1,
}


@dataclass(frozen=True)
class Params:
    umax: int | None = None  # initial table rows; None = dim + 4
    vmax: int | None = None  # initial table columns; None = dim + 4
    window_width: int = 3
    nmax: int = 12  # reduction witness search bound
    nmax_escalation: int = 48  # bound after geometric escalation
    nzd_cap: int = 10  # largest power tried for the nonzerodivisor step
    trials: int = 10  # superficial search attempts
    coeff_bound: int = 5  # initial coefficient box for random combinations
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    def replace(self, **kw) -> Params:
        return replace(self, **kw)


_ENV_PREFIX = "MULTSEQ_"


def params_from_env(base: Params | None = None) -> Params:
    params = base or Params()
    for f in fields(Params):
        name = _ENV_PREFIX + f.name.upper()
        raw = os.environ.get(name)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"environment override {name} must be an integer, got {raw!r}"
            ) from None
        try:
            params = params.replace(**{f.name: value})
        except ValueError as exc:
            raise ValueError(f"environment override {name}: {exc}") from None
    return params

"""Tunable caps and their environment overrides.

Defaults < environment variables (MULTSEQ_<NAME>) < problem-file params
< command-line flags.  All knobs are plain ints so reports can echo
them verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Params:
    umax: int | None = None  # initial table rows; None = dim + 4
    vmax: int | None = None  # initial table columns; None = dim + 4
    window_width: int = 3
    grow_cap: int = 48  # largest allowed table side
    nmax: int = 12  # reduction witness search bound
    nmax_escalation: int = 48  # bound after geometric escalation
    power_cap: int = 6  # powers checked by the dimension-drop test
    nzd_cap: int = 10  # largest power tried for the nonzerodivisor step
    trials: int = 10  # superficial search attempts
    coeff_bound: int = 5  # initial coefficient box for random combinations
    seed: int = 0

    def replace(self, **kw) -> Params:
        return replace(self, **kw)


_ENV_PREFIX = "MULTSEQ_"


def params_from_env(base: Params | None = None) -> Params:
    base = base or Params()
    overrides = {}
    for f in fields(Params):
        raw = os.environ.get(_ENV_PREFIX + f.name.upper())
        if raw is not None:
            try:
                overrides[f.name] = int(raw)
            except ValueError:
                raise ValueError(
                    f"environment override {_ENV_PREFIX + f.name.upper()} "
                    f"must be an integer, got {raw!r}"
                ) from None
    return base.replace(**overrides) if overrides else base

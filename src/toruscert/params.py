"""Case parameters and desk-scale caps."""
from __future__ import annotations

import os
from dataclasses import dataclass

POLARIZED = "polarized"
NEUTRAL = "neutral"

DEFAULT_MAX_S = 4
DEFAULT_MAX_T = 6


def _cap(name, default):
    """The positive integer in environment variable ``name``, or ``default``
    when it is unset; any other value raises :class:`ValueError`."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


def max_s():
    return _cap("TORUSCERT_MAX_S", DEFAULT_MAX_S)


def max_t():
    return _cap("TORUSCERT_MAX_T", DEFAULT_MAX_T)


@dataclass(frozen=True)
class CaseParams:
    """Parameters of one case: boundary counts of the two surfaces and the
    slope distance, with optional parity polarities.

    ``s`` and ``t`` are the vertex counts of the two intersection graphs (the
    numbers of boundary circles on the common torus).  A polarity of
    ``polarized`` means all vertices of that surface share a parity class,
    ``neutral`` means the classes have equal size; ``None`` leaves it
    unconstrained (enumeration covers every parity assignment).
    """

    s: int
    t: int
    delta: int
    s_polarity: str | None = None
    t_polarity: str | None = None

    def __post_init__(self):
        if self.s < 1 or self.t < 1 or self.delta < 1:
            raise ValueError("s, t and delta must be positive")
        for count, pol in ((self.s, self.s_polarity), (self.t, self.t_polarity)):
            if pol not in (None, POLARIZED, NEUTRAL):
                raise ValueError(f"invalid polarity {pol!r}")
            if pol == NEUTRAL and count % 2:
                raise ValueError("a neutral surface has equally many vertices of each parity")

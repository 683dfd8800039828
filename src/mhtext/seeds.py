"""Deterministic child-seed derivation.

One experiment seed fans out into per-stage and per-unit seeds through
documented counter offsets, so adding a stage or rerunning a single
trial never disturbs the randomness of its neighbours. Derivation is a
splitmix64 walk: each path component is folded in and mixed, giving
independent-looking 64-bit streams for numpy generators.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

# Stage offsets, fixed for all time; new stages append, never renumber.
STAGE_SPLIT = 1
STAGE_SEARCH = 2
STAGE_MODEL = 3
STAGE_SYNTH = 4

# Sub-stages inside a model fit.
MODEL_INIT = 1
MODEL_SHUFFLE = 2
MODEL_DROPOUT = 3


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Fold path components into a root seed, one mix per component."""
    state = seed & _MASK
    for component in path:
        state = _splitmix64(state ^ (component & _MASK))
    return state

"""Weight and activation restriction operators (paper Sec. III-C).

After power- and timing-aware selection, the network may only use the
surviving weight values and activation values.  During retraining the
forward pass *forces* operands onto the selected sets (nearest selected
value) while the backward pass skips the projection via the
straight-through estimator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class _NearestValueProjector:
    """Projects integer codes onto the nearest member of an allowed set.

    The projection is a lookup table over
    ``[min(allowed[0], -128), max(allowed[-1], 127)]``, built once; codes
    outside it clamp to its ends, which map to the smallest and largest
    allowed values, so the table is exact for every integer code.
    """

    def __init__(self, allowed: Sequence[int], what: str) -> None:
        allowed = np.unique(np.asarray(allowed, dtype=np.int64))
        if allowed.size == 0:
            raise ValueError(f"allowed {what} set must not be empty")
        self.allowed = allowed
        self.what = what
        self._low = min(int(allowed[0]), -128)
        domain = np.arange(self._low, max(int(allowed[-1]), 127) + 1)
        idx = np.clip(np.searchsorted(allowed, domain), 0, allowed.size - 1)
        right = allowed[idx]
        left = allowed[np.maximum(idx - 1, 0)]
        pick_left = np.abs(domain - left) <= np.abs(right - domain)
        self._table = np.where(pick_left, left, right)

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        """Nearest allowed code for every input code (ties go down)."""
        return np.take(self._table, np.asarray(codes) - self._low,
                       mode="clip")

    def __contains__(self, code: int) -> bool:
        pos = np.searchsorted(self.allowed, code)
        return bool(pos < self.allowed.size and self.allowed[pos] == code)

    def __len__(self) -> int:
        return int(self.allowed.size)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.what}, "
                f"n={len(self)})")


class WeightRestriction(_NearestValueProjector):
    """Restriction of integer weight codes to the selected values.

    The zero code must always be allowed: conventional pruning and the
    zero-weight clock gating of the Optimized HW both rely on it.
    """

    def __init__(self, allowed: Sequence[int]) -> None:
        super().__init__(allowed, "weights")
        if 0 not in self:
            raise ValueError("weight restriction must allow the zero code")


class ActivationFilter(_NearestValueProjector):
    """Restriction of integer activation codes to the selected values.

    Applied inside the activation function of every layer, as the paper
    prescribes ("the filtering of activations needs to be integrated into
    the activation function after each layer").
    """

    def __init__(self, allowed: Sequence[int]) -> None:
        super().__init__(allowed, "activations")
        if 0 not in self:
            raise ValueError(
                "activation filter must allow the zero code (ReLU output)"
            )

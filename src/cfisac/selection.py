"""The set of APs that receive the sensing echo."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ApSelection:
    """Distinct AP indices out of num_aps, ascending; immutable, hashable."""

    num_aps: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        chosen = tuple(sorted({operator.index(i) for i in self.indices}))
        if chosen and not (chosen[0] >= 0 and chosen[-1] < self.num_aps):
            raise ValueError(f"AP index out of range [0, {self.num_aps})")
        object.__setattr__(self, "num_aps", operator.index(self.num_aps))
        object.__setattr__(self, "indices", chosen)

    @classmethod
    def from_indices(cls, num_aps: int, indices: Iterable[int]) -> "ApSelection":
        return cls(num_aps, tuple(indices))

    @classmethod
    def from_bitmask(cls, num_aps: int, mask: int) -> "ApSelection":
        """The APs whose bits are set in `mask`: the inverse of `bitmask`.
        A mask outside [0, 2**num_aps) sets a bit of no AP and raises
        ValueError."""
        if not 0 <= mask < 1 << num_aps:
            raise ValueError(f"bitmask {mask!r} outside [0, 2**{num_aps})")
        return cls(num_aps, tuple(i for i in range(num_aps) if mask >> i & 1))

    @classmethod
    def full(cls, num_aps: int) -> "ApSelection":
        return cls(num_aps, tuple(range(num_aps)))

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    @property
    def bitmask(self) -> int:
        """Bit i set when AP i is selected."""
        return sum(map((1).__lshift__, self.indices))

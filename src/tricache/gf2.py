"""GF(2) linear algebra on int bitsets."""

from __future__ import annotations

from typing import Iterable


class GF2Basis:
    """Incremental row basis over GF(2); rows are int bitmasks.

    Rows are kept in echelon form keyed by their lowest set bit, so
    membership tests reduce a vector bit by bit from the bottom.
    """

    def __init__(self, rows: Iterable[int] = ()) -> None:
        self._pivots: dict[int, int] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: int) -> int:
        """Residue of vec after elimination against the basis."""
        while vec:
            low = vec & -vec
            row = self._pivots.get(low)
            if row is None:
                return vec
            vec ^= row
        return 0

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    def add(self, vec: int) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        residue = self.reduce(vec)
        if residue == 0:
            return False
        self._pivots[residue & -residue] = residue
        return True


"""Small dense exact linear algebra over a field tower.

Vectors are sequences of field codes.  `Echelon` keeps an incrementally
row-reduced basis and, for a dependent insert, reports the combination of
previously inserted vectors that reproduces it; that is exactly what the
minimal-polynomial computation needs from a Krylov sequence.
"""

from __future__ import annotations

from .gf import FieldTower


class Echelon:
    def __init__(self, tower: FieldTower, width: int):
        self.tower = tower
        self.width = width
        # rows: (pivot index, reduced vector with pivot 1, combo over inserted)
        self._rows: list[tuple[int, list[int], list[int]]] = []
        self._inserted = 0

    def _reduce(self, vec) -> tuple[list[int], list[int]]:
        t = self.tower
        work = list(vec)
        combo = [0] * self._inserted
        for pivot, rvec, rcombo in self._rows:
            c = work[pivot]
            if c:
                for i, rv in enumerate(rvec):
                    if rv:
                        work[i] = t.sub(work[i], t.mul(c, rv))
                for j, rc in enumerate(rcombo):
                    if rc:
                        combo[j] = t.add(combo[j], t.mul(c, rc))
        return work, combo

    def insert(self, vec) -> list[int] | None:
        """Add a vector to the span.

        Returns None if the vector was independent (it is kept), else the
        coefficients expressing it over the previously inserted vectors.
        """
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        t = self.tower
        work, combo = self._reduce(vec)
        pivot = next((i for i, c in enumerate(work) if c), None)
        if pivot is None:
            return combo
        inv = t.inv(work[pivot])
        rvec = [t.mul(c, inv) for c in work]
        # reduced row = (vec - sum combo_j * inserted_j) / lead
        rcombo = [t.neg(t.mul(c, inv)) for c in combo]
        rcombo.append(inv)
        self._inserted += 1
        self._rows.append((pivot, rvec, rcombo))
        return None

    def contains(self, vec) -> bool:
        work, _ = self._reduce(vec)
        return not any(work)

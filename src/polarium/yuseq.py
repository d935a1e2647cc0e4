"""Extraction of the depth-break ladder from a polar datum.

Breaks are the distinct coroot pairing depths outside the levi; levels are
the sublevel sets (each presenting a twisted Levi), and the tail splits into
band components that reassemble exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantViolation, InvalidArgumentError
from .polar import PolarDatum
from .rootdata import is_q_closed, stable_under
from .tails import Tail


def breaks(d: PolarDatum) -> list[Fraction]:
    """Sorted distinct pairing depths over coroots outside the levi."""
    values = set()
    for idx, r in enumerate(d.lam.coroot_depths()):
        if idx in d.levi:
            continue
        if r is None:
            raise InvalidArgumentError(f"coroot {idx} outside levi pairs to zero")
        values.add(r)
    return sorted(values)


def levi_ladder(d: PolarDatum, break_seq) -> list[frozenset[int]]:
    """Nested levi subsets: level j is the sublevel set at the previous break."""
    rd = d.rd
    depths = {idx: r for idx, r in enumerate(d.lam.coroot_depths()) if idx not in d.levi}
    levels = [frozenset(d.levi)]
    for j in range(1, len(break_seq) + 1):
        cutoff = break_seq[j - 1]
        level = frozenset(set(d.levi) | {idx for idx, r in depths.items() if r <= cutoff})
        levels.append(level)
    for level in levels:
        if not is_q_closed(rd, level):
            raise InternalInvariantViolation(f"ladder level {sorted(level)} not rationally closed")
        if not stable_under(rd, d.torus.w, level):
            raise InternalInvariantViolation(f"ladder level {sorted(level)} not w-stable")
    return levels


def decompose_lambda(d: PolarDatum, break_seq) -> list[Tail]:
    """Band components: [0, r0], then (r_{j-1}, r_j], then (r_{d-1}, inf)."""
    lam = d.lam
    if not break_seq:
        return [lam]
    parts = [lam.restrict(None, break_seq[0])]
    for j in range(1, len(break_seq)):
        parts.append(lam.restrict(break_seq[j - 1], break_seq[j]))
    parts.append(lam.restrict(break_seq[-1], None))
    return parts


class YuLadder:
    """Breaks, nested levels, band components and half-depths of a datum."""

    __slots__ = ("datum", "breaks", "levels", "components", "half_depths")

    def __init__(self, datum: PolarDatum, break_seq, levels, components,
                 validate: bool = True):
        self.datum = datum
        self.breaks = list(break_seq)
        self.levels = [frozenset(l) for l in levels]
        self.components = list(components)
        self.half_depths = [r / 2 for r in self.breaks]
        if validate:
            self._validate()

    def _validate(self) -> None:
        d = self.datum
        rd = d.rd
        nroots = len(rd.roots)
        if len(self.levels) != len(self.breaks) + 1:
            raise InternalInvariantViolation("level count must be break count + 1")
        if len(self.components) != len(self.levels):
            raise InternalInvariantViolation("component count must match level count")
        if self.levels[0] != d.levi or len(self.levels[-1]) != nroots:
            raise InternalInvariantViolation("ladder endpoints are wrong")
        for a, b in zip(self.levels, self.levels[1:]):
            if not (a < b):
                raise InternalInvariantViolation("ladder inclusions must be strict")
        total = Tail.zero(rd, d.lam.m)
        for part in self.components:
            total = total.add(part)
        if total != d.lam:
            raise InternalInvariantViolation("band components do not reassemble the tail")
        # Centralizer identity: level j kills all components from j upward.
        tables = [part.coroot_depths() for part in self.components]
        for j, level in enumerate(self.levels):
            expected = frozenset(
                idx for idx in range(nroots) if all(t[idx] is None for t in tables[j:])
            )
            if expected != level:
                raise InternalInvariantViolation(
                    f"centralizer identity fails at level {j}: "
                    f"{sorted(expected)} vs {sorted(level)}"
                )

    def level_of_root(self, idx: int) -> int:
        """Least j with the root inside level j (0 for levi roots)."""
        for j, level in enumerate(self.levels):
            if idx in level:
                return j
        raise InvalidArgumentError(f"root {idx} missing from the top level")

    def __repr__(self):
        return (f"YuLadder(breaks={[str(b) for b in self.breaks]}, "
                f"levels={[sorted(l) for l in self.levels]})")


def extract(d: PolarDatum) -> YuLadder:
    """Full ladder extraction with machine-checked constructor."""
    seq = breaks(d)
    return YuLadder(d, seq, levi_ladder(d, seq), decompose_lambda(d, seq))


def ladder_to_json(ladder: YuLadder) -> dict:
    from .tails import tail_to_json

    return {
        "breaks": [str(b) for b in ladder.breaks],
        "half_depths": [str(s) for s in ladder.half_depths],
        "levels": [sorted(level) for level in ladder.levels],
        "components": [tail_to_json(part) for part in ladder.components],
    }

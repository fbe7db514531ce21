"""Exact operation tallies for verifying the macro's arithmetic-cost identities.

Counters are plain caller-owned accumulators: operations that accept a counter
add to it and never touch shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CATEGORIES = ("transform", "quantize", "norm", "table", "score")

_KINDS = ("multiplications", "additions", "comparisons", "lookups")


def _zero_table() -> dict[str, int]:
    return {cat: 0 for cat in CATEGORIES}


@dataclass
class OpCounter:
    """Tallies of multiplications/additions/comparisons/lookups by category.

    Categories mirror the datapath blocks: ``transform`` (butterfly network),
    ``quantize`` (comparator bank), ``norm`` (norm extraction), ``table``
    (per-query product-table build), ``score`` (lookup-accumulate-scale).
    Tallies only increase; totals are derived, so category sums always equal
    totals by construction.
    """

    multiplications: dict[str, int] = field(default_factory=_zero_table)
    additions: dict[str, int] = field(default_factory=_zero_table)
    comparisons: dict[str, int] = field(default_factory=_zero_table)
    lookups: dict[str, int] = field(default_factory=_zero_table)

    def add(self, category: str, *, mults: int = 0, adds: int = 0,
            comps: int = 0, lookups: int = 0) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown op category: {category!r}")
        if min(mults, adds, comps, lookups) < 0:
            raise ValueError("op tallies can only increase")
        self.multiplications[category] += mults
        self.additions[category] += adds
        self.comparisons[category] += comps
        self.lookups[category] += lookups

    # -- derived totals ----------------------------------------------------

    @property
    def total_multiplications(self) -> int:
        return sum(self.multiplications.values())

    @property
    def total_additions(self) -> int:
        return sum(self.additions.values())

    @property
    def total_comparisons(self) -> int:
        return sum(self.comparisons.values())

    @property
    def total_lookups(self) -> int:
        return sum(self.lookups.values())

    def mults_in(self, *categories: str) -> int:
        """Multiplication total restricted to the given categories."""
        return sum(self.multiplications[c] for c in categories)

    def to_dict(self) -> dict:
        """JSON-ready breakdown with per-category and total tallies."""
        out: dict = {}
        for kind in _KINDS:
            table = getattr(self, kind)
            out[kind] = {
                "total": sum(table.values()),
                "by_category": {cat: table[cat] for cat in CATEGORIES},
            }
        return out

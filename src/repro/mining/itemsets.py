"""Categorical itemsets.

In the paper's setting an *item* is an (attribute, category) pair and an
*itemset* assigns categories to a subset ``Cs`` of the attributes (a
record supports it when it matches on every assigned attribute).  Two
items on the same attribute can never co-occur in a record, so itemsets
contain at most one item per attribute -- the candidate-generation rules
in :mod:`repro.mining.apriori` rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.schema import Schema
from repro.exceptions import DataError, MiningError


@dataclass(frozen=True, order=True)
class Itemset:
    """An immutable itemset: ``((attr, value), ...)`` sorted by attribute.

    Examples
    --------
    >>> its = Itemset.of((2, 1), (0, 3))
    >>> its.items
    ((0, 3), (2, 1))
    >>> its.length
    2
    """

    items: tuple[tuple[int, int], ...]

    def __init__(self, items):
        items = tuple(sorted((int(a), int(v)) for a, v in items))
        if not items:
            raise MiningError("an itemset needs at least one item")
        attrs = [a for a, _ in items]
        if len(set(attrs)) != len(attrs):
            raise MiningError(
                f"itemset {items} assigns one attribute more than once"
            )
        object.__setattr__(self, "items", items)

    @classmethod
    def of(cls, *items) -> "Itemset":
        """Convenience variadic constructor."""
        return cls(items)

    @classmethod
    def _trusted(cls, items: tuple[tuple[int, int], ...]) -> "Itemset":
        """An itemset over ``items`` as given, skipping validation.

        ``items`` must already be a sorted tuple of ``(int, int)`` pairs
        on distinct attributes, such as an Apriori join of two itemsets.
        """
        itemset = object.__new__(cls)
        object.__setattr__(itemset, "items", items)
        return itemset

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of items (the paper's "itemset length")."""
        return len(self.items)

    @property
    def attributes(self) -> tuple[int, ...]:
        """Attribute positions, ascending (the subset ``Cs``)."""
        return tuple(a for a, _ in self.items)

    @property
    def values(self) -> tuple[int, ...]:
        """Category indices aligned with :attr:`attributes`."""
        return tuple(v for _, v in self.items)

    def __contains__(self, item) -> bool:
        return tuple(item) in self.items

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.items)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def union(self, other: "Itemset") -> "Itemset":
        """Union of two itemsets (raises if attributes conflict)."""
        merged = dict(self.items)
        for attr, value in other.items:
            if merged.get(attr, value) != value:
                raise MiningError(
                    f"cannot union itemsets disagreeing on attribute {attr}"
                )
            merged[attr] = value
        return Itemset(merged.items())

    def subsets_dropping_one(self) -> list["Itemset"]:
        """All ``(length-1)``-subsets (for Apriori pruning)."""
        if self.length == 1:
            return []
        return [
            Itemset(self.items[:i] + self.items[i + 1 :]) for i in range(self.length)
        ]

    def is_subset_of(self, other: "Itemset") -> bool:
        """Whether every item also appears in ``other``."""
        return set(self.items) <= set(other.items)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def label(self, schema: Schema) -> str:
        """Readable rendering like ``sex=Female & race=White``."""
        parts = []
        for attr, value in self.items:
            attribute = schema[attr]
            parts.append(f"{attribute.name}={attribute.categories[value]}")
        return " & ".join(parts)

    def cell(self, cardinalities) -> int:
        """This itemset's cell in the sub-domain of its attributes,
        indexed like :meth:`~repro.data.schema.Schema.encode_subset`.

        ``cardinalities`` is the schema's; an item outside that domain
        raises :class:`~repro.exceptions.DataError`.
        """
        cell = 0
        for attr, value in self.items:
            card = cardinalities[attr] if 0 <= attr < len(cardinalities) else 0
            if not 0 <= value < card:
                raise DataError(f"item ({attr}, {value}) out of domain for this schema")
            cell = cell * card + value
        return cell

    def boolean_positions(self, schema: Schema) -> tuple[int, ...]:
        """Positions of this itemset's items in the booleanized row.

        Used by the MASK and C&P estimators, which operate on the
        one-hot representation.
        """
        offsets = schema.boolean_offsets()
        return tuple(offsets[attr] + value for attr, value in self.items)


def all_items(schema: Schema) -> list[Itemset]:
    """Every 1-itemset of a schema, in (attribute, value) order."""
    return [
        Itemset.of((attr, value))
        for attr in range(schema.n_attributes)
        for value in range(schema.cardinalities[attr])
    ]

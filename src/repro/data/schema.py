"""Attribute and schema definitions.

A :class:`Schema` fixes the ordered list of categorical attributes and
provides the bijection between full records (one category index per
attribute) and the paper's joint index set
``I_U = {0, ..., |S_U| - 1}`` where ``|S_U| = prod_j |S^j_U|``.

The encoding is mixed-radix with attribute 0 most significant -- the
same ordering the paper's Section 5 uses via its prefix products
``n_j = prod_{k<=j} |S^k_U|`` (we expose those as
:meth:`Schema.prefix_products`).  One kernel computes it,
:meth:`Schema.encode_columns`, over one array per attribute: the
record-array encoders transpose into it, and the ``.frd`` reader feeds
it the memory-mapped columns directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DataError, SchemaError

#: Horner work dtypes with their largest values, narrowest first: the
#: encode kernel folds in the first one that holds the domain size.
_WORK_DTYPES = tuple(
    (dtype, int(np.iinfo(dtype).max)) for dtype in (np.int16, np.int32, np.int64)
)


def as_integer_array(values) -> np.ndarray:
    """Coerce to an integer array, preserving existing integer dtypes.

    The one coercion rule of the storage policy (see
    :mod:`repro.data.backing`): integer arrays of *any* width pass
    through untouched -- compact ``uint8`` cells are never silently
    upcast -- while lists, floats and booleans pay exactly one
    conversion to ``int64``.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array
    return array.astype(np.int64)


@dataclass(frozen=True)
class Attribute:
    """A single categorical attribute.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    categories:
        Ordered category labels; the attribute's domain ``S^j_U``.
    """

    name: str
    categories: tuple[str, ...]

    def __init__(self, name: str, categories):
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "categories", tuple(str(c) for c in categories))
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if len(self.categories) < 2:
            raise SchemaError(
                f"attribute {self.name!r} needs >= 2 categories, "
                f"got {len(self.categories)}"
            )
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"attribute {self.name!r} has duplicate categories")

    @property
    def cardinality(self) -> int:
        """``|S^j_U|`` -- the number of categories."""
        return len(self.categories)

    def index_of(self, label: str) -> int:
        """Category index for ``label`` (raises ``SchemaError`` if absent)."""
        try:
            return self.categories.index(label)
        except ValueError:
            raise SchemaError(
                f"attribute {self.name!r} has no category {label!r}"
            ) from None


@dataclass(frozen=True)
class Schema:
    """An ordered collection of categorical attributes.

    Examples
    --------
    >>> schema = Schema([
    ...     Attribute("sex", ["Female", "Male"]),
    ...     Attribute("country", ["US", "Other"]),
    ... ])
    >>> schema.joint_size
    4
    >>> schema.encode([[1, 0]])
    array([2])
    """

    attributes: tuple[Attribute, ...]
    _name_to_pos: dict = field(repr=False, compare=False, default_factory=dict)

    def __init__(self, attributes):
        attributes = tuple(attributes)
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(
            self, "_name_to_pos", {a.name: i for i, a in enumerate(attributes)}
        )

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __getitem__(self, key) -> Attribute:
        """Attribute by position (int) or by name (str)."""
        if isinstance(key, str):
            return self.attributes[self.position_of(key)]
        return self.attributes[key]

    @property
    def n_attributes(self) -> int:
        """``M`` -- the number of attributes."""
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(a.name for a in self.attributes)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """``(|S^1_U|, ..., |S^M_U|)``."""
        return tuple(a.cardinality for a in self.attributes)

    @property
    def joint_size(self) -> int:
        """``|S_U| = prod_j |S^j_U|`` -- size of the joint domain.

        Computed in exact Python-int arithmetic: wide schemas (50
        binary/quaternary attributes easily exceed ``2**63``) would
        silently overflow a fixed-width product, and the implicit
        Kronecker layer relies on this value being exact to route them
        away from joint-domain allocations.
        """
        return math.prod(self.cardinalities)

    @property
    def n_boolean(self) -> int:
        """``M_b = sum_j |S^j_U|`` -- booleanized width (used by MASK)."""
        return int(sum(self.cardinalities))

    def position_of(self, name: str) -> int:
        """Position of the attribute called ``name``."""
        try:
            return self._name_to_pos[name]
        except KeyError:
            raise SchemaError(f"schema has no attribute named {name!r}") from None

    def prefix_products(self) -> tuple[int, ...]:
        """Paper Section 5's ``n_j = prod_{k <= j} |S^k_U|`` for each j."""
        return tuple(itertools.accumulate(self.cardinalities, lambda x, y: x * y))

    def subset_size(self, positions) -> int:
        """``n_Cs = prod_{j in Cs} |S^j_U|`` for an attribute subset."""
        positions = self._validate_positions(positions)
        cards = self.cardinalities
        return math.prod(cards[p] for p in positions)

    def _validate_positions(self, positions) -> tuple[int, ...]:
        positions = tuple(int(p) for p in positions)
        for p in positions:
            if not 0 <= p < self.n_attributes:
                raise SchemaError(
                    f"attribute position {p} out of range 0..{self.n_attributes - 1}"
                )
        if len(set(positions)) != len(positions):
            raise SchemaError(f"duplicate attribute positions: {positions}")
        return positions

    # ------------------------------------------------------------------
    # record <-> joint-index mapping
    # ------------------------------------------------------------------
    def encode(self, records) -> np.ndarray:
        """Map records (shape ``(N, M)`` of category indices) to ``I_U``.

        The inverse of :meth:`decode`.  The records are transposed into
        one contiguous copy at their own cell width (compact ``uint8``
        records are *not* upcast to ``int64``) and encoded by
        :meth:`encode_columns`, so an out-of-domain cell raises
        :class:`~repro.exceptions.DataError`.
        """
        records = as_integer_array(records)
        if records.ndim != 2 or records.shape[1] != self.n_attributes:
            raise SchemaError(
                f"records must have shape (N, {self.n_attributes}), "
                f"got {records.shape}"
            )
        return self.encode_columns(np.ascontiguousarray(records.T))

    def encode_columns(self, columns, positions=None) -> np.ndarray:
        """Joint indices of per-attribute columns: the one encode kernel.

        ``columns[k]`` is a 1-D integer array holding the category index
        of attribute ``positions[k]`` for every record; ``positions``
        defaults to all attributes in schema order, which gives ``I_U``,
        and a subset gives :meth:`encode_subset`'s sub-domain.  Columns
        of any integer width, strided or memory-mapped, are read in
        place.  Each column is range-checked first; then Horner's rule,
        ``joint = joint * card + column``, folds them in the narrowest of
        ``int16``/``int32``/``int64`` that holds the domain size (every
        partial sum is below it), and the result is cast once to
        ``intp``.

        Raises
        ------
        DataError
            A cell is negative or not below its attribute's cardinality.
        SchemaError
            The columns do not match ``positions`` in number or length,
            or the domain has more cells than ``int64`` can index.
        """
        positions = (
            tuple(range(self.n_attributes))
            if positions is None
            else self._validate_positions(positions)
        )
        columns = [as_integer_array(column) for column in columns]
        if not positions or len(columns) != len(positions):
            raise SchemaError(
                f"expected one column per attribute position {positions}, "
                f"got {len(columns)} columns"
            )
        n_records = columns[0].shape[0] if columns[0].ndim == 1 else -1
        if any(column.shape != (n_records,) for column in columns):
            raise SchemaError(
                "columns must be 1-D and of equal length, got shapes "
                f"{[column.shape for column in columns]}"
            )
        cardinalities = self.cardinalities
        cards = [cardinalities[p] for p in positions]
        size = math.prod(cards)
        if size > _WORK_DTYPES[-1][1]:
            raise SchemaError(
                f"a domain of {size} cells has no int64 joint index; "
                "encode an attribute subset instead"
            )
        for position, column, card in zip(positions, columns, cards):
            if n_records and (
                column.max() >= card
                or (column.dtype.kind == "i" and column.min() < 0)
            ):
                record = int(np.argmax((column < 0) | (column >= card)))
                raise DataError(
                    f"record {record} has out-of-domain value "
                    f"{int(column[record])} for attribute "
                    f"{self.names[position]!r}"
                )
        work = next(dtype for dtype, largest in _WORK_DTYPES if size <= largest)
        joint = columns[0].astype(work)
        for column, card in zip(columns[1:], cards[1:]):
            joint *= card
            # The explicit loop dtype keeps uint64 columns off NumPy's
            # uint64 + int64 -> float64 promotion; the range check makes
            # the cast exact.
            np.add(joint, column, out=joint, dtype=work, casting="unsafe")
        return joint.astype(np.intp, copy=False)

    def decode(self, joint_indices, dtype=np.int64) -> np.ndarray:
        """Map joint indices in ``I_U`` back to ``(N, M)`` records.

        ``dtype`` fixes the cell dtype of the result (``int64`` by
        default for backward compatibility; pass a compact dtype from
        :func:`repro.data.backing.record_dtype` to decode without the
        blanket 8-byte upcast).
        """
        joint_indices = as_integer_array(joint_indices)
        if joint_indices.ndim != 1:
            raise SchemaError(
                f"joint indices must be 1-D, got shape {joint_indices.shape}"
            )
        if joint_indices.size and (
            joint_indices.min() < 0 or joint_indices.max() >= self.joint_size
        ):
            raise SchemaError("joint index out of range for this schema")
        unraveled = np.unravel_index(joint_indices, self.cardinalities)
        out = np.empty((joint_indices.shape[0], self.n_attributes), dtype=dtype)
        for j, column in enumerate(unraveled):
            out[:, j] = column
        return out

    def encode_subset(self, records, positions) -> np.ndarray:
        """Joint indices over the *sub*-domain of the given attributes.

        Used by the mining passes of Section 6 where supports are
        estimated over itemsets on a subset ``Cs`` of attributes.  The
        selected record columns go to :meth:`encode_columns` as strided
        views.
        """
        positions = self._validate_positions(positions)
        if not positions:
            raise SchemaError("attribute subset must be non-empty")
        records = as_integer_array(records)
        return self.encode_columns([records[:, p] for p in positions], positions)

    def decode_subset(self, joint_indices, positions) -> np.ndarray:
        """Inverse of :meth:`encode_subset` (columns in ``positions`` order)."""
        positions = self._validate_positions(positions)
        if not positions:
            raise SchemaError("attribute subset must be non-empty")
        cards = [self.cardinalities[p] for p in positions]
        joint_indices = np.asarray(joint_indices, dtype=np.int64)
        unraveled = np.unravel_index(joint_indices, cards)
        return np.stack(unraveled, axis=1).astype(np.int64)

    def marginalize_counts(self, counts, positions) -> np.ndarray:
        """Project joint-domain counts onto an attribute subset ``Cs``.

        Given a length-``|S_U|`` count (or weight) vector over the joint
        domain, returns the length-``n_Cs`` vector over the sub-domain
        of ``positions``, indexed exactly like
        :meth:`encode_subset`/:meth:`decode_subset` (i.e. in
        ``positions`` order).  For integer counts of a dataset this
        equals ``dataset.subset_counts(positions)`` -- which is what
        lets the streaming pipeline answer *any* subset query from one
        accumulated joint-count vector.
        """
        positions = self._validate_positions(positions)
        if not positions:
            raise SchemaError("attribute subset must be non-empty")
        counts = np.asarray(counts)
        if counts.shape != (self.joint_size,):
            raise SchemaError(
                f"counts must have shape ({self.joint_size},), got {counts.shape}"
            )
        tensor = counts.reshape(self.cardinalities)
        other = tuple(a for a in range(self.n_attributes) if a not in positions)
        if other:
            tensor = tensor.sum(axis=other)
        # Axes now run over sorted(positions); reorder to positions order.
        remaining = sorted(positions)
        tensor = np.transpose(tensor, axes=[remaining.index(p) for p in positions])
        return tensor.reshape(-1)

    # ------------------------------------------------------------------
    # booleanization (MASK substrate)
    # ------------------------------------------------------------------
    def boolean_offsets(self) -> tuple[int, ...]:
        """Start offset of each attribute's block in the booleanized row."""
        offsets = np.concatenate([[0], np.cumsum(self.cardinalities)[:-1]])
        return tuple(int(o) for o in offsets)

    def describe(self) -> str:
        """Human-readable multi-line summary of the schema."""
        lines = [f"Schema with {self.n_attributes} attributes, joint domain size {self.joint_size}"]
        for attr in self.attributes:
            lines.append(f"  {attr.name} ({attr.cardinality}): {', '.join(attr.categories)}")
        return "\n".join(lines)

"""Compact record backing: minimal dtypes for categorical cells.

FRAPP datasets are categorical, so every cell is a small non-negative
integer bounded by its attribute's cardinality -- yet the seed library
stored all of them as ``int64``.  This module fixes the storage policy
in one place:

* **Per-attribute minimal dtypes.**  :func:`minimal_dtype` picks the
  smallest unsigned integer type (``uint8``/``uint16``/``uint32``) that
  holds ``cardinality - 1``; :func:`column_dtypes` applies it per
  schema attribute.  The on-disk ``.frd`` format
  (:mod:`repro.data.io`) stores each attribute column at exactly this
  width.
* **Uniform compact cell dtype.**  In RAM a dataset keeps the natural
  ``(N, M)`` two-dimensional layout, so all cells share one dtype:
  :func:`record_dtype` returns the widest of the per-attribute minimal
  dtypes (``uint8`` for both paper schemas -- an 8x reduction over
  ``int64``).

Dtype choice can never change any count: category indices are equal as
integers whatever their width, and every kernel downstream
(``ravel_multi_index``, ``bincount``, the bitmap packer) consumes them
value-wise.  Tests pin this with a Hypothesis equivalence suite.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import DataError

#: The unsigned dtype ladder minimal dtypes are drawn from.
_DTYPE_LADDER = (np.uint8, np.uint16, np.uint32)


def validate_in_domain(schema: Schema, records: np.ndarray) -> None:
    """Raise :class:`DataError` unless every cell is inside its domain.

    The one domain scan of the storage policy, shared by dataset
    construction, the ``.frd`` writer, the bitmap packer and the
    service's wire decoder.  Reports the first offending record and
    attribute.
    """
    cards = np.asarray(schema.cardinalities, dtype=np.int64)
    if records.size and (np.any(records < 0) or np.any(records >= cards)):
        bad = np.argwhere((records < 0) | (records >= cards))[0]
        raise DataError(
            f"record {bad[0]} has out-of-domain value for attribute "
            f"{schema.names[bad[1]]!r}"
        )


def minimal_dtype(cardinality: int) -> np.dtype:
    """Smallest unsigned dtype holding category indices ``0..card-1``."""
    if cardinality < 1:
        raise DataError(f"cardinality must be >= 1, got {cardinality}")
    for dtype in _DTYPE_LADDER:
        if cardinality - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise DataError(
        f"cardinality {cardinality} exceeds the uint32 category-index range"
    )


def column_dtypes(schema: Schema) -> tuple[np.dtype, ...]:
    """Per-attribute minimal dtypes (the ``.frd`` column widths)."""
    return tuple(minimal_dtype(card) for card in schema.cardinalities)


def record_dtype(schema: Schema) -> np.dtype:
    """The uniform compact cell dtype: widest per-attribute minimum."""
    return max(column_dtypes(schema), key=lambda dtype: dtype.itemsize)

"""Incremental accumulation of a perturbed (or exact) record stream.

Two accumulators, two memory shapes:

* :class:`JointCountAccumulator` folds chunks into the perturbed count
  vector ``Y`` over the joint domain (paper Eq. 7/8) -- ``O(|S_U|)``
  memory regardless of the dataset size, since every reconstruction
  formula consumes only ``Y`` or its subset marginals (Eq. 28);
* :class:`BitmapAccumulator` folds chunks into packed per-item
  transaction bitmaps (:mod:`repro.mining.kernels`), merged by
  word-aligned concatenation -- ``O(N * M_b / 8)`` memory, but support
  queries then run on the vectorized AND/popcount kernel, which is the
  fast path when the stream fits in bitmap form.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema, as_integer_array
from repro.exceptions import DataError
from repro.mining.kernels import TransactionBitmaps


class JointCountAccumulator:
    """Running count of records per joint-domain value.

    Parameters
    ----------
    schema:
        The :class:`~repro.data.schema.Schema` fixing the joint domain.

    Notes
    -----
    Accumulators are additive: chunk order does not affect the totals,
    and :meth:`merge` combines accumulators built by different workers.
    That is what makes the totals invariant across worker counts -- the
    pipeline's per-chunk streams fix each chunk's contribution, and
    summation commutes.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._counts = np.zeros(schema.joint_size, dtype=np.int64)
        self._n_records = 0

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def update(self, chunk) -> "JointCountAccumulator":
        """Fold one chunk: a dataset, an ``(m, M)`` record array, or a
        1-D array of joint indices.  Compact integer dtypes are folded
        without an ``int64`` conversion copy."""
        if isinstance(chunk, CategoricalDataset):
            if chunk.schema != self.schema:
                raise DataError("chunk schema does not match the accumulator schema")
            return self.update_joint(chunk.joint_indices())
        chunk = as_integer_array(chunk)
        if chunk.ndim == 1:
            return self.update_joint(chunk)
        if chunk.ndim == 2 and chunk.shape[1] == self.schema.n_attributes:
            return self.update_joint(self.schema.encode(chunk))
        raise DataError(
            f"cannot interpret chunk of shape {chunk.shape} over this schema"
        )

    def update_joint(self, joint_indices: np.ndarray) -> "JointCountAccumulator":
        """Fold a 1-D array of joint indices (the fast path)."""
        joint_indices = as_integer_array(joint_indices)
        if joint_indices.size:
            if joint_indices.min() < 0 or joint_indices.max() >= self.schema.joint_size:
                raise DataError("joint index out of range for this schema")
            self._counts += np.bincount(
                joint_indices, minlength=self.schema.joint_size
            )
            self._n_records += int(joint_indices.shape[0])
        return self

    def update_counts(self, counts: np.ndarray, n_records: int) -> "JointCountAccumulator":
        """Fold a pre-binned count vector (what pool workers send back)."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.schema.joint_size,):
            raise DataError(
                f"counts must have shape ({self.schema.joint_size},), "
                f"got {counts.shape}"
            )
        self._counts += counts
        self._n_records += int(n_records)
        return self

    def merge(self, other: "JointCountAccumulator") -> "JointCountAccumulator":
        """Fold another accumulator over the same schema into this one."""
        if other.schema != self.schema:
            raise DataError("cannot merge accumulators over different schemas")
        return self.update_counts(other.counts, other.n_records)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """The accumulated ``Y`` vector (copy; shape ``(|S_U|,)``)."""
        return self._counts.copy()

    @property
    def n_records(self) -> int:
        """Total number of records folded so far."""
        return self._n_records

    def fractions(self) -> np.ndarray:
        """``Y / N`` -- fractional joint supports (zeros when empty)."""
        if self._n_records == 0:
            return np.zeros(self.schema.joint_size)
        return self._counts / self._n_records

    def subset_counts(self, positions) -> np.ndarray:
        """Accumulated counts marginalised onto an attribute subset.

        Indexed like :meth:`Schema.encode_subset`; matches
        ``dataset.subset_counts`` on the union of all folded chunks.
        """
        return self.schema.marginalize_counts(self._counts, positions)

    def __repr__(self) -> str:
        return (
            f"JointCountAccumulator(n_records={self._n_records}, "
            f"joint_size={self.schema.joint_size})"
        )


class BitmapAccumulator:
    """Running packed transaction bitmaps of a record stream.

    Chunks are packed independently and merged by word-aligned
    concatenation (each chunk keeps its own zero tail), which makes the
    fold additive exactly like :class:`JointCountAccumulator`: chunk
    order and chunk boundaries cannot change any AND/popcount query, so
    supports match packing the whole stream in one shot bit for bit.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._parts: list[TransactionBitmaps] = []
        self._merged: TransactionBitmaps | None = None

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def update(self, chunk) -> "BitmapAccumulator":
        """Fold one chunk: a dataset or an ``(m, M)`` record array."""
        if isinstance(chunk, CategoricalDataset):
            if chunk.schema != self.schema:
                raise DataError("chunk schema does not match the accumulator schema")
            return self.update_bitmaps(TransactionBitmaps.from_dataset(chunk))
        return self.update_bitmaps(
            TransactionBitmaps.from_records(self.schema, chunk)
        )

    def update_bitmaps(self, bitmaps: TransactionBitmaps) -> "BitmapAccumulator":
        """Fold an already-packed chunk (what pool workers could send)."""
        if bitmaps.schema != self.schema:
            raise DataError("bitmap schema does not match the accumulator schema")
        self._parts.append(bitmaps)
        self._merged = None
        return self

    def merge(self, other: "BitmapAccumulator") -> "BitmapAccumulator":
        """Fold another accumulator over the same schema into this one."""
        if other.schema != self.schema:
            raise DataError("cannot merge accumulators over different schemas")
        self._parts.extend(other._parts)
        self._merged = None
        return self

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        """Total number of records folded so far."""
        return sum(part.n_records for part in self._parts)

    @property
    def bitmaps(self) -> TransactionBitmaps:
        """The merged packed bitmaps (cached until the next fold)."""
        if not self._parts:
            raise DataError("cannot merge an empty bitmap accumulator")
        if self._merged is None:
            self._merged = TransactionBitmaps.concatenate(self._parts)
            self._parts = [self._merged]
        return self._merged

    def subset_counts(self, positions) -> np.ndarray:
        """Accumulated counts over an attribute subset's sub-domain.

        Answered by AND/popcount over the merged bitmaps; indexed and
        valued like :meth:`JointCountAccumulator.subset_counts`.
        """
        return self.bitmaps.subset_counts(positions)

    def __repr__(self) -> str:
        return (
            f"BitmapAccumulator(n_records={self.n_records}, "
            f"n_chunks={len(self._parts)})"
        )

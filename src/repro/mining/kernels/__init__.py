"""Bit-packed vectorized support-counting kernels.

Apriori-style mining is dominated by support counting: every level
re-scans the dataset once per candidate attribute-subset.  This package
replaces those scans with MASK-style transaction bitmaps (Rizvi &
Haritsa, VLDB 2002): each *item* -- an (attribute, category) pair --
owns one bitmap over the records, packed 64 bits per ``uint64`` word,
and the support of any itemset is the popcount of the AND of its items'
bitmaps.  Whole candidate batches are evaluated with vectorized
AND + popcount, and each Apriori level reuses the previous level's
itemset bitmaps so a level-``k`` candidate costs a single AND.

* :mod:`repro.mining.kernels.bitmap` -- the packed representation
  (:class:`TransactionBitmaps`) plus the popcount/packing primitives;
* :mod:`repro.mining.kernels.counting` -- the batched
  :class:`BitmapSupportCounter` (an Apriori ``SupportSource``), the
  memoised superset counts behind the MASK and C&P estimators' pattern
  counts (:class:`~repro.mining.kernels.counting.SupersetCounts`);
* :mod:`repro.mining.kernels.native` -- typed wrappers around the
  optional compiled extension (``repro._native_kernels``): threaded
  hardware-popcount AND reductions and the fused sample-and-encode
  kernels.

Every kernel is *exact*: counts are integers identical to a
per-subset ``bincount`` (the oracle the tests compare against).  So
the layer picks the kernel itself -- the compiled ones when
:func:`repro.mining.kernels.native.available` is true (it honours
``REPRO_FORCE_PYTHON=1``), the NumPy bitmap ones otherwise -- and no
caller selects one.
"""

from repro.mining.kernels import native
from repro.mining.kernels.bitmap import (
    TransactionBitmaps,
    pack_bit_rows,
    popcount_words,
)
from repro.mining.kernels.counting import (
    BitmapSupportCounter,
    pattern_counts,
)

__all__ = [
    "BitmapSupportCounter",
    "TransactionBitmaps",
    "native",
    "pack_bit_rows",
    "pattern_counts",
    "popcount_words",
]

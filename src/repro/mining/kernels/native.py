"""Typed wrappers around the optional ``repro._native_kernels`` extension.

The C extension (built by ``setup.py``; see ``src/repro/_native_kernels.c``)
works on raw contiguous buffers and trusts its caller for dtypes, so
every entry point here validates shapes/dtypes, forces contiguity, and
allocates outputs before handing plain buffers down.  Nothing in this
module raises when the extension is absent: :func:`available` is the
one selection predicate.  The counting kernels in
:mod:`repro.mining.kernels` and the sampling hooks in
``repro.core.engine`` run the compiled paths exactly when it is true,
and the NumPy paths otherwise.

Set ``REPRO_FORCE_PYTHON=1`` to ignore a built extension and exercise
the pure-python paths (the CI forced-fallback lane does exactly this).

All kernels are *exact*: counting is integer popcount, and the fused
samplers replicate the NumPy reference float-for-float (same draw
order, same IEEE operations), so the selection never changes a single
output bit -- which is why it needs no per-call knob.
"""

from __future__ import annotations

import os

import numpy as np

# Joint domains must fit comfortably in int64 for the native realise
# kernels (shift arithmetic is int64); wide composite schemas exceed
# this and never reach these engines, but the guard keeps the contract
# explicit.
MAX_NATIVE_DOMAIN = 1 << 62

_FORCED_OFF = os.environ.get("REPRO_FORCE_PYTHON", "") == "1"

try:  # pragma: no cover - import outcome depends on the build
    if _FORCED_OFF:
        _lib = None
    else:
        from repro import _native_kernels as _lib
except ImportError:  # pragma: no cover - pure-python installs
    _lib = None


def available() -> bool:
    """Whether the compiled kernel extension is importable and enabled."""
    return _lib is not None


def status() -> dict:
    """Capability report for health endpoints and diagnostics."""
    return {
        "available": available(),
        "forced_python": _FORCED_OFF,
        "abi": int(getattr(_lib, "KERNEL_ABI", 0)) if _lib is not None else None,
    }


def _words_2d(words: np.ndarray) -> np.ndarray:
    """Validate and return a C-contiguous 2-D uint64 word matrix."""
    if words.dtype != np.uint64 or words.ndim != 2:
        raise ValueError(f"expected 2-D uint64 words, got {words.dtype}/{words.ndim}-D")
    return np.ascontiguousarray(words)


def _index_vector(idx, n: int) -> np.ndarray:
    """Validate a flat int64 index vector of length ``n``."""
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.shape != (n,):
        raise ValueError(f"expected index vector of shape ({n},), got {idx.shape}")
    return idx


def popcount_total(words: np.ndarray) -> int:
    """Total set bits of a uint64 array (any shape), threaded."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return int(_lib.popcount_all(words.reshape(-1), words.size))


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit totals of a ``(R, W)`` uint64 matrix."""
    words = _words_2d(words)
    out = np.empty(words.shape[0], dtype=np.int64)
    _lib.popcount_rows(words, words.shape[0], words.shape[1], out)
    return out


def and_group_counts(
    words: np.ndarray,
    groups: np.ndarray,
    out_words: np.ndarray | None = None,
    out_idx: np.ndarray | None = None,
) -> np.ndarray:
    """Fused AND-reduce + popcount over fixed-length row groups.

    ``groups`` is ``(G, K)`` int64 row indices into ``words``; group
    ``g``'s reduction is ``AND(words[groups[g, k]] for k)`` and the
    return value is its popcount.  With ``out_words`` given, the
    reduced bitmap rows are also stored (into row ``out_idx[g]``, or
    row ``g`` when ``out_idx`` is None) -- that is the accumulator
    write :class:`~repro.mining.kernels.counting.BitmapSupportCounter`
    uses for its level cache.
    """
    words = _words_2d(words)
    groups = np.ascontiguousarray(groups, dtype=np.int64)
    if groups.ndim != 2:
        raise ValueError(f"groups must be 2-D (G, K), got {groups.ndim}-D")
    n_groups, group_len = groups.shape
    counts = np.empty(n_groups, dtype=np.int64)
    out_rows = 0
    if out_words is not None:
        out_words = _words_2d(out_words)
        if out_words.shape[1] != words.shape[1]:
            raise ValueError("out_words word width mismatch")
        out_rows = out_words.shape[0]
        if out_idx is not None:
            out_idx = _index_vector(out_idx, n_groups)
    _lib.and_groups(
        words,
        words.shape[0],
        words.shape[1],
        groups,
        n_groups,
        group_len,
        out_words if out_words is not None else None,
        out_idx if (out_words is not None and out_idx is not None) else None,
        out_rows,
        counts,
    )
    return counts


def and_pair_counts(
    a_words: np.ndarray,
    a_idx,
    b_words: np.ndarray,
    b_idx,
    out_words: np.ndarray | None = None,
    out_idx=None,
) -> np.ndarray:
    """Fused pairwise AND + popcount: ``a_words[a_idx] & b_words[b_idx]``.

    The cached-prefix Apriori path: ``a`` is the previous level's
    reduced bitmaps, ``b`` the item rows, and ``out_words``/``out_idx``
    scatter the new reductions into this level's cache.
    """
    a_words = _words_2d(a_words)
    b_words = _words_2d(b_words)
    if a_words.shape[1] != b_words.shape[1]:
        raise ValueError("word width mismatch between pair operands")
    a_idx = np.ascontiguousarray(a_idx, dtype=np.int64)
    n_pairs = a_idx.shape[0]
    a_idx = _index_vector(a_idx, n_pairs)
    b_idx = _index_vector(b_idx, n_pairs)
    counts = np.empty(n_pairs, dtype=np.int64)
    out_rows = 0
    if out_words is not None:
        out_words = _words_2d(out_words)
        if out_words.shape[1] != a_words.shape[1]:
            raise ValueError("out_words word width mismatch")
        out_rows = out_words.shape[0]
        out_idx = _index_vector(out_idx, n_pairs)
    _lib.and_pairs(
        a_words,
        a_words.shape[0],
        a_words.shape[1],
        a_idx,
        b_words,
        b_words.shape[0],
        b_idx,
        n_pairs,
        out_words if out_words is not None else None,
        out_idx if out_words is not None else None,
        out_rows,
        counts,
    )
    return counts


def _realise_args(joint, n, draws, keep_col, shift_col, cards, out_dtype):
    """Shared validation for the realise kernels; returns packed args."""
    if int(n) > MAX_NATIVE_DOMAIN:
        raise ValueError(f"joint domain {n} exceeds the native kernel range")
    joint = np.ascontiguousarray(joint, dtype=np.int64)
    if joint.ndim != 1:
        raise ValueError("joint indices must be 1-D")
    m = joint.shape[0]
    if cards is None:
        out = np.empty(m, dtype=np.int64)
        cards_arr, n_attrs, itemsize = None, 0, 8
    else:
        cards_arr = np.ascontiguousarray(cards, dtype=np.int64)
        n_attrs = cards_arr.shape[0]
        out = np.empty((m, n_attrs), dtype=out_dtype)
        itemsize = out.dtype.itemsize
    return joint, m, out, cards_arr, n_attrs, itemsize


def realise_from_uniforms(
    joint,
    diagonal,
    n: int,
    draws: np.ndarray,
    keep_col: int,
    shift_col: int,
    cards=None,
    out_dtype=np.int64,
) -> np.ndarray:
    """Diagonal-or-other realisation from a pre-drawn uniform block.

    Bit-identical to ``_realise_diagonal_or_other`` in
    ``repro.core.engine``: a record is kept when
    ``draws[:, keep_col] < diagonal`` and otherwise moves to
    ``(joint + 1 + floor(draws[:, shift_col] * (n - 1))) mod n``.  The
    C kernel takes that modulo, the NumPy one adds ``n`` back to a
    negative difference instead; both are exact for every domain up to
    ``MAX_NATIVE_DOMAIN``, the largest this kernel accepts.
    ``diagonal`` may be a scalar or a per-record vector.  With
    ``cards`` given the realised joint indices are decoded straight
    into an ``(m, len(cards))`` record array of ``out_dtype`` -- the
    fused encode path that skips the int64 joint intermediate.
    """
    joint, m, out, cards_arr, n_attrs, itemsize = _realise_args(
        joint, n, draws, keep_col, shift_col, cards, out_dtype
    )
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] != m:
        raise ValueError(f"draws must be (m, width), got {draws.shape}")
    diag_vec = None
    diag_scalar = 0.0
    if np.ndim(diagonal) == 0:
        diag_scalar = float(diagonal)
    else:
        diag_vec = np.ascontiguousarray(diagonal, dtype=np.float64)
        if diag_vec.shape != (m,):
            raise ValueError("per-record diagonal must have one entry per record")
    _lib.realise(
        joint,
        m,
        diag_vec,
        diag_scalar,
        int(n),
        draws,
        draws.shape[1],
        int(keep_col),
        int(shift_col),
        cards_arr,
        n_attrs,
        out,
        itemsize,
    )
    return out


def draw_realise(
    rng: np.random.Generator,
    joint,
    diagonal: float,
    n: int,
    width: int,
    keep_col: int,
    shift_col: int,
    cards=None,
    out_dtype=np.int64,
) -> np.ndarray:
    """Fused draw + realise (+ optional decode) from a NumPy Generator.

    Draws ``width`` doubles per record directly from ``rng``'s bit
    generator -- the byte-identical stream of ``rng.random((m, width))``,
    advancing the generator state exactly as that call would -- and
    realises each record in the same pass.  Only scalar diagonals are
    fused (DET-GD); per-record diagonals need the draw block in Python
    first (see :func:`realise_from_uniforms`).

    The bit-generator lock is held for the whole kernel, matching how
    NumPy's own fill loops serialise state access.
    """
    joint, m, out, cards_arr, n_attrs, itemsize = _realise_args(
        joint, n, None, keep_col, shift_col, cards, out_dtype
    )
    if not 1 <= int(width) <= 8:
        raise ValueError(f"uniform width {width} out of the fused kernel's range")
    bit_generator = rng.bit_generator
    address = bit_generator.ctypes.bit_generator.value
    with bit_generator.lock:
        _lib.draw_realise(
            address,
            joint,
            m,
            float(diagonal),
            int(n),
            int(width),
            int(keep_col),
            int(shift_col),
            cards_arr,
            n_attrs,
            out,
            itemsize,
        )
    return out

"""The keep-or-shift realisation written with its modulo, kept as oracles.

The gamma-diagonal samplers realise ``V = U`` when the keep draw falls
below the diagonal, and otherwise the cyclic shift
``(U + 1 + floor(u_shift * (n - 1))) mod n``.  The NumPy kernel,
``_realise_diagonal_or_other`` in :mod:`repro.core.engine`, computes it
without a modulo; the native ``realise`` takes the modulo in C.  These
two references spell the formula out:

* :func:`realise_reference` -- the NumPy form, bit for bit what the
  kernels return while ``2 * (n - 1)`` fits ``int64`` (``n <= 2**62``);
  beyond that its ``joint + shift`` wraps;
* :func:`realise_exact` -- the same formula in Python ints, exact for
  every ``n``.
"""

from __future__ import annotations

import numpy as np


def realise_reference(joint, diagonal, n, keep, shift_draws):
    """The pure-NumPy keep-or-shift realisation the kernels replicate."""
    keep_mask = keep < diagonal
    shift = 1 + (shift_draws * (n - 1)).astype(np.int64)
    return np.where(keep_mask, joint, (joint + shift) % n)


def realise_exact(joint, diagonal, n, keep, shift_draws) -> list[int]:
    """:func:`realise_reference` record by record, in Python ints.

    The float steps are the kernels' own (``u < diagonal`` and
    ``u * (n - 1)`` in double precision, truncated); only the integer
    arithmetic is unbounded.
    """
    diagonal = np.broadcast_to(diagonal, np.shape(joint))
    return [
        int(u) if float(k) < float(d) else (int(u) + 1 + int(float(s) * (n - 1))) % n
        for u, d, k, s in zip(joint, diagonal, keep, shift_draws)
    ]

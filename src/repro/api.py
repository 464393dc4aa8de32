"""The stable public facade of the FRAPP reproduction.

Four verbs and a session object cover the paper's whole workflow:

* :func:`perturb` -- FRAPP's client-side step (paper Section 2);
* :func:`reconstruct` -- itemset supports from a perturbed database
  (Eq. 28 / the generic marginal inversion);
* :func:`mine` -- perturb + Apriori over reconstructed supports
  (Section 6's evaluation protocol);
* :func:`connect` -- a client for a running ``frapp serve`` daemon;
* :class:`Session` -- the three offline verbs bound to one schema,
  mechanism, seed and set of execution knobs.

Everything here is re-exported from :mod:`repro` itself, and the
surface is pinned: ``tools/check_api_surface.py`` fails CI when a
public name appears or disappears without ``api_surface.txt`` changing
in the same commit.

The facade only composes public pieces -- the mechanism registry
(:func:`repro.mechanisms.resolve`), the chunked pipeline, the Apriori
miner -- so everything it does remains available unbundled to code
that needs lower-level control.

Examples
--------
>>> from repro import api
>>> from repro.data import census_schema, generate_census
>>> data = generate_census(2000, seed=1)
>>> session = api.Session(data.schema, mechanism="det-gd",
...                       params={"gamma": 19.0}, seed=7)
>>> released = session.perturb(data)
>>> result = session.mine(data, min_support=0.05)
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.io import FrdDataset
from repro.data.schema import Schema
from repro.exceptions import ExperimentError
from repro.mechanisms import resolve
from repro.mining.apriori import AprioriResult, apriori
from repro.mining.itemsets import Itemset
from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE

__all__ = ["Session", "connect", "mine", "perturb", "reconstruct"]

#: What a mechanism named by string takes when its factory accepts it:
#: the paper's ``gamma = 19``.
_DEFAULTS = {"gamma": 19.0}


def _as_dataset(schema: Schema, data) -> CategoricalDataset:
    """Accept a dataset, an open ``.frd`` file or a raw ``(N, M)`` record
    array; anything else raises :class:`ExperimentError`."""
    if isinstance(data, FrdDataset):
        data = data.to_dataset()
    if isinstance(data, CategoricalDataset):
        if data.schema != schema:
            raise ExperimentError(
                "the dataset's schema does not match the session schema"
            )
        return data
    records = np.asarray(data)
    if records.dtype.kind not in "biuf":
        raise ExperimentError(
            "expected a dataset, an open .frd file or an (N, M) record "
            f"array, got {type(data).__name__}"
        )
    return CategoricalDataset(schema, records)


def _as_itemsets(itemsets) -> list[Itemset]:
    """Accept :class:`Itemset` objects or ``(attribute, value)`` pairs."""
    return [
        its if isinstance(its, Itemset) else Itemset(its) for its in itemsets
    ]


class Session:
    """One schema + mechanism + seed + execution knobs, bound together.

    The offline counterpart of a service collection: every verb uses
    the same mechanism instance and default seed, so a session's
    ``perturb`` output feeds its ``reconstruct`` consistently.

    Parameters
    ----------
    schema:
        The categorical schema all datasets of this session share.
    mechanism:
        Registry name, alias or display name (``"det-gd"``,
        ``"RAN-GD"``, ``"cp"``, ...), ``{"name", "params"}`` spec dict,
        :class:`~repro.mechanisms.MechanismSpec`, or a built
        :class:`~repro.mechanisms.Mechanism` over ``schema``
        (resolved by :func:`repro.mechanisms.resolve`).  A name gets
        the paper's ``gamma = 19`` when its factory takes ``gamma``.
    params:
        Extra mechanism parameters merged over the name's defaults or
        the spec's own (e.g. ``{"gamma": 9.0}``).
    seed:
        Default perturbation seed; each verb accepts an overriding
        ``seed=`` keyword.
    workers, chunk_size:
        Execution knobs routed to
        :class:`~repro.pipeline.PerturbationPipeline`, which every
        pipeline-capable mechanism perturbs through (in-process at
        ``workers=1``, where no chunk size changes a result).  MASK
        and C&P perturb in one shot and refuse ``workers != 1``.
    """

    def __init__(
        self,
        schema: Schema,
        *,
        mechanism="det-gd",
        params: dict | None = None,
        seed=None,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        self.schema = schema
        self.mechanism = resolve(
            mechanism, schema, defaults=_DEFAULTS, params=params
        )
        self.seed = seed
        self.workers = int(workers)
        self.chunk_size = chunk_size

    def perturb(self, data, *, seed=None) -> CategoricalDataset:
        """Perturb a dataset (or raw record array) with this session's
        mechanism.

        At ``workers=1`` the output is bit-identical to the
        mechanism's one-shot ``perturb`` for the same seed, whatever
        the chunk size (the pipeline's determinism contract).
        """
        dataset = _as_dataset(self.schema, data)
        seed = self.seed if seed is None else seed
        if not self.mechanism.supports_pipeline:
            self.mechanism._reject_pipeline(self.workers)
            return self.mechanism.perturb(dataset, seed=seed)
        from repro.pipeline import PerturbationPipeline

        pipeline = PerturbationPipeline(
            self.mechanism, chunk_size=self.chunk_size, workers=self.workers
        )
        return pipeline.perturb(dataset, seed=seed)

    def reconstruct(self, perturbed, itemsets) -> np.ndarray:
        """Reconstructed fractional supports of ``itemsets``.

        ``perturbed`` is a dataset this session's mechanism released
        (from :meth:`perturb`, the service spool, or disk); supports
        come from the mechanism's marginal inversion and may be
        slightly negative for rare itemsets.  Only columnar mechanisms
        release categorical records; MASK and C&P raise
        :class:`~repro.exceptions.ExperimentError` (use :meth:`mine`).
        """
        from repro.mechanisms.base import ColumnarMechanism, MarginalInversionEstimator

        if not isinstance(self.mechanism, ColumnarMechanism):
            raise ExperimentError(
                f"{self.mechanism.display} releases no categorical records "
                "to reconstruct from; mine() the original data instead"
            )
        dataset = _as_dataset(self.schema, perturbed)
        estimator = MarginalInversionEstimator(
            self.mechanism, dataset.subset_counts, dataset.n_records
        )
        return estimator.supports(_as_itemsets(itemsets))

    def mine(
        self, data, min_support: float, *, max_length=None, seed=None
    ) -> AprioriResult:
        """Perturb ``data`` and Apriori-mine the reconstructed supports."""
        dataset = _as_dataset(self.schema, data)
        seed = self.seed if seed is None else seed
        estimator = self.mechanism.build_estimator(
            dataset,
            seed=seed,
            workers=self.workers,
            chunk_size=self.chunk_size,
        )
        return apriori(estimator, self.schema, min_support, max_length)

    def __repr__(self) -> str:
        return (
            f"Session(mechanism={self.mechanism.spec()!s}, seed={self.seed!r}, "
            f"workers={self.workers})"
        )


def perturb(data, *, schema=None, mechanism="det-gd", params=None, seed=None):
    """One-shot :meth:`Session.perturb` (schema taken from the dataset)."""
    schema = schema if schema is not None else data.schema
    return Session(schema, mechanism=mechanism, params=params, seed=seed).perturb(
        data
    )


def reconstruct(perturbed, itemsets, *, schema=None, mechanism="det-gd",
                params=None):
    """One-shot :meth:`Session.reconstruct` for a released dataset."""
    schema = schema if schema is not None else perturbed.schema
    return Session(schema, mechanism=mechanism, params=params).reconstruct(
        perturbed, itemsets
    )


def mine(data, min_support: float = 0.02, *, schema=None, mechanism="det-gd",
         params=None, seed=None, max_length=None):
    """One-shot :meth:`Session.mine` over a dataset."""
    schema = schema if schema is not None else data.schema
    return Session(schema, mechanism=mechanism, params=params, seed=seed).mine(
        data, min_support, max_length=max_length
    )


def connect(address="127.0.0.1:8417", *, timeout: float = 60.0, retry=None):
    """A client for a running ``frapp serve`` daemon.

    ``address`` may be ``"host:port"``, a bare port integer, or an
    ``http://host:port`` URL (as announced by ``frapp serve`` on
    startup).  ``retry`` is an optional
    :class:`~repro.service.client.RetryPolicy` for deadline-aware
    backoff on retry-safe requests.  Returns a
    :class:`~repro.service.client.ServiceClient`.
    """
    from repro.service.client import ServiceClient

    if isinstance(address, int):
        return ServiceClient(port=address, timeout=timeout, retry=retry)
    address = str(address)
    if address.startswith("http://"):
        address = address[len("http://") :].rstrip("/")
    host, _, port = address.rpartition(":")
    if not host:
        host, port = address, "8417"
    try:
        return ServiceClient(
            host=host, port=int(port), timeout=timeout, retry=retry
        )
    except ValueError:
        raise ExperimentError(
            f"cannot parse service address {address!r}; expected host:port"
        ) from None

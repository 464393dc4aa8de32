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
(:func:`repro.mechanisms.create`), the chunked pipeline, the Apriori
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
from repro.data.schema import Schema
from repro.exceptions import ExperimentError
from repro.mechanisms import MechanismSpec, from_spec
from repro.mining.apriori import AprioriResult, apriori
from repro.mining.itemsets import Itemset

__all__ = ["Session", "connect", "mine", "perturb", "reconstruct"]

_DEFAULT_MECHANISM = "det-gd"
_DEFAULT_PARAMS = {"gamma": 19.0}


def _resolve_mechanism(schema: Schema, mechanism, params):
    """Turn any accepted mechanism designator into a live mechanism.

    Accepts a registry name, a ``{"name", "params"}`` dict, a
    :class:`~repro.mechanisms.MechanismSpec`, or an already-built
    mechanism object (returned as-is; ``params`` must then be unset).
    """
    if hasattr(mechanism, "perturb_chunk") and hasattr(mechanism, "schema"):
        if params:
            raise ExperimentError(
                "params cannot be combined with an already-built mechanism; "
                "pass a registry name or spec instead"
            )
        if mechanism.schema != schema:
            raise ExperimentError(
                "the mechanism's schema does not match the session schema"
            )
        return mechanism
    if isinstance(mechanism, MechanismSpec):
        spec = mechanism
    elif isinstance(mechanism, dict):
        spec = MechanismSpec.from_dict(mechanism)
    elif isinstance(mechanism, str):
        spec = MechanismSpec(
            mechanism, _DEFAULT_PARAMS if mechanism == _DEFAULT_MECHANISM else {}
        )
    else:
        raise ExperimentError(
            f"mechanism must be a name, spec dict, MechanismSpec or mechanism "
            f"object, got {type(mechanism).__name__}"
        )
    merged = spec.as_params()
    if params:
        merged.update(params)
    return from_spec(MechanismSpec(spec.name, merged), schema)


def _as_dataset(schema: Schema, data) -> CategoricalDataset:
    """Accept a dataset or a raw ``(N, M)`` record array."""
    if isinstance(data, CategoricalDataset):
        if data.schema != schema:
            raise ExperimentError(
                "the dataset's schema does not match the session schema"
            )
        return data
    if hasattr(data, "schema") and hasattr(data, "records"):
        # Other dataset-shaped objects (e.g. FrdDataset) pass through
        # on their records.
        return CategoricalDataset(schema, np.asarray(data.records))
    return CategoricalDataset(schema, np.asarray(data))


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
        Registry name (``"det-gd"``, ``"ran-gd"``, ``"mask"``, ...),
        ``{"name", "params"}`` spec dict,
        :class:`~repro.mechanisms.MechanismSpec`, or an already-built
        mechanism object.  The bare name ``"det-gd"`` defaults to the
        paper's ``gamma = 19``.
    params:
        Extra mechanism parameters merged over the spec's (e.g.
        ``{"gamma": 9.0}``).
    seed:
        Default perturbation seed; each verb accepts an overriding
        ``seed=`` keyword.
    workers, chunk_size:
        Execution knobs routed to
        :class:`~repro.pipeline.PerturbationPipeline` (in-process and
        one-shot when left at their defaults).
    """

    def __init__(
        self,
        schema: Schema,
        *,
        mechanism="det-gd",
        params: dict | None = None,
        seed=None,
        workers: int = 1,
        chunk_size: int | None = None,
    ):
        self.schema = schema
        self.mechanism = _resolve_mechanism(schema, mechanism, params)
        self.seed = seed
        self.workers = int(workers)
        self.chunk_size = chunk_size

    def _pipelined(self) -> bool:
        return self.workers != 1 or self.chunk_size is not None

    def perturb(self, data, *, seed=None) -> CategoricalDataset:
        """Perturb a dataset (or raw record array) with this session's
        mechanism.

        Bit-identical across the direct and pipelined paths for the
        same seed (the pipeline's determinism contract).
        """
        dataset = _as_dataset(self.schema, data)
        seed = self.seed if seed is None else seed
        if self._pipelined():
            from repro.pipeline import PerturbationPipeline

            pipeline = PerturbationPipeline(
                self.mechanism,
                workers=self.workers,
                **(
                    {}
                    if self.chunk_size is None
                    else {"chunk_size": self.chunk_size}
                ),
            )
            return pipeline.perturb(dataset, seed=seed)
        return self.mechanism.perturb(dataset, seed=seed)

    def reconstruct(self, perturbed, itemsets) -> np.ndarray:
        """Reconstructed fractional supports of ``itemsets``.

        ``perturbed`` is a dataset this session's mechanism released
        (from :meth:`perturb`, the service spool, or disk); supports
        come from the mechanism's marginal inversion and may be
        slightly negative for rare itemsets.
        """
        from repro.mechanisms.base import MarginalInversionEstimator

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

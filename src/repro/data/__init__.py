"""Categorical-data substrate: schemas, datasets, generators, I/O.

The FRAPP model operates on databases of ``N`` records over ``M``
categorical attributes (paper Section 2, "Data Model").  This package
supplies that substrate:

* :mod:`repro.data.schema` -- attribute/schema definitions and the
  mapping between records and the joint index set ``I_U``;
* :mod:`repro.data.dataset` -- the numpy-backed
  :class:`~repro.data.dataset.CategoricalDataset`;
* :mod:`repro.data.discretize` -- equi-width (paper's choice) and
  equi-depth binning of continuous attributes;
* :mod:`repro.data.synthetic` -- correlated mixture-model generators;
* :mod:`repro.data.census` / :mod:`repro.data.health` -- the paper's
  two evaluation datasets (Table 1 / Table 2 schemas, with seeded
  synthetic generators standing in for the UCI/NHIS raw data -- see
  DESIGN.md for the substitution rationale);
* :mod:`repro.data.backing` -- compact record storage policy: minimal
  per-attribute dtypes, the uniform compact cell dtype, and the
  record-block protocol behind the zero-copy pipeline dispatch;
* :mod:`repro.data.io` -- CSV round-tripping and the memory-mappable
  columnar ``.frd`` format for out-of-core datasets.
"""

from repro.data.backing import (
    column_dtypes,
    minimal_dtype,
    record_dtype,
)
from repro.data.census import census_schema, generate_census
from repro.data.dataset import CategoricalDataset
from repro.data.discretize import (
    discretize_equidepth,
    discretize_equiwidth,
    equidepth_edges,
    equiwidth_edges,
    interval_labels,
)
from repro.data.health import generate_health, health_schema
from repro.data.io import (
    FrdDataset,
    FrdSpool,
    FrdWriter,
    iter_csv_chunks,
    load_csv,
    open_frd,
    save_csv,
    save_csv_chunks,
    save_frd,
    save_frd_chunks,
)
from repro.data.schema import Attribute, Schema
from repro.data.synthetic import MixtureModel, Prototype

__all__ = [
    "Attribute",
    "CategoricalDataset",
    "FrdDataset",
    "FrdSpool",
    "FrdWriter",
    "MixtureModel",
    "Prototype",
    "Schema",
    "census_schema",
    "column_dtypes",
    "discretize_equidepth",
    "discretize_equiwidth",
    "equidepth_edges",
    "equiwidth_edges",
    "generate_census",
    "generate_health",
    "health_schema",
    "interval_labels",
    "iter_csv_chunks",
    "load_csv",
    "minimal_dtype",
    "open_frd",
    "record_dtype",
    "save_csv",
    "save_csv_chunks",
    "save_frd",
    "save_frd_chunks",
]

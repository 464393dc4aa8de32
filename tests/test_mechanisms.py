"""Tests for repro.mechanisms: protocol, registry, composition, accountant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spawn_reference import perturb_spawned

from repro.core.privacy import PrivacyRequirement, amplification, rho2_from_gamma
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import (
    DataError,
    ExperimentError,
    FrappError,
    MatrixError,
    UnknownMechanismError,
)
from repro.mechanisms import (
    CompositeMechanism,
    Mechanism,
    MechanismSpec,
    PrivacyAccountant,
    available,
    create,
    display_name,
    display_order,
    from_spec,
    get,
    paper_mechanisms,
    register,
    resolve,
    unregister,
)
from repro.mining.itemsets import Itemset, all_items
from repro.pipeline import PerturbationPipeline


def _schema(*cards):
    return Schema(
        [
            Attribute(f"a{i}", [f"c{i}{j}" for j in range(card)])
            for i, card in enumerate(cards)
        ]
    )


def _composite(schema, part_specs):
    return CompositeMechanism.build(schema, part_specs)


@pytest.fixture
def mixed_schema():
    """Binary sensitive column + a 3x4 block, joint size 24."""
    return _schema(2, 3, 4)


@pytest.fixture
def warner_det_composite(mixed_schema):
    """Warner on the binary column, DET-GD over the remaining block."""
    return _composite(
        mixed_schema,
        [
            {"name": "warner", "n_attributes": 1, "params": {"p": 0.8}},
            {"name": "det-gd", "n_attributes": 2, "params": {"gamma": 7.0}},
        ],
    )


class TestRegistry:
    def test_builtins_available(self):
        keys = available()
        for key in ("det-gd", "ran-gd", "mask", "c&p", "warner", "additive-noise",
                    "composite"):
            assert key in keys

    def test_paper_lineup_from_metadata(self):
        assert paper_mechanisms() == ("DET-GD", "RAN-GD", "MASK", "C&P")

    def test_aliases_and_display_names_resolve(self):
        assert get("cut-and-paste").key == "c&p"
        assert get("CP").key == "c&p"
        assert get("DET-GD").key == "det-gd"
        assert get("det_gd").key == "det-gd"
        assert display_name("ran-gd") == "RAN-GD"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownMechanismError) as excinfo:
            get("dp-laplace")
        message = str(excinfo.value)
        assert "dp-laplace" in message and "det-gd" in message
        # The unified error is catchable under both historical types.
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, ExperimentError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):
            register("det-gd", lambda schema: None)

    def test_register_unregister_custom(self, mixed_schema):
        entry = register(
            "test-identity",
            lambda schema, gamma=2.0: create("det-gd", schema, gamma=gamma),
            display="TEST-ID",
        )
        try:
            assert entry.key in available()
            mechanism = create("test-identity", mixed_schema, gamma=3.0)
            assert mechanism.amplification() == 3.0
        finally:
            unregister("test-identity")
        assert "test-identity" not in available()

    def test_display_order_ranks_paper_first(self):
        ordered = display_order(["WARNER", "C&P", "DET-GD", "unknown-thing"])
        assert ordered == ["DET-GD", "C&P", "WARNER", "unknown-thing"]

    @pytest.mark.parametrize(
        "params, named",
        [
            pytest.param({"gama": 19.0}, "'gama'", id="unknown-parameter"),
            pytest.param(
                {"gamma": 19.0, "count_backend": "native"},
                "'count_backend'",
                id="count-backend",
            ),
            pytest.param({"gamma": "x"}, "{'gamma': 'x'}", id="bad-value"),
        ],
    )
    def test_bad_parameters_raise_typed_error(self, mixed_schema, params, named):
        """Factories are only called through create(): bad params fail
        closed with an ExperimentError naming mechanism and parameter."""
        spec = {"name": "det-gd", "params": params}
        for build in (
            lambda: create("det-gd", mixed_schema, **params),
            lambda: from_spec(spec, mixed_schema),
        ):
            with pytest.raises(ExperimentError) as excinfo:
                build()
            assert "'det-gd'" in str(excinfo.value)
            assert named in str(excinfo.value)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("det-gd", {"gamma": 19.0}),
            ("ran-gd", {"gamma": 19.0, "relative_alpha": 0.5}),
            ("mask", {"gamma": 19.0}),
            ("c&p", {"gamma": 19.0, "max_cut": 3}),
            ("additive-noise", {"scale": 1.5}),
        ],
    )
    def test_builtin_round_trip(self, mixed_schema, name, params):
        mechanism = create(name, mixed_schema, **params)
        spec = mechanism.spec()
        rebuilt = from_spec(spec, mixed_schema)
        assert rebuilt.spec() == spec
        assert rebuilt.display == mechanism.display

    def test_warner_round_trip(self):
        schema = _schema(2)
        mechanism = create("warner", schema, p=0.8)
        assert from_spec(mechanism.spec(), schema).spec() == mechanism.spec()

    def test_ran_gd_round_trip_inexact_relative_alpha(self, mixed_schema):
        """relative_alpha values that are inexact in binary (0.3) must
        round-trip without float drift: the spec echoes the constructor
        parameter instead of recomputing it from the realised alpha."""
        mechanism = create("ran-gd", mixed_schema, gamma=19.0, relative_alpha=0.3)
        spec = mechanism.spec()
        assert dict(spec.as_params())["relative_alpha"] == 0.3
        rebuilt = from_spec(spec, mixed_schema)
        assert rebuilt.spec() == spec
        assert rebuilt.alpha == mechanism.alpha

    def test_composite_round_trip(self, warner_det_composite, mixed_schema):
        spec = warner_det_composite.spec()
        rebuilt = from_spec(spec, mixed_schema)
        assert rebuilt.spec() == spec
        assert rebuilt.display == "WARNER+DET-GD"

    def test_spec_canonical_dict_round_trip(self, warner_det_composite):
        spec = warner_det_composite.spec()
        assert MechanismSpec.from_dict(spec.canonical()) == spec

    def test_specs_are_hashable_and_comparable(self):
        a = MechanismSpec("det-gd", {"gamma": 19.0})
        b = MechanismSpec("det-gd", {"gamma": 19.0})
        c = MechanismSpec("det-gd", {"gamma": 9.0})
        assert a == b and hash(a) == hash(b) and a != c


class TestCompositeStructure:
    def test_parts_must_partition_schema(self, mixed_schema):
        with pytest.raises(ExperimentError):
            _composite(
                mixed_schema,
                [{"name": "warner", "n_attributes": 1, "params": {"p": 0.8}}],
            )

    def test_non_columnar_part_rejected(self, mixed_schema):
        mask = create("mask", mixed_schema, gamma=19.0)
        with pytest.raises(ExperimentError):
            CompositeMechanism(mixed_schema, [mask])

    def test_warner_needs_binary_column(self):
        with pytest.raises(DataError):
            create("warner", _schema(3), p=0.8)

    def test_warner_needs_feasible_p(self):
        with pytest.raises(MatrixError):
            create("warner", _schema(2), p=0.4)

    @settings(max_examples=25, deadline=None)
    @given(
        cards=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=4),
        data=st.data(),
    )
    def test_joint_matrix_is_kron_of_parts(self, cards, data):
        """The composite's effective joint matrix equals the Kronecker
        product of its per-attribute matrices (paper Section 5's product
        form), for arbitrary small domains and per-part parameters."""
        schema = _schema(*cards)
        part_specs = []
        for i, card in enumerate(cards):
            if card == 2 and data.draw(st.booleans(), label=f"warner{i}"):
                p = data.draw(
                    st.floats(min_value=0.6, max_value=0.95), label=f"p{i}"
                )
                part_specs.append(
                    {"name": "warner", "n_attributes": 1, "params": {"p": p}}
                )
            else:
                gamma = data.draw(
                    st.floats(min_value=1.5, max_value=50.0), label=f"gamma{i}"
                )
                part_specs.append(
                    {"name": "det-gd", "n_attributes": 1, "params": {"gamma": gamma}}
                )
        composite = _composite(schema, part_specs)
        expected = composite.parts[0].matrix()
        for part in composite.parts[1:]:
            expected = np.kron(expected, part.matrix())
        # matrix() is an implicit operator; to_dense() recovers the
        # np.kron fold bit for bit.
        dense = composite.matrix().to_dense()
        assert np.allclose(dense, expected, atol=1e-12)
        # Markov sanity and the product amplification bound.
        assert np.allclose(dense.sum(axis=0), 1.0)
        product = 1.0
        for part in composite.parts:
            product *= part.amplification()
        assert composite.amplification() == pytest.approx(product)
        assert amplification(dense) == pytest.approx(product)

    def test_grouped_parts_kron(self, warner_det_composite):
        """Multi-attribute parts compose the same way: Warner (2) x
        DET-GD over the 3x4 block (joint 12)."""
        warner, det = warner_det_composite.parts
        expected = np.kron(warner.matrix(), det.matrix())
        assert np.allclose(warner_det_composite.matrix().to_dense(), expected)
        assert warner_det_composite.marginal_matrix((0, 1, 2)).shape == (24, 24)
        assert np.allclose(
            warner_det_composite.marginal_matrix((0, 1, 2)).to_dense(), expected
        )

    def test_marginal_matrix_cross_group(self, warner_det_composite):
        """A subset spanning both groups is the Kron of each part's
        induced marginal over its share."""
        warner, det = warner_det_composite.parts
        cross = warner_det_composite.marginal_matrix((0, 2))
        expected = np.kron(warner.matrix(), det.marginal_matrix([1]))
        assert np.allclose(cross.to_dense(), expected)

    def test_marginal_positions_validated(self, warner_det_composite):
        with pytest.raises(ExperimentError):
            warner_det_composite.marginal_matrix(())
        with pytest.raises(ExperimentError):
            warner_det_composite.marginal_matrix((2, 0))
        with pytest.raises(ExperimentError):
            warner_det_composite.marginal_matrix((0, 7))


class TestCompositeSampler:
    def test_sampler_realises_kron_matrix(self, mixed_schema, warner_det_composite):
        """Empirical transition frequencies from one fixed origin match
        the analytic Kronecker column."""
        origin = np.array([[1, 2, 3]])
        records = np.repeat(origin, 120_000, axis=0)
        dataset = CategoricalDataset(mixed_schema, records)
        perturbed = warner_det_composite.perturb(dataset, seed=42)
        joint = mixed_schema.encode(perturbed.records)
        empirical = np.bincount(joint, minlength=mixed_schema.joint_size) / len(joint)
        column = warner_det_composite.matrix().to_dense()[
            :, mixed_schema.encode(origin)[0]
        ]
        assert np.abs(empirical - column).max() < 0.005

    def test_chunk_splittable(self, mixed_schema, warner_det_composite, rng):
        records = np.stack(
            [rng.integers(0, c, 3000) for c in mixed_schema.cardinalities], axis=1
        )
        one_shot = warner_det_composite.perturb_chunk(
            records, np.random.default_rng(7)
        )
        threaded = np.random.default_rng(7)
        parts = [
            warner_det_composite.perturb_chunk(records[:1100], threaded),
            warner_det_composite.perturb_chunk(records[1100:], threaded),
        ]
        assert np.array_equal(one_shot, np.concatenate(parts))

    def test_joint_and_records_paths_agree(self, mixed_schema, warner_det_composite, rng):
        records = np.stack(
            [rng.integers(0, c, 2000) for c in mixed_schema.cardinalities], axis=1
        )
        joint = mixed_schema.encode(records)
        via_records = mixed_schema.encode(
            warner_det_composite.perturb_chunk(records, np.random.default_rng(3))
        )
        via_joint = warner_det_composite.perturb_joint(
            joint, np.random.default_rng(3)
        )
        assert np.array_equal(via_records, via_joint)

    def test_compact_dtype_preserved(self, mixed_schema, warner_det_composite):
        records = np.zeros((100, 3), dtype=np.uint8)
        out = warner_det_composite.perturb_chunk(records, np.random.default_rng(0))
        assert out.dtype == np.uint8

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pipeline_bit_identity(
        self, mixed_schema, warner_det_composite, rng, workers
    ):
        """Accumulated composite counts equal the spawn-per-chunk oracle
        at every worker count -- the pipeline contract extended to
        composites."""
        records = np.stack(
            [rng.integers(0, c, 12_000) for c in mixed_schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(mixed_schema, records)
        reference = perturb_spawned(warner_det_composite, dataset, 99, 1024)
        run = PerturbationPipeline(
            warner_det_composite, chunk_size=1024, workers=workers
        ).accumulate(dataset, seed=99)
        assert np.array_equal(reference.joint_counts(), run.counts)


class TestCompositeEstimation:
    def test_reconstruction_recovers_supports(self, mixed_schema, rng):
        """High-gamma composite reconstruction converges to the truth."""
        composite = _composite(
            mixed_schema,
            [
                {"name": "warner", "n_attributes": 1, "params": {"p": 0.99}},
                {"name": "det-gd", "n_attributes": 2, "params": {"gamma": 1e5}},
            ],
        )
        records = np.stack(
            [rng.integers(0, c, 5000) for c in mixed_schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(mixed_schema, records)
        estimator = composite.build_estimator(dataset, seed=5)
        itemsets = all_items(mixed_schema)
        from repro.mining.counting import ExactSupportCounter

        truth = ExactSupportCounter(dataset).supports(itemsets)
        estimated = estimator.supports(itemsets)
        assert np.abs(estimated - truth).max() < 0.02

    def test_single_part_matches_eq28_closed_form(self, survey_schema, survey_dataset):
        """A one-part DET-GD composite's marginal-inversion estimates
        agree with the Eq.-28 closed form on the same perturbed data."""
        from repro.mining.counting import GammaDiagonalSupportEstimator

        composite = _composite(
            survey_schema,
            [{"name": "det-gd", "n_attributes": 3, "params": {"gamma": 19.0}}],
        )
        perturbed = composite.perturb(survey_dataset, seed=11)
        itemsets = all_items(survey_schema) + [
            Itemset.of((0, 1), (1, 0)),
            Itemset.of((0, 0), (1, 1), (2, 1)),
        ]
        closed_form = GammaDiagonalSupportEstimator(perturbed, 19.0).supports(itemsets)
        inverted = composite.build_estimator(
            survey_dataset, seed=11
        ).supports(itemsets)
        assert np.allclose(inverted, closed_form, atol=1e-9)

    def test_pipeline_estimator_matches_direct(self, mixed_schema, warner_det_composite, rng):
        records = np.stack(
            [rng.integers(0, c, 6000) for c in mixed_schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(mixed_schema, records)
        itemsets = all_items(mixed_schema)
        chunked = warner_det_composite.build_estimator(
            dataset, seed=21, workers=1, chunk_size=512
        ).supports(itemsets)
        direct = warner_det_composite.build_estimator(dataset, seed=21).supports(
            itemsets
        )
        # workers=1 chunked threads one stream through the chunks, so
        # estimates are bit-identical to the one-shot path.
        assert np.array_equal(chunked, direct)


class TestEndToEnd:
    def test_run_mechanism_with_composite_spec(self, mixed_schema, rng):
        """Perturb, reconstruct and mine a composite through the
        experiment runner -- identically across execution layouts."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_mechanism

        records = np.stack(
            [rng.integers(0, c, 8000) for c in mixed_schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(mixed_schema, records)
        spec = MechanismSpec(
            "composite",
            {
                "parts": [
                    {"name": "warner", "n_attributes": 1, "params": {"p": 0.9}},
                    {"name": "det-gd", "n_attributes": 2, "params": {"gamma": 19.0}},
                ]
            },
        )
        runs = []
        for workers in (1, 2, 4):
            config = ExperimentConfig(
                min_support=0.05,
                workers=workers,
                chunk_size=1024,
                protocol="apriori",
            )
            runs.append(run_mechanism(dataset, spec, config, seed=3))
        assert runs[0].mechanism == "WARNER+DET-GD"
        # Multi-worker layouts are bit-identical to each other; see the
        # pipeline determinism contract.
        assert runs[1].result.by_length == runs[2].result.by_length
        for run in runs:
            assert run.result.n_frequent > 0

    def test_named_mechanisms_take_the_defaults_they_accept(self, survey_schema):
        warner = resolve("warner", _schema(2), defaults={"gamma": 4.0})
        assert warner.display == "WARNER"
        assert warner.p == pytest.approx(0.8)
        noise = resolve(
            "additive-noise", survey_schema, defaults={"gamma": 2.0},
            params={"scale": 99},
        )
        assert noise.spec() == MechanismSpec("additive-noise", {"scale": 99})

    def test_resolve_refuses_unknown_params(self, survey_schema):
        """Mechanisms receive defaults and params; unknown params fail closed."""
        with pytest.raises(ExperimentError, match="'bogus'"):
            resolve(
                "additive-noise", survey_schema, defaults={"gamma": 2.0},
                params={"scale": 1.0, "bogus": 1},
            )

    def test_pipeline_rejected_for_boolean_mechanisms(self, survey_schema, survey_dataset):
        mask = resolve("mask", survey_schema, defaults={"gamma": 19.0})
        with pytest.raises(ExperimentError):
            mask.build_estimator(survey_dataset, seed=0, workers=4)


class TestAccountant:
    def test_det_gd_statement(self, mixed_schema):
        accountant = PrivacyAccountant(rho1=0.05)
        statement = accountant.statement(create("det-gd", mixed_schema, gamma=19.0))
        assert statement.amplification == pytest.approx(19.0)
        assert statement.rho2 == pytest.approx(rho2_from_gamma(0.05, 19.0))
        assert statement.rho2 == pytest.approx(0.5)
        assert statement.factors is None
        assert statement.admits(PrivacyRequirement(0.05, 0.50))
        assert not statement.admits(PrivacyRequirement(0.05, 0.30))

    def test_ran_gd_posterior_range(self, mixed_schema):
        accountant = PrivacyAccountant(rho1=0.05)
        mechanism = create("ran-gd", mixed_schema, gamma=19.0, relative_alpha=0.5)
        statement = accountant.statement(mechanism)
        lo, mid, hi = statement.posterior_range
        assert lo < mid < hi
        assert mid == pytest.approx(0.5, abs=1e-9)
        assert statement.amplification == pytest.approx(19.0)
        assert mechanism.realized_amplification() > 19.0

    def test_mask_and_cp_bounds_are_tight(self, mixed_schema):
        accountant = PrivacyAccountant(rho1=0.05)
        for name in ("mask", "c&p"):
            statement = accountant.statement(create(name, mixed_schema, gamma=19.0))
            assert statement.amplification <= 19.0 * (1 + 1e-6)

    def test_composite_product_bound(self, warner_det_composite):
        accountant = PrivacyAccountant(rho1=0.05)
        statement = accountant.statement(warner_det_composite)
        assert statement.factors == pytest.approx((4.0, 7.0))
        assert statement.amplification == pytest.approx(28.0)

    def test_additive_noise_unbounded(self, mixed_schema):
        accountant = PrivacyAccountant(rho1=0.05)
        statement = accountant.statement(
            create("additive-noise", mixed_schema, scale=1.0)
        )
        assert statement.amplification == float("inf")
        assert statement.rho2 == 1.0

    def test_audit_within_bound(self, warner_det_composite, mixed_schema, rng):
        accountant = PrivacyAccountant(rho1=0.05)
        prior = rng.dirichlet(np.ones(mixed_schema.joint_size))
        audits = accountant.audit(warner_det_composite, prior)
        assert audits and all(audit.within_bound for audit in audits)

    def test_audit_rejects_unbounded(self, mixed_schema):
        from repro.exceptions import PrivacyError

        accountant = PrivacyAccountant(rho1=0.05)
        noise = create("additive-noise", mixed_schema, scale=0.6)
        with pytest.raises(PrivacyError):
            accountant.audit(noise, np.full(24, 1 / 24))

    def test_matrixless_mechanism_audit_rejected(self, mixed_schema):
        from repro.exceptions import PrivacyError

        accountant = PrivacyAccountant(rho1=0.05)
        with pytest.raises(PrivacyError):
            accountant.audit(
                create("mask", mixed_schema, gamma=19.0), np.full(24, 1 / 24)
            )


class TestUnifiedErrors:
    def test_resolve_unknown(self, survey_schema):
        with pytest.raises(UnknownMechanismError) as excinfo:
            resolve("dp", survey_schema, defaults={"gamma": 19.0})
        assert "registered mechanisms" in str(excinfo.value)

    def test_runner_unknown(self, survey_dataset):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_mechanism

        with pytest.raises(UnknownMechanismError):
            run_mechanism(survey_dataset, "nope", ExperimentConfig(min_support=0.1))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_NAMES = st.sampled_from(
    ["det-gd", "ran-gd", "mask", "c&p", "warner", "additive-noise", "composite",
     "DET-GD", "rangd", "cp", "nope"]
)
_PARAM_NAMES = st.sampled_from(
    ["gamma", "relative_alpha", "alpha", "max_cut", "scale", "p", "parts"]
)
_NUMBERS = (
    st.integers(-3, 40)
    | st.floats(-5, 50)
    | st.sampled_from([0, 1.0, 19.0, 1e308, 2**70])
)
_PARTS = st.lists(
    st.fixed_dictionaries(
        {"name": _NAMES, "n_attributes": st.integers(-1, 4) | _JSON},
        optional={
            "params": st.dictionaries(_PARAM_NAMES, _NUMBERS | _JSON, max_size=3)
        },
    ),
    max_size=4,
)
#: Arbitrary JSON, and spec-shaped JSON with real names and parameters.
_SPECS = _JSON | st.fixed_dictionaries(
    {"name": _NAMES | _JSON},
    optional={
        "params": _JSON
        | st.dictionaries(
            _PARAM_NAMES | st.text(max_size=4), _NUMBERS | _JSON | _PARTS, max_size=3
        )
    },
)


@settings(max_examples=150, deadline=None)
@given(data=_SPECS)
def test_any_json_spec_builds_or_raises_a_typed_error(data):
    """``from_dict`` then ``from_spec`` on untrusted JSON: a mechanism
    over the schema, or a :class:`FrappError` -- never a raw one."""
    schema = _schema(2, 3, 4)
    try:
        with np.errstate(all="ignore"):
            mechanism = from_spec(MechanismSpec.from_dict(data), schema)
    except FrappError:
        return
    assert isinstance(mechanism, Mechanism)
    assert mechanism.schema == schema


class TestRunnerConfigForwarding:
    """Regression: config knobs are forwarded only where accepted."""

    def test_run_mechanism_with_parameterless_registered_name(self):
        """Mechanisms without config knobs (warner) run by name."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_mechanism

        rng = np.random.default_rng(0)
        schema = _schema(2)
        dataset = CategoricalDataset(
            schema, rng.integers(0, 2, size=(4000, 1)).astype(np.int64)
        )
        run = run_mechanism(
            dataset,
            "warner",
            ExperimentConfig(gamma=9.0, min_support=0.05, protocol="apriori"),
            seed=1,
        )
        assert run.mechanism == "WARNER"
        assert run.result.n_frequent >= 1

    def test_registered_class_without_pipeline_flag_inherits_capability(self):
        """Registry metadata cannot disagree with the mechanism class:
        registering a ColumnarMechanism subclass without pipeline=
        derives pipeline capability from supports_pipeline."""
        from repro.mechanisms.builtin import GammaDiagonalMechanism
        from repro.mechanisms.registry import get as get_entry

        class Derived(GammaDiagonalMechanism):
            key = "test-derived"
            display = "TEST-DERIVED"

        entry = register("test-derived", Derived)
        try:
            assert entry.pipeline is True
            lambda_entry = register(
                "test-derived-lambda", lambda schema, gamma: Derived(schema, gamma)
            )
            assert lambda_entry.pipeline is False
        finally:
            unregister("test-derived")
            unregister("test-derived-lambda")

    def test_spec_cell_pipeline_signature_matches_execution(self):
        """Spec-built composite cells key on the chunk layout when
        workers > 1 (the registry knows composites are pipeline-capable)."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.orchestrator import (
            DatasetSpec,
            exact_cell,
            mechanism_cell,
            int_seed,
            Orchestrator,
        )

        spec = MechanismSpec(
            "composite",
            {
                "parts": [
                    {"name": "det-gd", "n_attributes": 4, "params": {"gamma": 19.0}},
                    {"name": "warner", "n_attributes": 1, "params": {"p": 0.9}},
                    {"name": "warner", "n_attributes": 1, "params": {"p": 0.9}},
                ]
            },
        )
        dataset = DatasetSpec.from_name("CENSUS", n_records=2000)
        exact = exact_cell(dataset, 0.02)
        orch = Orchestrator(store=None, fingerprint="fp")
        chunked = mechanism_cell(
            dataset,
            spec,
            ExperimentConfig(seed=3, workers=4, chunk_size=256),
            int_seed(1),
            exact,
        )
        other_chunk = mechanism_cell(
            dataset,
            spec,
            ExperimentConfig(seed=3, workers=4, chunk_size=512),
            int_seed(1),
            exact,
        )
        assert chunked.params["pipeline"] == {"seeding": "spawn", "chunk_size": 256}
        assert orch.key_for(chunked) != orch.key_for(other_chunk)

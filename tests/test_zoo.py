"""Fixture catalog: construction, determinism, parameter validation."""

import numpy as np
import pytest

from channellab import validate_cpt
from channellab.spectral import VERDICT_NOT_ERGODIC
from channellab.zoo import (
    FAMILIES,
    PROVENANCE_RANDOM,
    PROVENANCES,
    ChannelSpec,
    amplitude_damping_channel,
    build,
    build_named,
    catalog,
    dephasing_channel,
    depolarizing_channel,
    dilation_instance,
    find_spec,
    random_channel,
    random_state,
    unitary_channel,
)


class TestCatalog:
    def test_at_least_twelve_entries(self):
        assert len(catalog()) >= 12

    def test_all_entries_build_valid_channels(self, zoo_entries):
        for spec, channel in zoo_entries:
            report = validate_cpt(channel)
            assert report.passed, f"{spec.label}: {report.messages}"
            assert channel.dim == spec.dim

    def test_labels_are_distinct(self):
        labels = [spec.label for spec in catalog()]
        assert len(labels) == len(set(labels))

    def test_provenance_values(self):
        for spec in catalog():
            assert spec.provenance in PROVENANCES
            if spec.provenance != PROVENANCE_RANDOM:
                assert spec.expected_verdict is not None, spec.label
            else:
                assert spec.expected_verdict is None, spec.label

    def test_catalog_order_is_deterministic(self):
        assert [s.label for s in catalog()] == [s.label for s in catalog()]

    def test_catalog_and_family_table_cover_each_other(self):
        assert {spec.name for spec in catalog()} == set(FAMILIES)
        for spec in catalog():
            family = FAMILIES[spec.name]
            assert set(spec.parameters) == set(family.parameters), spec.label
            assert family.dim in (None, spec.dim), spec.label


class TestSpecValidation:
    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            ChannelSpec("x", 2, {}, "mixing", "guessed")

    def test_non_random_requires_expected_verdict(self):
        with pytest.raises(ValueError, match="expected verdict"):
            ChannelSpec("x", 2, {}, None, "derived")


class TestParameterValidation:
    def test_probability_range_enforced(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                depolarizing_channel(bad)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                dephasing_channel(bad)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                amplitude_damping_channel(bad)

    def test_random_channel_rank_bounds(self):
        with pytest.raises(ValueError, match="kraus_rank"):
            random_channel(2, 0, seed=1)
        with pytest.raises(ValueError, match="kraus_rank"):
            random_channel(2, 5, seed=1)
        with pytest.raises(ValueError, match="dim"):
            random_channel(0, 1, seed=1)

    def test_build_requires_parameters(self):
        spec = ChannelSpec("depolarizing", 2, {}, "mixing", "derived")
        with pytest.raises(ValueError, match="requires parameter"):
            build(spec)

    def test_build_rejects_a_parameter_the_family_does_not_take(self):
        spec = ChannelSpec("depolarizing", 2, {"p": 0.25, "q": 1.0}, "mixing", "derived")
        with pytest.raises(ValueError, match="depolarizing takes no parameter 'q'"):
            build(spec)

    def test_build_rejects_a_dimension_the_family_does_not_have(self):
        spec = ChannelSpec("dephasing", 5, {"p": 0.3}, "not_ergodic", "derived")
        with pytest.raises(ValueError, match="dimension 2, not 5"):
            build(spec)


class TestDeterminism:
    def test_random_channel_reproducible(self):
        a = random_channel(3, 3, seed=13)
        b = random_channel(3, 3, seed=13)
        c = random_channel(3, 3, seed=14)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus_ops, b.kraus_ops))
        assert any(not np.array_equal(x, y) for x, y in zip(a.kraus_ops, c.kraus_ops))

    def test_random_state_reproducible(self):
        assert np.array_equal(random_state(3, seed=2).matrix, random_state(3, seed=2).matrix)


class TestBuilders:
    def test_depolarizing_zero_is_identity_channel(self):
        from channellab import DensityMatrix, analyze, apply

        c = depolarizing_channel(0.0)
        rho = random_state(2, seed=21)
        assert np.abs(apply(c, rho).matrix - rho.matrix).max() <= 1e-12
        assert analyze(c).verdict == VERDICT_NOT_ERGODIC

    def test_unitary_channel_single_kraus(self):
        c = unitary_channel(0.7)
        assert len(c.kraus_ops) == 1
        u = c.kraus_ops[0]
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12

    def test_build_named_matches_build(self):
        spec = find_spec("depolarizing", p=0.25)
        via_spec = build(spec)
        via_name = build_named("depolarizing", p=0.25)
        assert all(np.array_equal(a, b) for a, b in zip(via_spec.kraus_ops, via_name.kraus_ops))

    def test_build_named_unknown_name(self):
        with pytest.raises(ValueError, match="unknown channel name"):
            build_named("teleporter")

    def test_build_named_random_needs_dim(self):
        with pytest.raises(ValueError, match="explicit dim"):
            build_named("random", kraus_rank=2, seed=3)

    def test_build_named_random_with_dim(self):
        c = build_named("random", dim=3, kraus_rank=2, seed=3)
        assert c.dim == 3
        assert len(c.kraus_ops) == 2


class TestFindSpec:
    def test_finds_matching_parameters(self):
        spec = find_spec("amplitude-damping", gamma=0.7)
        assert spec.parameters == {"gamma": 0.7}

    def test_dim_filter(self):
        assert find_spec("random").dim == 2
        spec = find_spec("random", dim=3)
        assert (spec.dim, spec.parameters) == (3, {"kraus_rank": 3, "seed": 13})
        with pytest.raises(ValueError, match="no catalog entry"):
            find_spec("depolarizing", dim=3)

    def test_rejects_unknown_combination(self):
        with pytest.raises(ValueError, match="no catalog entry"):
            find_spec("amplitude-damping", gamma=0.123)


class TestDilationInstances:
    def test_both_instances_validate(self):
        from channellab import validate_conserved

        for name in ("partial-swap-dilation", "cz-dilation"):
            cd = dilation_instance(name)
            assert validate_conserved(cd).passed, name

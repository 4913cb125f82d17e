"""Tests for repro.core.array and repro.core.objectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import PressArray
from repro.core.basis import ChannelBasis
from repro.core.configuration import ArrayConfiguration
from repro.core.element import omni_element
from repro.core.objectives import (
    CapacityObjective,
    ConditionNumberObjective,
    EffectiveSnrObjective,
    FlatnessObjective,
    InterferenceRatioObjective,
    LexicographicAggregate,
    MeanSnrObjective,
    MinSnrObjective,
    SubbandContrastObjective,
    TargetCfrObjective,
    ThroughputObjective,
    WeightedMeanAggregate,
    WeightedObjective,
    WorstLinkAggregate,
)
from repro.em.geometry import Point
from repro.em.raytracer import RayTracer


@pytest.fixture
def tracer(simple_scene):
    return RayTracer(simple_scene)


class TestPressArray:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            PressArray.from_elements(
                [omni_element(Point(0, 0), name="e"), omni_element(Point(1, 1), name="e")]
            )

    def test_configuration_space_shape(self, small_array):
        space = small_array.configuration_space()
        assert space.state_counts == (4, 4)
        assert space.size == 16

    def test_describe_matches_paper_style(self, small_array):
        label = small_array.describe(ArrayConfiguration((0, 3)))
        assert label == "(0, T)"
        label2 = small_array.describe(ArrayConfiguration((1, 2)))
        assert label2 == "(0.5:, :)"

    @staticmethod
    def _basis(array, tracer):
        return ChannelBasis.trace_chunked(array, Point(2, 3), Point(6, 3), tracer)

    def test_terminated_elements_contribute_nothing(self, small_array, tracer):
        basis = self._basis(small_array, tracer)
        assert not np.any(basis.state_tensor[:, 3])
        all_terminated = ArrayConfiguration((3, 3))
        assert not np.any(basis.element_sum(all_terminated))
        np.testing.assert_array_equal(basis.cfr(all_terminated), basis.ambient_cfr())

    def test_reflective_states_contribute(self, small_array, tracer):
        rows = self._basis(small_array, tracer).state_tensor[:, :3]
        assert np.all(np.abs(rows).min(axis=-1) > 0)

    def test_stub_state_changes_path_phase_not_magnitude(self, small_array, tracer):
        tensor = self._basis(small_array, tracer).state_tensor
        carrier_bin = tensor.shape[-1] // 2  # zero baseband offset
        base, shifted = tensor[0, 0, carrier_bin], tensor[0, 1, carrier_bin]
        assert abs(shifted) == pytest.approx(abs(base), rel=1e-9)
        # lambda/4 extra path -> pi/2 phase difference (at the carrier).
        ratio = shifted / base
        assert math.atan2(ratio.imag, ratio.real) == pytest.approx(
            -math.pi / 2, abs=0.05
        )

    def test_stub_adds_delay(self, small_array, tracer):
        basis = self._basis(small_array, tracer)
        ratio = basis.state_tensor[0, 2] / basis.state_tensor[0, 0]
        # The phase of the state ratio falls across the band at the stub's
        # group delay.
        slope = np.polyfit(basis.frequencies_hz, np.unwrap(np.angle(ratio)), 1)[0]
        states = small_array.elements[0].states
        extra = states[2].extra_delay_s - states[0].extra_delay_s
        assert extra > 0
        assert -slope / (2 * math.pi) == pytest.approx(extra, rel=1e-6)

    def test_channel_composition(self, small_array, tracer):
        env = tracer.trace(Point(2, 3), Point(6, 3))
        basis = self._basis(small_array, tracer)
        assert basis.num_ambient_paths == len(env)
        config = ArrayConfiguration((0, 0))
        want = basis.ambient_cfr() + basis.state_tensor[0, 0] + basis.state_tensor[1, 0]
        np.testing.assert_allclose(basis.cfr(config), want, rtol=1e-12)

    def test_aimed_at(self):
        from repro.core.element import parabolic_element

        array = PressArray.from_elements(
            [parabolic_element(Point(0, 0), name="d0"), parabolic_element(Point(2, 0), name="d1")]
        )
        aimed = array.aimed_at(Point(1, 1))
        assert aimed.elements[0].antenna.boresight_rad == pytest.approx(math.pi / 4)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            PressArray(())


class TestObjectives:
    def test_min_mean_flatness(self):
        snr = np.array([10.0, 20.0, 30.0])
        assert MinSnrObjective()(snr) == 10.0
        assert MeanSnrObjective()(snr) == 20.0
        assert FlatnessObjective()(np.full(8, 5.0)) == 0.0
        assert FlatnessObjective()(snr) < 0.0

    def test_effective_snr_between_min_and_mean(self):
        snr = np.array([0.0, 30.0, 30.0, 30.0])
        value = EffectiveSnrObjective()(snr)
        assert 0.0 < value < 30.0

    def test_throughput_objective_ranks_channels(self):
        good = np.full(52, 30.0)
        bad = np.full(52, 5.0)
        objective = ThroughputObjective()
        assert objective(good) > objective(bad)

    def test_subband_contrast_direction(self):
        snr = np.concatenate([np.full(26, 10.0), np.full(26, 30.0)])
        assert SubbandContrastObjective(favor_upper=True)(snr) == pytest.approx(20.0)
        assert SubbandContrastObjective(favor_upper=False)(snr) == pytest.approx(-20.0)

    def test_interference_ratio(self):
        signal = np.full(8, 30.0)
        interference = np.full(8, 10.0)
        objective = InterferenceRatioObjective(interference_weight=1.0)
        assert objective((signal, interference)) == pytest.approx(20.0)

    def test_condition_number_objective_prefers_identity(self):
        good = np.stack([np.eye(2, dtype=complex)] * 4)
        bad = np.stack([np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)] * 4)
        objective = ConditionNumberObjective()
        assert objective(good) > objective(bad)

    def test_capacity_objective_scale_invariant(self):
        matrices = np.stack([np.eye(2, dtype=complex)] * 4)
        objective = CapacityObjective(snr_db=20.0)
        assert objective(matrices) == pytest.approx(objective(10.0 * matrices), rel=1e-6)

    def test_target_cfr_objective(self):
        target = tuple(np.ones(4, dtype=complex))
        objective = TargetCfrObjective(target_cfr=target)
        assert objective(np.ones(4, dtype=complex)) == 0.0
        assert objective(np.zeros(4, dtype=complex)) < 0.0

    def test_target_cfr_magnitude_only(self):
        target = tuple(np.ones(4, dtype=complex))
        objective = TargetCfrObjective(target_cfr=target, magnitude_only=True)
        rotated = np.exp(1j * 0.7) * np.ones(4)
        assert objective(rotated) == pytest.approx(0.0)

    def test_weighted_objective(self):
        snr = np.array([10.0, 20.0])
        combined = WeightedObjective(
            objectives=(MinSnrObjective(), MeanSnrObjective()), weights=(1.0, 2.0)
        )
        assert combined(snr) == pytest.approx(10.0 + 2 * 15.0)

    def test_weighted_objective_validation(self):
        with pytest.raises(ValueError):
            WeightedObjective(objectives=(MinSnrObjective(),), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            WeightedObjective(objectives=(), weights=())


#: Objectives with a vectorised ``rows`` form; the rest keep the per-row map.
ROW_FORMS = [MinSnrObjective(), MeanSnrObjective(), FlatnessObjective()]


def _mapped(objective, rows):
    return np.fromiter(map(objective, rows), float, len(rows))


class TestRowForms:
    """``rows(snr)`` must equal mapping ``__call__`` over the rows, bit for bit."""

    @pytest.mark.parametrize("objective", ROW_FORMS, ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize("shape", [(1, 52), (37, 52), (200, 7), (5, 300)])
    def test_random_rows(self, objective, shape):
        snr = np.random.default_rng(shape[0]).normal(20.0, 8.0, shape)
        assert np.array_equal(objective.rows(snr), _mapped(objective, snr))

    @pytest.mark.parametrize("objective", ROW_FORMS, ids=lambda o: type(o).__name__)
    def test_non_contiguous_view(self, objective):
        # A transposed, strided view: its rows are not contiguous, and a
        # reduction over them in place rounds differently from the 1-D call.
        parent = np.random.default_rng(5).normal(20.0, 8.0, (104, 111))
        view = parent[::2, ::3].T
        assert not view.flags.c_contiguous
        assert np.array_equal(objective.rows(view), _mapped(objective, view))

    @pytest.mark.parametrize("objective", ROW_FORMS, ids=lambda o: type(o).__name__)
    def test_leading_axes(self, objective):
        snr = np.random.default_rng(9).normal(20.0, 8.0, (3, 4, 8, 52))
        expected = _mapped(objective, snr.reshape(-1, 52)).reshape(3, 4, 8)
        assert np.array_equal(objective.rows(snr), expected)

    def test_only_exact_objectives_have_rows(self):
        for objective in (EffectiveSnrObjective(), ThroughputObjective(),
                          SubbandContrastObjective()):
            assert not hasattr(objective, "rows")

    def test_worst_link_aggregate_rows(self):
        scores = np.random.default_rng(2).normal(30.0, 5.0, (8, 4, 6))
        weights = np.ones(6)
        aggregate = WorstLinkAggregate()
        expected = np.array(
            [[aggregate(row, weights) for row in element] for element in scores]
        )
        assert np.array_equal(aggregate.rows(scores, weights), expected)


AGGREGATES = [WeightedMeanAggregate(), WorstLinkAggregate(), LexicographicAggregate()]


def _scores(layout: str, num_links: int, rng) -> np.ndarray:
    """Per-link scores of a few rows, laid out as ``layout`` says."""
    if layout == "contiguous":
        return rng.normal(0.0, 50.0, (37, num_links))
    if layout == "strided":
        return rng.normal(0.0, 50.0, (74, 3 * num_links))[::2, ::3]
    if layout == "transposed":
        return rng.normal(0.0, 50.0, (num_links, 37)).T
    if layout == "elements":  # a scan window's (E, M, L) table
        return rng.normal(0.0, 50.0, (5, 4, num_links))
    return rng.normal(0.0, 50.0, num_links)  # one probe's row


class TestAggregateRowForms:
    """``rows(S, w)`` has the bits of ``[agg(s, w) for s in S]``: the delta
    scorer aggregates every scan window, RFocus round and lone probe
    through it."""

    @pytest.mark.parametrize("aggregate", AGGREGATES, ids=lambda a: type(a).__name__)
    @given(
        num_links=st.integers(min_value=1, max_value=40),
        layout=st.sampled_from(["contiguous", "strided", "transposed", "elements", "row"]),
        unit_weights=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_mapped_calls(self, aggregate, num_links, layout, unit_weights, seed):
        rng = np.random.default_rng(seed)
        scores = _scores(layout, num_links, rng)
        weights = np.ones(num_links) if unit_weights else rng.uniform(0.05, 20.0, num_links)
        mapped = [aggregate(row, weights) for row in scores.reshape(-1, num_links)]
        expected = np.array(mapped).reshape(scores.shape[:-1])
        assert np.asarray(aggregate.rows(scores, weights)).tobytes() == expected.tobytes()

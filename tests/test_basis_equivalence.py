"""Fast path vs legacy: the channel basis must be numerically exact.

The basis sweep engine (``repro.core.basis``) exploits Γ-linearity —
``H(f; c) = H0(f) + sum_n E[n, c_n]`` — which is exact for passive
elements with no element–element rescattering, i.e. exactly the physics
the per-path route models.  These tests pin that equivalence: identical
seeds must give identical sweeps (drift and estimation noise included) to
within 1e-9, across LoS and NLoS scenes and across terminated and
reflective element states, and the vectorized exhaustive search must
return the same argmax as the measurement-backed one.
"""

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    ExhaustiveSearch,
    MeanSnrObjective,
    exhaustive_argmax,
)
from repro.experiments import (
    StudyConfig,
    build_los_setup,
    build_mimo_setup,
    build_nlos_setup,
    used_subcarrier_mask,
)

ATOL = 1e-9


@pytest.mark.parametrize("builder", [build_nlos_setup, build_los_setup])
def test_sweep_modes_agree_with_drift_and_noise(builder):
    """Same seed, either mode: identical sweeps (drift + estimation noise)."""
    setup = builder(3)
    legacy = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=3,
        rng=np.random.default_rng(7),
        mode="legacy",
    )
    fast = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=3,
        rng=np.random.default_rng(7),
        mode="basis",
    )
    assert fast.configurations == legacy.configurations
    np.testing.assert_array_equal(fast.used_mask, legacy.used_mask)
    np.testing.assert_allclose(fast.snr_db, legacy.snr_db, rtol=0.0, atol=ATOL)


def test_sweep_modes_agree_noise_only():
    """Drift disabled, estimation noise on: streams still line up."""
    config = StudyConfig(drift_phase_rad=0.0, drift_amplitude=0.0)
    setup = build_nlos_setup(1, config)
    legacy = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=2,
        rng=np.random.default_rng(11),
        mode="legacy",
    )
    fast = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=2,
        rng=np.random.default_rng(11),
        mode="basis",
    )
    np.testing.assert_allclose(fast.snr_db, legacy.snr_db, rtol=0.0, atol=ATOL)


def test_sweep_modes_agree_exact():
    """No rng: both modes return the exact (deterministic) sweep."""
    setup = build_nlos_setup(6)
    legacy = setup.testbed.sweep(
        setup.tx_device, setup.rx_device, repetitions=2, mode="legacy"
    )
    fast = setup.testbed.sweep(
        setup.tx_device, setup.rx_device, repetitions=2, mode="basis"
    )
    np.testing.assert_allclose(fast.snr_db, legacy.snr_db, rtol=0.0, atol=ATOL)
    # Exact repetitions are identical by construction in both modes.
    np.testing.assert_array_equal(fast.snr_db[0], fast.snr_db[1])


def test_basis_cfr_matches_per_path_route():
    """Every configuration's CFR: basis == per-path, |dH| <= 1e-9.

    The default SP4T state set includes the absorptive load, so the loop
    exercises terminated elements (zero basis rows) as well as all three
    reflective stub settings.
    """
    setup = build_nlos_setup(5)
    testbed = setup.testbed
    states = setup.array.elements[0].states
    assert any(state.is_terminated for state in states)
    assert any(not state.is_terminated for state in states)
    basis = testbed.basis_for(setup.tx_device, setup.rx_device)
    configurations = tuple(setup.array.configuration_space().all_configurations())
    batch = basis.evaluate()
    assert batch.shape == (len(configurations), testbed.num_subcarriers)
    for index, configuration in enumerate(configurations):
        reference = testbed.channel(
            setup.tx_device, setup.rx_device, configuration
        ).cfr()
        np.testing.assert_allclose(
            basis.cfr(configuration), reference, rtol=0.0, atol=ATOL
        )
        np.testing.assert_allclose(batch[index], reference, rtol=0.0, atol=ATOL)


def test_basis_exhaustive_matches_legacy_exhaustive():
    """Vectorized argmax == measurement-backed ExhaustiveSearch argmax."""
    setup = build_nlos_setup(2)
    mask = used_subcarrier_mask()
    objective = MeanSnrObjective()

    def score(configuration):
        observation = setup.testbed.measure_csi(
            setup.tx_device, setup.rx_device, configuration
        )
        return float(objective(observation.snr_db[mask]))

    legacy = ExhaustiveSearch().search(setup.array.configuration_space(), score)
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    best, best_score = exhaustive_argmax(
        basis,
        objective,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )
    assert best == legacy.best
    assert best_score == pytest.approx(legacy.best_score, abs=ATOL)

    searched = ExhaustiveSearch().search_basis(
        basis,
        objective,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )
    assert searched.best == legacy.best
    assert searched.best_score == pytest.approx(legacy.best_score, abs=ATOL)


def test_mimo_modes_agree():
    """Per-chain-pair basis MIMO matrices match the re-traced ones."""
    setup = build_mimo_setup(0)
    configuration = ArrayConfiguration(tuple([1] * setup.array.num_elements))
    legacy = setup.testbed.mimo_matrices(
        setup.tx_device,
        setup.rx_device,
        configuration,
        rng=np.random.default_rng(13),
        estimation_error_std=0.05,
        mode="legacy",
    )
    fast = setup.testbed.mimo_matrices(
        setup.tx_device,
        setup.rx_device,
        configuration,
        rng=np.random.default_rng(13),
        estimation_error_std=0.05,
        mode="basis",
    )
    np.testing.assert_allclose(fast, legacy, rtol=0.0, atol=ATOL)


def test_used_mask_rename_and_validation():
    """`used_mask` flows through to the result and is validated."""
    setup = build_nlos_setup(0)
    testbed = setup.testbed
    mask = np.zeros(testbed.num_subcarriers, dtype=bool)
    mask[1:11] = True
    via_new = testbed.sweep(
        setup.tx_device, setup.rx_device, repetitions=1, used_mask=mask
    )
    np.testing.assert_array_equal(via_new.used_mask, mask)
    with pytest.raises(ValueError, match="used_mask"):
        testbed.sweep(
            setup.tx_device,
            setup.rx_device,
            repetitions=1,
            used_mask=np.ones(10, dtype=bool),
        )
    with pytest.raises(ValueError, match="mode"):
        testbed.sweep(setup.tx_device, setup.rx_device, repetitions=1, mode="warp")

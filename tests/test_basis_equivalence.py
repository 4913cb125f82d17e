"""The channel basis against the per-path composition it replaced.

The basis sweep engine (``repro.core.basis``) exploits Γ-linearity —
``H(f; c) = H0(f) + sum_n E[n, c_n]`` — which is exact for passive
elements with no element–element rescattering, i.e. exactly the physics
a per-path composition models.  Every sounding, sweep and MIMO matrix of
``Testbed`` reads the basis; the references in ``basis_reference.py``
compose the same channels path by path (ambient paths, drifted one path
object at a time, plus one relay path per element), one sounding at a
time.  Identical seeds must give identical sweeps (drift and estimation
noise included) to within 1e-9, across LoS and NLoS scenes and across
terminated and reflective element states; the vectorized exhaustive
search must return the same argmax as the measurement-backed one; and
the MIMO, MU-MIMO and alignment matrices and every basis tensor must
agree to 1e-12 relative.  A ``measure_csi`` loop and ``Testbed.sweep``
share one sounding function, so they must agree bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    ExhaustiveSearch,
    MeanSnrObjective,
    PressArray,
    exhaustive_argmax,
    parabolic_element,
)
from repro.em.geometry import Point
from repro.experiments import (
    StudyConfig,
    build_los_setup,
    build_mimo_setup,
    build_nlos_setup,
    used_subcarrier_mask,
)
from repro.experiments.alignment_study import build_alignment_setup, interference_vectors
from repro.experiments.mu_mimo import mu_mimo_matrices
from repro.sdr.device import warp_v3
from repro.sdr.testbed import Testbed

from .basis_reference import reference_basis, reference_cfr, reference_observation

ATOL = 1e-9
RTOL = 1e-12


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """``got`` matches ``want`` to RTOL of ``want``'s largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def _measured_sweep(testbed, tx, rx, repetitions, rng=None) -> np.ndarray:
    """The sweep as one per-path reference sounding per configuration."""
    configurations = testbed.configurations
    snr = np.empty((repetitions, len(configurations), testbed.num_subcarriers))
    for rep in range(repetitions):
        for index, configuration in enumerate(configurations):
            snr[rep, index] = reference_observation(
                testbed, tx, rx, configuration, rng=rng
            ).snr_db
    return snr


def _per_path_mimo(testbed, tx, rx, configuration, rng=None, estimation_error_std=0.0):
    """MIMO matrices composed per chain pair from the per-path reference."""
    h = np.zeros((testbed.num_subcarriers, rx.num_chains, tx.num_chains), dtype=complex)
    for i in range(rx.num_chains):
        for j in range(tx.num_chains):
            h[:, i, j] = reference_cfr(testbed, tx, rx, configuration, j, i, rng=rng)
    if estimation_error_std > 0:
        scale = estimation_error_std * np.sqrt(np.mean(np.abs(h) ** 2))
        h = h + scale / np.sqrt(2.0) * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
    return h


@pytest.mark.parametrize("builder", [build_nlos_setup, build_los_setup])
def test_sweep_modes_agree_with_drift_and_noise(builder):
    """Same seed, either route: identical sweeps (drift + estimation noise)."""
    setup = builder(3)
    measured = _measured_sweep(
        setup.testbed, setup.tx_device, setup.rx_device, 3, np.random.default_rng(7)
    )
    fast = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=3,
        rng=np.random.default_rng(7),
    )
    assert fast.configurations == setup.testbed.configurations
    np.testing.assert_allclose(fast.snr_db, measured, rtol=0.0, atol=ATOL)


def test_sweep_modes_agree_noise_only():
    """Drift disabled, estimation noise on: streams still line up."""
    config = StudyConfig(drift_phase_rad=0.0, drift_amplitude=0.0)
    setup = build_nlos_setup(1, config)
    measured = _measured_sweep(
        setup.testbed, setup.tx_device, setup.rx_device, 2, np.random.default_rng(11)
    )
    fast = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=2,
        rng=np.random.default_rng(11),
    )
    np.testing.assert_allclose(fast.snr_db, measured, rtol=0.0, atol=ATOL)


def test_sweep_modes_agree_exact():
    """No rng: both routes return the exact (deterministic) sweep."""
    setup = build_nlos_setup(6)
    measured = _measured_sweep(setup.testbed, setup.tx_device, setup.rx_device, 2)
    fast = setup.testbed.sweep(setup.tx_device, setup.rx_device, repetitions=2)
    np.testing.assert_allclose(fast.snr_db, measured, rtol=0.0, atol=ATOL)
    # Exact repetitions are identical by construction.
    np.testing.assert_array_equal(fast.snr_db[0], fast.snr_db[1])


def test_measure_csi_loop_equals_sweep_bit_for_bit():
    """Same seed, drift and noise on: a measure_csi loop is Testbed.sweep."""
    setup = build_nlos_setup(3)
    testbed = setup.testbed
    assert testbed.drift_phase_rad > 0 and testbed.drift_amplitude > 0
    rng = np.random.default_rng(5)
    looped = np.array(
        [
            [
                testbed.measure_csi(
                    setup.tx_device, setup.rx_device, configuration, rng=rng
                ).snr_db
                for configuration in testbed.configurations
            ]
            for _ in range(2)
        ]
    )
    swept = testbed.sweep(
        setup.tx_device, setup.rx_device, repetitions=2, rng=np.random.default_rng(5)
    )
    assert np.array_equal(swept.snr_db, looped)


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
        reference = reference_cfr(
            testbed, setup.tx_device, setup.rx_device, configuration
        )
        np.testing.assert_allclose(
            basis.cfr(configuration), reference, rtol=0.0, atol=ATOL
        )
        np.testing.assert_allclose(batch[index], reference, rtol=0.0, atol=ATOL)


def test_basis_exhaustive_matches_legacy_exhaustive():
    """Vectorized argmax == per-path-measurement ExhaustiveSearch argmax."""
    setup = build_nlos_setup(2)
    mask = used_subcarrier_mask()
    objective = MeanSnrObjective()

    def score(configuration):
        observation = reference_observation(
            setup.testbed, setup.tx_device, setup.rx_device, configuration
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
    """Per-chain-pair basis MIMO matrices match the per-path ones."""
    setup = build_mimo_setup(0)
    configuration = ArrayConfiguration(tuple([1] * setup.array.num_elements))
    reference = _per_path_mimo(
        setup.testbed,
        setup.tx_device,
        setup.rx_device,
        configuration,
        rng=np.random.default_rng(13),
        estimation_error_std=0.05,
    )
    fast = setup.testbed.mimo_matrices(
        setup.tx_device,
        setup.rx_device,
        configuration,
        rng=np.random.default_rng(13),
        estimation_error_std=0.05,
    )
    _assert_close(fast, reference)


def test_mu_mimo_matrices_match_per_path_composition():
    """Every configuration's MU-MIMO downlink matches the per-path channels."""
    setup = build_mimo_setup(0)
    rx0 = setup.rx_device.position
    clients = [
        warp_v3("client-0", Point(rx0.x, rx0.y)),
        warp_v3("client-1", Point(rx0.x + 0.06, rx0.y + 0.1)),
    ]
    for configuration in setup.array.configuration_space().all_configurations():
        got = mu_mimo_matrices(setup.testbed, setup.tx_device, clients, configuration)
        want = np.stack(
            [
                _per_path_mimo(setup.testbed, setup.tx_device, client, configuration)[:, 0, :]
                for client in clients
            ],
            axis=1,
        )
        _assert_close(got, want)


def test_alignment_interference_vectors_match_per_path_composition():
    """Both APs' interference at the bystander match the per-path channels."""
    testbed, aps, bystander = build_alignment_setup(0)
    for configuration in testbed.array.configuration_space().all_configurations():
        for ap in aps:
            got = interference_vectors(testbed, ap, bystander, configuration)
            want = _per_path_mimo(testbed, ap, bystander, configuration)[:, :, 0]
            _assert_close(got, want)


def _parabolic_nlos_setup():
    """The NLoS study setup with its elements swapped for parabolic ones."""
    setup = build_nlos_setup(4)
    rx = setup.rx_device.position
    array = PressArray.from_elements(
        [parabolic_element(e.position, name=e.name).pointed_at(rx) for e in setup.array.elements]
    )
    return setup, Testbed(scene=setup.testbed.scene, array=array)


@pytest.mark.parametrize("name", ["nlos", "nlos-parabolic", "mimo"])
def test_basis_for_matches_reference_builder(name):
    """basis_for's tensor and ambient CFR match the per-element reference."""
    if name == "nlos-parabolic":
        setup, testbed = _parabolic_nlos_setup()
    else:
        setup = (build_mimo_setup if name == "mimo" else build_nlos_setup)(4)
        testbed = setup.testbed
    tx_device, rx_device = setup.tx_device, setup.rx_device
    for i in range(rx_device.num_chains):
        for j in range(tx_device.num_chains):
            got = testbed.basis_for(tx_device, rx_device, j, i)
            tx, rx = tx_device.chains[j], rx_device.chains[i]
            want = reference_basis(
                testbed.array,
                tx.position,
                rx.position,
                testbed.tracer,
                tx_antenna=tx.antenna,
                rx_antenna=rx.antenna,
                num_subcarriers=testbed.num_subcarriers,
                bandwidth_hz=testbed.bandwidth_hz,
                environment_paths=testbed.environment_paths(tx_device, rx_device, j, i),
            )
            assert np.count_nonzero(want.state_tensor) > 0
            _assert_close(got.state_tensor, want.state_tensor)
            np.testing.assert_array_equal(got.ambient_cfr(), want.ambient_cfr())
            _assert_close(got.evaluate(), want.evaluate())


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

"""Multi-user MIMO spatial multiplexing (§1's second question).

"How best to leverage spatial multiplexing in the multi-user MIMO channel,
to simultaneously move packets to or from multiple clients?"  A 2-antenna
AP serves two single-antenna clients with zero-forcing precoding; the
per-subcarrier user channel matrix's conditioning decides how much transmit
power ZF burns inverting it.  PRESS reshapes that matrix from the walls:
this experiment sweeps the array and reports the ZF sum rate per
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..constants import dbm_to_watts, thermal_noise_power_w
from ..core.configuration import ArrayConfiguration
from ..em.geometry import Point
from ..mimo.channel_matrix import condition_numbers_db
from ..mimo.precoding import zero_forcing_precoder
from ..sdr.device import SdrDevice, warp_v3
from ..sdr.testbed import Testbed
from .common import StudyConfig, build_mimo_setup, used_subcarrier_mask

__all__ = ["MuMimoResult", "mu_mimo_matrices", "zf_sum_rate_bits", "run_mu_mimo"]


def mu_mimo_matrices(
    testbed: Testbed,
    ap: SdrDevice,
    clients: Sequence[SdrDevice],
    configuration: ArrayConfiguration,
) -> np.ndarray:
    """Per-subcarrier multi-user downlink channel, shape (sc, users, tx).

    Each user's row is its first chain's row of
    :meth:`Testbed.mimo_matrices` at ``configuration``.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    return np.stack(
        [
            testbed.mimo_matrices(ap, client, configuration)[:, 0, :]
            for client in clients
        ],
        axis=1,
    )


def zf_sum_rate_bits(
    matrices: np.ndarray,
    tx_power_dbm: float,
    bandwidth_hz: float,
    noise_figure_db: float = 7.0,
) -> float:
    """Mean zero-forcing downlink sum rate over subcarriers [bits/s/Hz].

    Per subcarrier: unit-total-power ZF precoder, per-user SNR from the
    diagonalised effective channel, Shannon rate summed over users.
    Singular (unprecodable) subcarriers contribute zero.

    Masked-subcarrier convention: the leading axis of ``matrices`` is
    taken at face value — both the per-subcarrier transmit-power split
    (``tx_power_dbm`` over ``num_sc`` bins) and the per-subcarrier noise
    bandwidth (``bandwidth_hz / num_sc``) divide by the number of rows
    actually passed.  Feeding a masked used-only subset, as
    :func:`run_mu_mimo` does, therefore concentrates the full transmit
    power and the full bandwidth in the used bins — matching an OFDM
    transmitter that puts no energy on guard/null carriers.  Pass the
    full occupied ``bandwidth_hz`` either way; do not pre-scale it by the
    mask fraction, and compare configurations only under one convention.
    """
    matrices = np.asarray(matrices, dtype=complex)
    if matrices.ndim != 3:
        raise ValueError(f"expected (sc, users, tx), got shape {matrices.shape}")
    num_sc = matrices.shape[0]
    power_w = dbm_to_watts(tx_power_dbm) / num_sc
    noise_w = thermal_noise_power_w(bandwidth_hz / num_sc, noise_figure_db)
    total = 0.0
    for h in matrices:
        try:
            w = zero_forcing_precoder(h)
        except ValueError:
            continue
        effective = h @ w
        gains = np.abs(np.diag(effective)) ** 2
        num_users = h.shape[0]
        per_user_power = power_w / num_users
        snrs = per_user_power * gains / noise_w
        total += float(np.sum(np.log2(1.0 + snrs)))
    return total / num_sc


@dataclass(frozen=True)
class MuMimoResult:
    """ZF sum rate and conditioning per configuration.

    Attributes
    ----------
    sum_rate_bits:
        Mean ZF sum rate per configuration [bits/s/Hz].
    median_condition_db:
        Median user-matrix condition number per configuration.
    labels:
        Configuration labels in sweep order.
    """

    sum_rate_bits: np.ndarray
    median_condition_db: np.ndarray
    labels: tuple[str, ...]

    @property
    def best_configuration(self) -> int:
        return int(np.argmax(self.sum_rate_bits))

    @property
    def worst_configuration(self) -> int:
        return int(np.argmin(self.sum_rate_bits))

    @property
    def rate_gain(self) -> float:
        """Best-over-worst sum-rate ratio."""
        worst = max(float(self.sum_rate_bits.min()), 1e-9)
        return float(self.sum_rate_bits.max()) / worst

    def conditioning_rate_correlation(self) -> float:
        """Correlation between (negative) conditioning and sum rate.

        Positive: better-conditioned configurations carry more rate — the
        §3.2.3 premise quantified at the network level.
        """
        return float(
            np.corrcoef(-self.median_condition_db, self.sum_rate_bits)[0, 1]
        )


def run_mu_mimo(
    placement_seed: int = 0,
    config: StudyConfig = StudyConfig(),
    client_spacing_m: float = 0.06,
    element_gain_dbi: float = 0.0,
) -> MuMimoResult:
    """Sweep all configurations of the MU-MIMO downlink scenario.

    The AP reuses the §3.2.3 MIMO geometry; the two clients sit around the
    original receiver position, ``client_spacing_m`` apart.  The default
    lambda/2 spacing correlates the user channels — the poorly conditioned
    "large MIMO" case §1 says PRESS should fix; at several wavelengths the
    users decorrelate and conditioning stops binding.
    """
    setup = build_mimo_setup(
        placement_seed, config, element_gain_dbi=element_gain_dbi
    )
    ap = setup.tx_device
    rx0 = setup.rx_device.position
    clients = [
        warp_v3("client-0", Point(rx0.x, rx0.y)),
        warp_v3("client-1", Point(rx0.x + client_spacing_m, rx0.y + 0.1)),
    ]
    mask = used_subcarrier_mask()
    space = setup.array.configuration_space()
    rates = []
    conditions = []
    labels = []
    for configuration in space.all_configurations():
        h = mu_mimo_matrices(setup.testbed, ap, clients, configuration)[mask]
        rates.append(
            zf_sum_rate_bits(
                h, config.tx_power_dbm, setup.testbed.bandwidth_hz
            )
        )
        conditions.append(float(np.median(condition_numbers_db(h))))
        labels.append(setup.array.describe(configuration))
    return MuMimoResult(
        sum_rate_bits=np.array(rates),
        median_condition_db=np.array(conditions),
        labels=tuple(labels),
    )

"""Module-level work functions behind the service's offloaded requests.

:func:`repro.serve.service.compute` calls these with a session's basis,
radio parameters and mask, in whichever process serves the request:
the event-loop process when the service runs inline, or a pool worker,
which builds its own session from the request's scenario spec.  The
benchmarks call them directly.  Either route computes the identical
answer: everything is a pure function of the arguments.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.basis import ChannelBasis
from ..core.joint import (
    BasisLink,
    optimize_hybrid,
    optimize_joint,
    optimize_per_link,
)
from ..core.objectives import MeanSnrObjective, joint_aggregate
from ..em.channel import snr_db_from_cfr
from ..em.geometry import Point
from ..experiments.large_array import make_searcher

__all__ = ["coverage_task", "joint_task", "search_task"]


def search_task(
    basis: ChannelBasis,
    searcher_name: str,
    seed: int,
    tx_power_dbm: float,
    noise_figure_db: float,
    mask: np.ndarray,
) -> tuple[tuple[int, ...], float, int]:
    """Run one named searcher against a traced basis.

    Returns ``(best_configuration, best_score_db, num_evaluations)`` as
    plain values.  Seeded construction via
    :func:`~repro.experiments.large_array.make_searcher` makes the result
    a pure function of the arguments — identical inline or on a worker.
    """
    searcher = make_searcher(searcher_name, seed)
    result = searcher.search_basis(
        basis,
        MeanSnrObjective(),
        tx_power_dbm=tx_power_dbm,
        noise_figure_db=noise_figure_db,
        mask=mask,
    )
    return (
        tuple(np.asarray(result.best.indices).tolist()),
        float(result.best_score),
        int(result.num_evaluations),
    )


def joint_task(
    bases: Sequence[ChannelBasis],
    names: Sequence[str],
    weights: Sequence[float],
    strategy: str,
    searcher_name: str,
    seed: int,
    aggregate_name: str,
    tolerance: float,
    tx_power_dbm: float,
    noise_figure_db: float,
    mask: Optional[np.ndarray],
) -> tuple[str, tuple, tuple, float, int, int]:
    """Run one multi-link strategy over per-link traced bases.

    Every link shares the array (one configuration space), so the links
    become :class:`~repro.core.joint.BasisLink`\\ s and the strategy runs
    delta-powered whenever the named searcher supports it.  Returns plain
    picklable values, in ``names`` order:
    ``(strategy, configurations, scores_db, aggregate_score_db,
    num_measurements, num_distinct_configurations)`` — a pure function of
    the arguments, identical inline or on a worker.
    """
    searcher = make_searcher(searcher_name, seed)
    aggregate = joint_aggregate(aggregate_name)
    links = [
        BasisLink(
            name=name,
            evaluator=basis.evaluator(
                MeanSnrObjective(),
                tx_power_dbm=tx_power_dbm,
                noise_figure_db=noise_figure_db,
                mask=mask,
            ),
            weight=weight,
        )
        for name, basis, weight in zip(names, bases, weights)
    ]
    if strategy == "joint":
        result = optimize_joint(links, searcher=searcher, aggregate=aggregate)
    elif strategy == "per-link":
        result = optimize_per_link(links, searcher=searcher)
    elif strategy == "hybrid":
        result = optimize_hybrid(links, searcher=searcher, tolerance=tolerance)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected joint, per-link or hybrid"
        )
    return (
        result.strategy,
        tuple(
            tuple(int(s) for s in result.assignments[name].indices)
            for name in names
        ),
        tuple(float(result.per_link_scores[name]) for name in names),
        float(result.aggregate_score(links, aggregate=aggregate)),
        int(result.num_measurements),
        int(result.num_distinct_configurations),
    )


def coverage_task(
    session,
    rows: int,
    cols: int,
    x_span_m: float,
    y_span_m: float,
    configuration: tuple[int, ...],
) -> list[float]:
    """Mean used-SNR at one configuration over an RX-centred grid.

    Row-major point order (matching the coverage experiment); the whole
    grid's geometry goes through one batched trace via
    ``Testbed.bases_for_points``.  The session's testbed keeps the
    scene's trace frame and the process-wide trace cache keeps the
    grid's ambient batch, so a repeated request re-traces only the
    element geometry toward the grid.
    """
    setup = session.setup
    rx0 = setup.rx_device.position
    xs = np.linspace(rx0.x - x_span_m / 2, rx0.x + x_span_m / 2, cols)
    ys = np.linspace(rx0.y - y_span_m / 2, rx0.y + y_span_m / 2, rows)
    points = [Point(float(x), float(y)) for y in ys for x in xs]
    bases = setup.testbed.bases_for_points(
        setup.tx_device, points, setup.rx_device.chains[0].antenna
    )
    indices = np.array([configuration], dtype=np.int64)
    scores = []
    for point_basis in bases:
        snr = snr_db_from_cfr(
            point_basis.evaluate(indices),
            point_basis.num_subcarriers,
            point_basis.bandwidth_hz,
            tx_power_dbm=setup.tx_device.tx_power_dbm,
            noise_figure_db=setup.rx_device.noise_figure_db,
        )
        scores.append(float(snr[0, session.mask].mean()))
    return scores

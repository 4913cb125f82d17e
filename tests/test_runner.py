"""Parallel experiment runner: determinism, seeding and equivalence.

``run_parallel`` must preserve task order and produce bit-identical
results at every worker count; the experiment drivers that adopt it
(``run_fig4``, ``run_fig6``, ``run_fig7``, ``run_coverage_suite``) must
return the same numbers serially and in parallel.  Also covers the
process-wide trace cache.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.em import global_trace_cache
from repro.experiments import (
    Fig6Result,
    StudyConfig,
    build_nlos_setup,
    derive_seeds,
    resolve_jobs,
    run_coverage_suite,
    run_fig4,
    run_fig6,
    run_fig7,
    run_parallel,
)
from repro.experiments.runner import available_cpus


def _square(task: int) -> int:
    return task * task


def test_run_parallel_preserves_order_serial_and_parallel():
    tasks = list(range(17))
    expected = [t * t for t in tasks]
    assert run_parallel(_square, tasks, jobs=None) == (expected, [])
    assert run_parallel(_square, tasks, jobs=1) == (expected, [])
    results, samples = run_parallel(_square, tasks, jobs=4)
    assert results == expected
    assert len(samples) == len(tasks)


def test_run_parallel_empty_and_single():
    assert run_parallel(_square, [], jobs=4) == ([], [])
    assert run_parallel(_square, [3], jobs=4) == ([9], [])


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == available_cpus()
    assert resolve_jobs(-1) == available_cpus()
    assert available_cpus() >= 1


def test_derive_seeds_deterministic_and_independent():
    a = derive_seeds(123, 5)
    b = derive_seeds(123, 5)
    assert len(a) == 5
    streams_a = [np.random.default_rng(s).random(4) for s in a]
    streams_b = [np.random.default_rng(s).random(4) for s in b]
    for left, right in zip(streams_a, streams_b):
        np.testing.assert_array_equal(left, right)
    # Distinct children must give distinct streams.
    assert not np.allclose(streams_a[0], streams_a[1])


def _fig4_key(result):
    return [
        (r.placement_seed, r.mean_gap_db, r.max_single_rep_gap_db)
        for r in result.placements
    ]


def test_fig4_parallel_matches_serial():
    serial = run_fig4(num_placements=3, repetitions=2)
    jobs1 = run_fig4(num_placements=3, repetitions=2, jobs=1)
    jobs4 = run_fig4(num_placements=3, repetitions=2, jobs=4)
    assert _fig4_key(serial) == _fig4_key(jobs1)
    assert _fig4_key(serial) == _fig4_key(jobs4)
    assert serial.largest_mean_change_db == jobs4.largest_mean_change_db
    assert serial.largest_single_rep_change_db == jobs4.largest_single_rep_change_db


def test_fig6_explicit_jobs_identical_across_worker_counts():
    jobs1 = run_fig6(repetitions=3, jobs=1)
    jobs4 = run_fig6(repetitions=3, jobs=4)
    np.testing.assert_array_equal(
        jobs1.min_snr_change_pairs, jobs4.min_snr_change_pairs
    )
    assert len(jobs1.min_snr_per_trial) == len(jobs4.min_snr_per_trial)
    for left, right in zip(jobs1.min_snr_per_trial, jobs4.min_snr_per_trial):
        np.testing.assert_array_equal(left, right)
    assert jobs1.fraction_pairs_10db_change == jobs4.fraction_pairs_10db_change
    assert jobs1.fraction_configs_below_20db == jobs4.fraction_configs_below_20db


def test_fig6_every_field_identical_at_any_jobs():
    """The default ``jobs=None`` draws the same per-repetition streams too."""
    default, *others = (run_fig6(repetitions=3, jobs=jobs) for jobs in (None, 1, 2))
    for other in others:
        for field in fields(Fig6Result):
            np.testing.assert_array_equal(
                getattr(default, field.name), getattr(other, field.name)
            )


def test_fig7_parallel_matches_serial():
    serial = run_fig7(max_seeds=4, min_total_contrast_db=0.0)
    parallel = run_fig7(max_seeds=4, min_total_contrast_db=0.0, jobs=4)
    assert serial.placement_seed == parallel.placement_seed
    assert serial.label_a == parallel.label_a
    assert serial.label_b == parallel.label_b
    assert serial.contrast_a_db == parallel.contrast_a_db
    assert serial.contrast_b_db == parallel.contrast_b_db
    np.testing.assert_array_equal(serial.snr_a, parallel.snr_a)


def test_coverage_suite_parallel_matches_serial():
    serial = run_coverage_suite(placement_seeds=(0, 1), grid_shape=(2, 3))
    parallel = run_coverage_suite(
        placement_seeds=(0, 1), grid_shape=(2, 3), jobs=2
    )
    assert len(serial) == len(parallel) == 2
    for left, right in zip(serial, parallel):
        np.testing.assert_array_equal(left.baseline_db, right.baseline_db)
        np.testing.assert_array_equal(left.per_position_db, right.per_position_db)
        np.testing.assert_array_equal(left.joint_db, right.joint_db)
        assert left.joint_configuration == right.joint_configuration


def test_global_trace_cache_shares_traces_across_testbeds():
    cache = global_trace_cache()
    cache.clear()
    first = build_nlos_setup(2, StudyConfig())
    first.testbed.environment_paths(first.tx_device, first.rx_device)
    misses_after_first = cache.misses
    assert misses_after_first >= 1
    # A rebuilt testbed for the same placement hits the value-keyed cache.
    second = build_nlos_setup(2, StudyConfig())
    paths_second = second.testbed.environment_paths(
        second.tx_device, second.rx_device
    )
    assert cache.hits >= 1
    assert cache.misses == misses_after_first
    paths_first = first.testbed.environment_paths(first.tx_device, first.rx_device)
    assert paths_first == paths_second

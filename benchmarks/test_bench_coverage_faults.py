"""§1's first question measured room-wide, plus array maintenance (§2).

* Coverage: a grid of client positions behind the blocker, before/after
  PRESS — dead-zone elimination as a site survey would report it.
* Maintenance: stuck/dead elements injected; the 2-soundings-per-element
  detector finds them and re-optimisation recovers what the surviving
  elements allow.
"""

from repro.analysis.reporting import ReportTable, format_table
from repro.core import (
    ExhaustiveSearch,
    detect_unresponsive_elements,
    with_faults,
)
from repro.experiments import build_nlos_setup, run_coverage, used_subcarrier_mask
from repro.sdr.testbed import Testbed


def test_bench_coverage_map(once):
    coverage = once(run_coverage, grid_shape=(5, 7))

    rows = [("map", "worst spot [dB]", "mean [dB]", "below 20 dB")]
    for which in ("baseline", "joint", "per-position"):
        grid = {
            "baseline": coverage.baseline_db,
            "joint": coverage.joint_db,
            "per-position": coverage.per_position_db,
        }[which]
        rows.append(
            (
                which,
                f"{coverage.worst_db(which):.1f}",
                f"{grid.mean():.1f}",
                f"{100 * coverage.fraction_below(20.0, which):.0f}%",
            )
        )
    print()
    print("Coverage over a 5x7 client grid behind the blocker")
    print(format_table(rows, header_rule=True))

    table = ReportTable(title="§1: dead-zone elimination, room-wide")
    gain = coverage.worst_db("joint") - coverage.worst_db("baseline")
    table.add(
        "one joint configuration lifts the worst spot",
        "dead zones are a multipath artefact PRESS can move",
        f"{coverage.worst_db('baseline'):.1f} -> {coverage.worst_db('joint'):.1f} dB "
        f"({gain:+.1f} dB)",
        gain > 2.0,
    )
    table.add(
        "per-position switching adds more on top",
        "the §2 agile extreme",
        f"worst {coverage.worst_db('per-position'):.1f} dB",
        coverage.worst_db("per-position") >= coverage.worst_db("joint") - 1e-9,
    )
    print(table.render())
    assert table.all_hold()


def test_bench_fault_tolerance(once):
    def run():
        setup = build_nlos_setup(2)
        mask = used_subcarrier_mask()

        def best_score(array):
            testbed = Testbed(scene=setup.testbed.scene, array=array)

            def score(configuration):
                return float(
                    testbed.measure_csi(
                        setup.tx_device, setup.rx_device, configuration
                    ).snr_db[mask].min()
                )

            return ExhaustiveSearch().search(
                array.configuration_space(), score
            ).best_score

        healthy_score = best_score(setup.array)
        faulty = with_faults(setup.array, stuck={0: 2}, dead=[1])
        faulty_score = best_score(faulty)
        testbed = Testbed(scene=setup.testbed.scene, array=faulty)

        basis = testbed.basis_for(setup.tx_device, setup.rx_device)

        def measure_cfr(configuration):
            return basis.cfr(configuration)[mask]

        detected = detect_unresponsive_elements(faulty, measure_cfr)
        soundings = 2 * faulty.num_elements
        return healthy_score, faulty_score, detected, soundings

    healthy_score, faulty_score, detected, soundings = once(run)

    table = ReportTable(title="§2 maintenance: faults detected and tolerated")
    table.add(
        "maintenance sweep finds the broken elements",
        "stuck switch + dead antenna injected",
        f"detected elements {detected} with {soundings} soundings",
        detected == [0, 1],
    )
    table.add(
        "re-optimisation degrades gracefully",
        "surviving elements still searched",
        f"best min-SNR {healthy_score:.1f} -> {faulty_score:.1f} dB",
        faulty_score > healthy_score - 15.0,
    )
    print()
    print(table.render())
    assert table.all_hold()

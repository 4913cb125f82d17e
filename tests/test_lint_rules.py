"""`repro lint` regression suite: every rule fires on a minimal violating
snippet and stays silent on the corrected form; baseline and pragma
machinery round-trips; and — the meta-test — the repo itself is clean."""

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    prune_baseline,
    save_baseline,
    stale_entries,
)
from repro.analysis.linter import (
    Finding,
    lint_project,
    run_lint,
    run_lint_source,
)
from repro.analysis.rules import RULE_CLASSES, all_rules
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
LIB_PATH = "src/repro/em/example.py"


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# RPL001: global / unseeded RNG
# ----------------------------------------------------------------------
def test_rpl001_flags_numpy_global_rng():
    source = "import numpy as np\n\nx = np.random.normal(size=3)\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL001"]


def test_rpl001_flags_unseeded_default_rng():
    source = "import numpy as np\n\nrng = np.random.default_rng()\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL001"]


def test_rpl001_flags_stdlib_random():
    source = "import random\n\nx = random.random()\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL001"]


def test_rpl001_flags_legacy_randomstate():
    source = "import numpy as np\n\nrs = np.random.RandomState(3)\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL001"]


def test_rpl001_allows_seeded_generator_threading():
    source = (
        "import numpy as np\n\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed)\n\n"
        "root = np.random.SeedSequence(7)\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


def test_rpl001_exempts_tests_directory():
    source = "import numpy as np\n\nx = np.random.normal()\n"
    assert run_lint_source(source, "tests/test_example.py") == []


# ----------------------------------------------------------------------
# RPL002: internal Generator construction shadows the threaded stream
# ----------------------------------------------------------------------
def test_rpl002_flags_fixed_fallback_inside_rng_function():
    source = (
        "import numpy as np\n\n"
        "def measure(rng=None):\n"
        "    rng = rng if rng is not None else np.random.default_rng(0)\n"
        "    return rng.normal()\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL002"]


def test_rpl002_allows_generator_derived_from_seed_param():
    source = (
        "import numpy as np\n\n"
        "def measure(placement_seed):\n"
        "    rng = np.random.default_rng([placement_seed, 77])\n"
        "    return rng.normal()\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


def test_rpl002_ignores_functions_without_rng_params():
    source = (
        "import numpy as np\n\n"
        "def default_stream():\n"
        "    return np.random.default_rng(12345)\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


# ----------------------------------------------------------------------
# RPL003: wall-clock / entropy reads in library code
# ----------------------------------------------------------------------
def test_rpl003_flags_wall_clock_in_library_code():
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL003"]


def test_rpl003_flags_uuid_and_datetime():
    source = (
        "import uuid\nfrom datetime import datetime\n\n\n"
        "def tag():\n"
        "    return uuid.uuid4(), datetime.now()\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL003", "RPL003"]


def test_rpl003_flags_ad_hoc_stopwatch_outside_obs():
    source = "import time\n\n\ndef tic():\n    return time.perf_counter()\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL003"]


def test_rpl003_allows_monotonic_clocks_in_obs():
    source = "import time\n\n\ndef tic():\n    return time.perf_counter()\n"
    assert run_lint_source(source, "src/repro/obs/example.py") == []


def test_rpl003_still_bans_wall_clock_in_obs():
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    assert rules_of(run_lint_source(source, "src/repro/obs/example.py")) == [
        "RPL003"
    ]


def test_rpl003_does_not_apply_outside_library_tree():
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    assert run_lint_source(source, "benchmarks/bench_example.py") == []


# ----------------------------------------------------------------------
# RPL004: hash-ordered iteration into order-sensitive sinks
# ----------------------------------------------------------------------
def test_rpl004_flags_list_over_set():
    source = "def order(items):\n    return list(set(items))\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL004"]


def test_rpl004_flags_for_loop_over_set_literal():
    source = (
        "def walk(a, b):\n"
        "    out = []\n"
        "    for item in {a, b}:\n"
        "        out.append(item)\n"
        "    return out\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL004"]


def test_rpl004_flags_json_dumps_of_set():
    source = (
        "import json\n\n\n"
        "def dump(items):\n"
        "    return json.dumps({'used': set(items)})\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL004"]


def test_rpl004_allows_sorted_and_order_insensitive_sinks():
    source = (
        "def ok(items, d):\n"
        "    a = sorted(set(items))\n"
        "    b = len(set(items))\n"
        "    c = max({1, 2})\n"
        "    e = {k: 1 for k in sorted(d.keys())}\n"
        "    return a, b, c, e\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


# ----------------------------------------------------------------------
# RPL005: physical-constant literals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("literal", ["3e8", "299792458.0", "1.38e-23", "2.462e9"])
def test_rpl005_flags_known_constant_literals(literal):
    source = f"VALUE = {literal}\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL005"]


def test_rpl005_allows_named_constants_and_unrelated_numbers():
    source = (
        "from repro.constants import SPEED_OF_LIGHT\n\n"
        "BANDWIDTH = 20e6\n"
        "WAVELENGTH = SPEED_OF_LIGHT / 2.0\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


def test_rpl005_exempts_the_constants_module():
    source = "SPEED_OF_LIGHT = 299792458.0\n"
    assert run_lint_source(source, "src/repro/constants.py") == []


# ----------------------------------------------------------------------
# RPL006: observability registration and naming
# ----------------------------------------------------------------------
def test_rpl006_flags_registration_inside_function():
    source = (
        "from repro.obs.metrics import global_registry\n\n\n"
        "def hot_path():\n"
        "    global_registry().counter('em.example.hits').inc()\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"]


def test_rpl006_flags_bad_name_grammar():
    source = (
        "from repro.obs.metrics import global_registry\n\n"
        "_C = global_registry().counter('EmExampleHits')\n"
    )
    # Raw module-level capture + grammar violation: two findings.
    assert rules_of(run_lint_source(source, LIB_PATH)) == [
        "RPL006",
        "RPL006",
    ]


def test_rpl006_flags_histogram_without_unit_suffix():
    source = (
        "from repro.obs.metrics import global_registry\n\n"
        "_H = global_registry().histogram('em.example.latency')\n"
    )
    # Raw module-level capture + missing unit suffix: two findings.
    assert rules_of(run_lint_source(source, LIB_PATH)) == [
        "RPL006",
        "RPL006",
    ]


def test_rpl006_flags_duplicate_registration():
    source = (
        "from repro.obs.metrics import global_registry\n\n"
        "_A = global_registry().counter('em.example.hits')\n"
        "_B = global_registry().counter('em.example.hits')\n"
    )
    # Two raw captures plus the duplicate name: three findings.
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"] * 3


def test_rpl006_flags_raw_module_level_instrument_capture():
    source = (
        "from repro.obs.metrics import global_registry\n\n"
        "_HITS = global_registry().counter('em.example.hits')\n"
    )
    findings = run_lint_source(source, LIB_PATH)
    assert rules_of(findings) == ["RPL006"]
    assert "stale" in findings[0].message
    assert "counter_handle" in findings[0].message


def test_rpl006_flags_inline_span_literal():
    source = (
        "from repro.obs.tracing import global_tracer\n\n\n"
        "def phase():\n"
        "    with global_tracer().span('em.example_phase'):\n"
        "        pass\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"]


def test_rpl006_allows_module_level_names_on_grammar():
    source = (
        "from repro.obs.metrics import counter_handle, histogram_handle\n"
        "from repro.obs.tracing import global_tracer\n\n"
        "_HITS = counter_handle('em.example.hits')\n"
        "_WAIT_S = histogram_handle('em.example.wait_s')\n"
        "_SPAN_TRACE = 'em.example_trace'\n\n\n"
        "def phase():\n"
        "    with global_tracer().span(_SPAN_TRACE):\n"
        "        pass\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


def test_rpl006_flags_handle_registration_inside_function():
    source = (
        "from repro.obs.metrics import counter_handle\n\n\n"
        "def hot_path():\n"
        "    counter_handle('em.example.hits').inc()\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"]


def test_rpl006_flags_handle_bad_grammar_and_duplicates():
    source = (
        "from repro.obs.metrics import counter_handle, gauge_handle\n\n"
        "_A = counter_handle('EmExampleHits')\n"
        "_B = gauge_handle('em.example.depth')\n"
        "_C = counter_handle('em.example.depth')\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006", "RPL006"]


def test_rpl006_flags_histogram_handle_without_unit_suffix():
    source = (
        "from repro.obs.metrics import histogram_handle\n\n"
        "_H = histogram_handle('em.example.latency')\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"]


def test_rpl006_flags_inline_request_span_literal():
    source = (
        "from repro.obs.tracing import bind_context, global_tracer\n\n\n"
        "def phase(ctx):\n"
        "    with bind_context(ctx), global_tracer().span('em.example_phase'):\n"
        "        pass\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"]


def test_rpl006_flags_emit_request_span_dynamic_name():
    source = (
        "from repro.obs.tracing import global_tracer\n\n\n"
        "def phase(name, ctx):\n"
        "    global_tracer().emit_span(name, 0.0, 1.0, ctx)\n"
    )
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL006"]


def test_rpl006_allows_handle_and_request_span_idiom():
    source = (
        "from repro.obs.metrics import counter_handle, histogram_handle\n"
        "from repro.obs.tracing import bind_context, global_tracer\n\n"
        "_HITS = counter_handle('em.example.hits')\n"
        "_WAIT_S = histogram_handle('em.example.wait_s')\n"
        "_SPAN_PHASE = 'em.example_phase'\n"
        "_SPAN_QUEUE = 'em.example_queue'\n\n\n"
        "def phase(ctx):\n"
        "    with bind_context(ctx), global_tracer().span(_SPAN_PHASE):\n"
        "        _HITS.inc()\n"
        "    global_tracer().emit_span(_SPAN_QUEUE, 0.0, 1.0, ctx)\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


# ----------------------------------------------------------------------
# Pragmas, syntax errors, ordering
# ----------------------------------------------------------------------
def test_pragma_suppresses_on_line_and_from_comment_above():
    source = (
        "import time\n\n\n"
        "def stamp():\n"
        "    a = time.time()  # reprolint: disable=RPL003 -- test fixture\n"
        "    # reprolint: disable=RPL003 -- covers the next code line\n"
        "    b = time.time()\n"
        "    return a, b\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


def test_skip_file_pragma_disables_rule_everywhere():
    source = (
        "# reprolint: skip-file=RPL005\n"
        "A = 3e8\n"
        "B = 2.462e9\n"
    )
    assert run_lint_source(source, LIB_PATH) == []


def test_pragma_does_not_suppress_other_rules():
    source = "import time\n\nx = time.time()  # reprolint: disable=RPL001\n"
    assert rules_of(run_lint_source(source, LIB_PATH)) == ["RPL003"]


def test_syntax_error_becomes_rpl000_finding():
    findings = run_lint_source("def broken(:\n", LIB_PATH)
    assert rules_of(findings) == ["RPL000"]


def test_findings_are_sorted_and_fingerprints_stable():
    source = "import numpy as np\n\nx = np.random.normal()\ny = 3e8\n"
    findings = run_lint_source(source, LIB_PATH)
    assert findings == sorted(findings)
    shifted = run_lint_source("\n\n" + source, LIB_PATH)
    assert [f.fingerprint() for f in findings] == [
        f.fingerprint() for f in shifted
    ]


def test_rule_registry_ids_are_unique_and_stable():
    ids = [cls.id for cls in RULE_CLASSES]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == [f"RPL00{n}" for n in range(1, 7)] + [
        f"RPL10{n}" for n in range(1, 6)
    ]
    assert [rule.id for rule in all_rules()] == sorted(ids)


# ----------------------------------------------------------------------
# Baseline machinery
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import numpy as np\n\nx = np.random.normal()\n")
    baseline_path = tmp_path / "baseline.json"

    findings = run_lint([str(module)])
    assert rules_of(findings) == ["RPL001"]

    save_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)
    fresh, matched = apply_baseline(run_lint([str(module)]), baseline)
    assert fresh == [] and matched == 1

    # A second copy of the same violation exceeds the recorded budget.
    module.write_text(
        "import numpy as np\n\nx = np.random.normal()\nx = np.random.normal()\n"
    )
    fresh, matched = apply_baseline(run_lint([str(module)]), baseline)
    assert matched == 1 and rules_of(fresh) == ["RPL001"]


def test_missing_baseline_is_empty():
    baseline = load_baseline("/nonexistent/baseline.json")
    assert baseline.counts == {} and baseline.total == 0


def test_stale_entries_and_prune(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import numpy as np\n\nx = np.random.normal()\n")
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, run_lint([str(module)]))

    # Fix the violation: the baseline entry goes stale.
    module.write_text("import numpy as np\n\nx = 1\n")
    findings = run_lint([str(module)])
    baseline = load_baseline(baseline_path)
    stale = stale_entries(findings, baseline)
    assert len(stale) == 1 and sum(stale.values()) == 1

    dropped = prune_baseline(baseline_path, findings, baseline)
    assert dropped == 1
    assert load_baseline(baseline_path).total == 0
    assert stale_entries(findings, load_baseline(baseline_path)) == {}


def test_prune_clamps_budget_to_live_matches(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n\nx = np.random.normal()\nx = np.random.normal()\n"
    )
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, run_lint([str(module)]))
    assert load_baseline(baseline_path).total == 2

    # One of the two grandfathered copies is fixed: budget shrinks to 1.
    module.write_text("import numpy as np\n\nx = np.random.normal()\n")
    findings = run_lint([str(module)])
    dropped = prune_baseline(baseline_path, findings, load_baseline(baseline_path))
    assert dropped == 1
    assert load_baseline(baseline_path).total == 1


# ----------------------------------------------------------------------
# Crash resilience: RPL000 is file-scoped, never a run abort
# ----------------------------------------------------------------------
def test_unparseable_file_yields_rpl000_and_others_still_lint(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\n\nx = np.random.normal()\n")

    findings = run_lint([str(broken), str(dirty)])
    by_rule = {f.rule: f for f in findings}
    assert set(by_rule) == {"RPL000", "RPL001"}
    assert by_rule["RPL000"].path.endswith("broken.py")
    assert by_rule["RPL001"].path.endswith("dirty.py")


def test_null_byte_file_yields_rpl000(tmp_path):
    hostile = tmp_path / "hostile.py"
    hostile.write_bytes(b"x = 1\x00\n")
    findings = run_lint([str(hostile)])
    assert rules_of(findings) == ["RPL000"]


def test_modern_syntax_parses_walrus_and_match(tmp_path):
    module = tmp_path / "modern.py"
    module.write_text(
        "def classify(value):\n"
        "    if (n := len(value)) > 3:\n"
        "        return n\n"
        "    match value:\n"
        "        case [x]:\n"
        "            return x\n"
        "        case _:\n"
        "            return None\n"
    )
    assert run_lint([str(module)]) == []


def test_pep695_syntax_is_rpl000_or_clean_depending_on_interpreter(tmp_path):
    # ``type`` aliases need Python 3.12; older interpreters must degrade
    # to a single file-scoped RPL000, not a crashed run.
    module = tmp_path / "aliases.py"
    module.write_text("type Vector = list[float]\n\ndef norm(v: Vector):\n    return v\n")
    ok = tmp_path / "ok.py"
    ok.write_text("x = 1\n")
    findings = run_lint([str(module), str(ok)])
    assert rules_of(findings) in ([], ["RPL000"])
    assert all(f.path.endswith("aliases.py") for f in findings)


def test_crashing_rule_is_contained_to_rpl000_for_that_file(tmp_path):
    from repro.analysis.linter import Rule

    class ExplodingRule(Rule):
        id = "RPL999"
        title = "always crashes"
        hint = ""

        def check(self, context):
            raise RuntimeError("boom")

    module = tmp_path / "module.py"
    module.write_text("import numpy as np\n\nx = np.random.normal()\n")
    run = lint_project([str(module)], rules=[*all_rules(), ExplodingRule()])
    by_rule = sorted(rules_of(run.findings))
    assert by_rule == ["RPL000", "RPL001"]
    crash = next(f for f in run.findings if f.rule == "RPL000")
    assert "RPL999" in crash.message and "boom" in crash.message


# ----------------------------------------------------------------------
# CLI: exit codes, JSON schema, --update-baseline
# ----------------------------------------------------------------------
def test_cli_lint_json_schema_and_exit_codes(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text("import numpy as np\n\nx = np.random.normal()\n")
    baseline_path = tmp_path / "baseline.json"

    rc = main(
        ["lint", str(module), "--format", "json", "--baseline", str(baseline_path)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["version"] == 2
    assert payload["schema_version"] == 2
    assert "costs" in payload
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["by_rule"] == {"RPL001": 1}
    assert payload["summary"]["files_checked"] == 1
    (finding,) = payload["findings"]
    assert set(finding) >= {
        "path",
        "line",
        "col",
        "rule",
        "message",
        "hint",
        "snippet",
        "fingerprint",
    }
    assert finding["rule"] == "RPL001"

    rc = main(
        ["lint", str(module), "--baseline", str(baseline_path), "--update-baseline"]
    )
    capsys.readouterr()
    assert rc == 0 and baseline_path.exists()

    rc = main(["lint", str(module), "--baseline", str(baseline_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "1 baselined" in out


def test_render_json_orders_findings_by_rule_then_site():
    import json as json_module

    from repro.analysis.report import render_json

    def finding(rule, path, line):
        return Finding(
            path=path, line=line, col=0, rule=rule,
            message="m", hint="h", snippet="s",
        )

    scrambled = [
        finding("RPL104", "b.py", 3),
        finding("RPL001", "b.py", 9),
        finding("RPL104", "a.py", 7),
        finding("RPL001", "a.py", 2),
    ]
    payload = json_module.loads(render_json(scrambled, files_checked=2))
    order = [(f["rule"], f["path"], f["line"]) for f in payload["findings"]]
    assert order == [
        ("RPL001", "a.py", 2),
        ("RPL001", "b.py", 9),
        ("RPL104", "a.py", 7),
        ("RPL104", "b.py", 3),
    ]


def test_cli_lint_missing_path_is_usage_error(tmp_path, capsys):
    rc = main(["lint", str(tmp_path / "nope"), "--baseline", "unused.json"])
    capsys.readouterr()
    assert rc == 2


def test_cli_lint_stale_baseline_warns_and_strict_fails(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text("import numpy as np\n\nx = np.random.normal()\n")
    baseline_path = tmp_path / "baseline.json"
    main(["lint", str(module), "--baseline", str(baseline_path), "--update-baseline"])
    capsys.readouterr()

    module.write_text("x = 1\n")
    rc = main(["lint", str(module), "--baseline", str(baseline_path)])
    captured = capsys.readouterr()
    assert rc == 0 and "stale baseline" in captured.err

    rc = main(["lint", str(module), "--baseline", str(baseline_path), "--strict"])
    capsys.readouterr()
    assert rc == 1

    rc = main(
        ["lint", str(module), "--baseline", str(baseline_path), "--prune-baseline"]
    )
    captured = capsys.readouterr()
    assert rc == 0 and "pruned 1" in captured.out
    assert load_baseline(baseline_path).total == 0

    rc = main(["lint", str(module), "--baseline", str(baseline_path), "--strict"])
    captured = capsys.readouterr()
    assert rc == 0 and "stale" not in captured.err


def test_cli_lint_select_ignore_and_no_graph(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n\n"
        "x = np.random.normal()\n"
        "def task(cell):\n"
        "    return cell\n\n"
        "def run(pool, grid):\n"
        "    return pool.submit(task, lambda: 1)\n"
    )
    baseline = str(tmp_path / "baseline.json")

    rc = main(["lint", str(module), "--baseline", baseline, "--select", "RPL105"])
    out = capsys.readouterr().out
    assert rc == 1 and "RPL105" in out and "RPL001" not in out

    rc = main(["lint", str(module), "--baseline", baseline, "--ignore", "RPL001"])
    out = capsys.readouterr().out
    assert rc == 1 and "RPL001" not in out and "RPL105" in out

    # --no-graph silences graph rules entirely for this single-file case
    # only where cross-module knowledge is needed; the lambda payload is
    # same-file, so it still fires — but stats still render.
    rc = main(["lint", str(module), "--baseline", baseline, "--stats"])
    out = capsys.readouterr().out
    assert rc == 1 and "<index>" in out


# ----------------------------------------------------------------------
# The meta-test: the repo itself is lint-clean with an empty baseline
# ----------------------------------------------------------------------
def test_repo_is_lint_clean_at_head():
    findings = run_lint(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]
    )
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
    )


def test_shipped_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / ".reprolint-baseline.json")
    assert baseline.total == 0

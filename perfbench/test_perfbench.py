"""Tests of the benchmark itself: the output checks catch broken bounds, the
traced pass changes nothing it measures, and workloads follow their seed.

    python3 -m pytest perfbench -q
"""

import pytest

import checks
import harness
import tracing
import workloads

cli = harness.import_cli()
import esdurate.cli  # noqa: E402  (importable only once harness has set the path)
import esdurate.esdu  # noqa: E402
import esdurate.region  # noqa: E402

TS = ["--timestamp", workloads.TIMESTAMP]
SMALL = [
    ["p2p-bounds", "--peak-db", "5,10", "--delta0", "0.5", *TS],
    ["esdu-rate", "--span", "8", "--levels", "9", "--mc-samples", "20000", "--seed", "3", *TS],
    ["verify", "--peak-db-grid", "10", "--sigma-ratios", "2", "--delta0-grid", "1",
     "--rho-steps", "51", "--quad-tol", "1e-8", *TS],
    ["bc-inner", "--mode", "exact", "--peak-db", "10", "--sigma2-ratio", "2",
     "--delta0-grid", "1,3", "--format", "json", *TS],
    ["bc-inner", "--peak-db", "10", "--sigma2-ratio", "2", "--delta0-grid", "1,3", "--format", "json", *TS],
    ["bc-outer", "--peak-db", "10", "--sigma2-ratio", "2", "--delta0-grid", "1,3", "--format", "json", *TS],
]


def _problems(commands=SMALL):
    results, _ = harness.run_pass(cli, commands)
    return results, checks.check_commands(results, lambda argv: harness.run_command(cli, argv))


def _checks_failed(problems):
    return {check for found in problems for check, _ in found}


def test_unbroken_outputs_pass_every_check():
    _, problems = _problems()
    assert problems == [[] for _ in SMALL]


def test_raised_lower_bound_in_esdu_fails_verify(monkeypatch):
    true_bound = esdurate.esdu.f_lower
    monkeypatch.setattr(esdurate.esdu, "f_lower", lambda inp, sigma: true_bound(inp, sigma) + 0.1)
    results, problems = _problems()
    verify_at = [r.argv[0] for r in results].index("verify")
    assert results[verify_at].exit_code == 3
    assert problems[verify_at][0][0] == "exit"


def test_raised_lower_bound_in_cli_breaks_the_table_sandwich(monkeypatch):
    true_bound = esdurate.cli.f_lower
    monkeypatch.setattr(esdurate.cli, "f_lower", lambda inp, sigma: true_bound(inp, sigma) + 0.1)
    _, problems = _problems()
    assert _checks_failed(problems[:2]) == {"sandwich"}
    assert problems[0] and problems[1]


def test_raised_lower_bound_in_region_breaks_containment(monkeypatch):
    true_bound = esdurate.region.f_lower
    monkeypatch.setattr(esdurate.region, "f_lower", lambda inp, sigma: true_bound(inp, sigma) + 0.2)
    _, problems = _problems()
    assert _checks_failed(problems[3:5]) == {"containment"}
    assert "analytic inner outside exact" in problems[3][0][1]
    assert "analytic inner outside outer" in problems[4][0][1]


def test_reference_disagreement_is_flagged():
    results, problems = _problems()
    reference = {}
    for result in results:
        reference.update(checks.reference_items(result))
    assert checks.check_reference(results, problems, reference) == len(reference)
    assert problems == [[] for _ in SMALL]
    key = next(k for k in reference if k.startswith("p2p-bounds"))
    reference[key] = dict(reference[key], mi_exact=reference[key]["mi_exact"] + 1e-8)
    checks.check_reference(results, problems, reference)
    assert _checks_failed(problems) == {"reference"}


def test_known_failure_is_tolerated_only_for_its_check():
    argv = ["bc-inner", "--peak-db", "30", "--sigma2-ratio", "2", "--format", "json", *TS]
    assert checks.is_known(argv, [("containment", "outside")])
    assert not checks.is_known(argv, [("reference", "differs")])
    assert argv in workloads.commands_for("bc-analytic", 12345)


def test_traced_passes_repeat_counts_and_outputs():
    untraced, _ = harness.run_pass(cli, SMALL)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            tracer.active = True
            traced, wall = harness.run_pass(cli, SMALL, tracer)
            tracer.active = False
            counts.append(tracing.pass_counts(tracer))
            assert [r.stdout for r in traced] == [r.stdout for r in untraced]
        times = tracing.pass_times(tracer, wall)
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["oracle.mi_discrete.calls"] > 0
    assert counts[0]["verify.checks"] > 0
    assert 0.0 < times["oracle.share"] < 1.0
    assert not hasattr(esdurate.region.mi_discrete, "__wrapped__")
    assert "parse_args" not in vars(esdurate.cli._CliParser)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_follow_their_seed(name):
    assert workloads.commands_for(name, 7) == workloads.commands_for(name, 7)
    assert workloads.commands_for(name, 7) != workloads.commands_for(name, 8)

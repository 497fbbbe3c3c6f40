"""The benchmark's tracer wraps esdurate functions by name from outside the
package; a rename inside the package would break `perfbench/run.py --trace 1`
without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name,function",
    [(module_name, fn) for _, module_name, functions in load_tracing().TRACED for fn in functions],
)
def test_every_traced_name_is_bound(module_name, function):
    assert callable(getattr(importlib.import_module(module_name), function))


def test_parser_class_is_bound():
    cli = importlib.import_module("esdurate.cli")
    assert callable(cli._CliParser.parse_args)


#: Every command that takes an exact ESDU rate, small enough to trace twice.
EXACT_COMMANDS = (
    ["bc-inner", "--mode", "exact", "--peak-db", "10", "--sigma2-ratio", "3", "--delta0-grid", "1,3",
     "--format", "json"],
    ["p2p-bounds", "--peak-db", "0,7.5", "--delta0", "0.5"],
    ["esdu-rate", "--span", "3.7", "--levels", "8", "--sigma", "0.3", "--mc-samples", "10000"],
    ["verify", "--peak-db-grid", "0,10", "--sigma-ratios", "2", "--delta0-grid", "1,3", "--rho-steps", "51"],
)


def test_traced_exact_sweep_counts_pairs_of_1d_atoms(monkeypatch, capsys):
    # the atom_pairs counter reads nodes x atoms.size: right only for 1-D
    # atoms; and every ESDU rate goes through one path, the integer alphabet
    tracing = load_tracing()
    count_density = tracing.HOOKS["oracle.mixture_log_pdf"]
    atoms_seen = []

    def checking(tracer, args, kwargs, result):
        atoms_seen.append((args[0].atoms, tracer.is_open("oracle.mi_discrete")))
        count_density(tracer, args, kwargs, result)

    monkeypatch.setitem(tracing.HOOKS, "oracle.mixture_log_pdf", checking)
    cli = importlib.import_module("esdurate.cli")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            tracer.active = True
            for argv in EXACT_COMMANDS:
                assert cli.main(argv + ["--timestamp", "2000-01-01T00:00:00Z"]) == 0
            tracer.active = False
            counts.append(tracing.pass_counts(tracer))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert counts[0] == counts[1]
    assert counts[0]["oracle.mixture_log_pdf.calls"] == len(atoms_seen) // 2 > 0
    assert all(atoms.ndim == 1 for atoms, _ in atoms_seen)
    quadrature = [atoms for atoms, in_mi_discrete in atoms_seen if in_mi_discrete]
    assert 0 < len(quadrature) < len(atoms_seen)  # the Monte-Carlo density calls are the rest
    assert all(atoms.tolist() == list(range(atoms.size)) for atoms in quadrature)

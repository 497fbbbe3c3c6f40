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


def test_traced_exact_sweep_counts_pairs_of_1d_atoms(monkeypatch, capsys):
    # the atom_pairs counter reads nodes x atoms.size: right only for 1-D atoms
    tracing = load_tracing()
    count_density = tracing.HOOKS["oracle.mixture_log_pdf"]
    atom_shapes = []

    def checking(tracer, args, kwargs, result):
        atom_shapes.append(args[0].atoms.shape)
        count_density(tracer, args, kwargs, result)

    monkeypatch.setitem(tracing.HOOKS, "oracle.mixture_log_pdf", checking)
    cli = importlib.import_module("esdurate.cli")
    argv = ["bc-inner", "--mode", "exact", "--peak-db", "10", "--sigma2-ratio", "3", "--delta0-grid", "1,3",
            "--format", "json", "--timestamp", "2000-01-01T00:00:00Z"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            tracer.active = True
            assert cli.main(argv) == 0
            tracer.active = False
            counts.append(tracing.pass_counts(tracer))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert counts[0] == counts[1]
    assert counts[0]["oracle.mixture_log_pdf.calls"] == len(atom_shapes) // 2 > 0
    assert all(len(shape) == 1 for shape in atom_shapes)

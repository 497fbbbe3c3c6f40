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

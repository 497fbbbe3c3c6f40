"""Traced passes: spans and counters at the public functions of each esdurate
module, recorded from outside the package.

Every module attribute that is bound to a traced function is replaced by one
shared wrapper (``mi_discrete``, for one, is bound in ``esdurate.oracle``,
``esdurate.region``, ``esdurate.cli`` and ``esdurate``), and ``uninstall``
puts the originals back.  A span records its name, start, end, parent span and
command id; spans are kept in memory in flat arrays.  Self time is a span's
duration minus the time its child spans cover.  The scalar helpers of
``esdurate.special`` are not wrapped: their time counts as self time of the
bound that calls them.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array

#: (layer, module, functions).  Span names are "<layer>.<function>".
TRACED = (
    ("cli", "esdurate.cli", ("main", "build_parser", "_write")),
    ("esdu", "esdurate.esdu", ("xi", "f1", "f2", "f3", "f_lower", "owb", "g_prime", "g_upper")),
    ("uniform", "esdurate.uniform", ("c_lower", "c_upper", "e_cap")),
    ("oracle", "esdurate.oracle", ("mixture_log_pdf", "mi_discrete", "mi_uniform", "mi_monte_carlo")),
    ("region", "esdurate.region", (
        "sweep_inner", "split_schedule", "analytic_inner_point", "exact_inner_point",
        "frontier_hull", "outer_region",
    )),
    ("verify", "esdurate.verify", (
        "run_verification", "sandwich_checks", "dominance_checks", "containment_checks",
    )),
)
LAYERS = tuple(layer for layer, _, _ in TRACED)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_density(tracer, args, kwargs, result):
    nodes = int(getattr(_arg(args, kwargs, 2, "y"), "size", 1))
    atoms = int(_arg(args, kwargs, 0, "inp").atoms.size)
    tracer.counters["oracle.mixture_log_pdf.nodes"] += nodes
    tracer.counters["oracle.mixture_log_pdf.atom_pairs"] += nodes * atoms
    if tracer.is_open("oracle.mi_discrete"):
        tracer.counters["oracle.mi_discrete.nodes"] += nodes


def _count_samples(tracer, args, kwargs, result):
    tracer.counters["oracle.mi_monte_carlo.samples"] += int(_arg(args, kwargs, 2, "samples"))


def _count_cells(tracer, args, kwargs, result):
    tracer.counters["region.sweep_cells"] += len(result)


def _count_checks(tracer, args, kwargs, result):
    tracer.counters["verify.checks"] += int(result["summary"]["total"])


#: Counters read off a call's arguments or result, after it returns.
HOOKS = {
    "oracle.mixture_log_pdf": _count_density,
    "oracle.mi_monte_carlo": _count_samples,
    "region.split_schedule": _count_cells,
    "verify.run_verification": _count_checks,
}


class Tracer:
    """Span recorder; inactive (a plain call-through) until ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []
        self.active = False
        self.command = -1
        self.reset()

    def reset(self) -> None:
        """Drop the spans and totals of the previous pass."""
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_command = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        size = len(self.names)
        self.calls = [0] * size
        self.total = [0.0] * size
        self.self_time = [0.0] * size
        self.depth = [0] * size
        self.counters: dict[str, int] = {}
        for name in ("oracle.mixture_log_pdf.nodes", "oracle.mixture_log_pdf.atom_pairs",
                     "oracle.mi_discrete.nodes", "oracle.mi_monte_carlo.samples",
                     "region.sweep_cells", "verify.checks"):
            self.counters[name] = 0
        self._stack: list[list] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.total, self.self_time, self.depth):
                column.append(0)
        return self._ids[name]

    def is_open(self, name: str) -> bool:
        return self.depth[self._ids[name]] > 0

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_command.append(tracer.command)
            tracer.depth[nid] += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.span_end[index] = end
                tracer.depth[nid] -= 1
                tracer.calls[nid] += 1
                tracer.total[nid] += duration
                tracer.self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding site of every traced function."""
        wrappers = {}
        for layer, module_name, functions in TRACED:
            module = importlib.import_module(module_name)
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn_name}"))
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "esdurate" and not module_name.startswith("esdurate."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value, True))
                    setattr(module, attr, entry[1])
        # argument parsing happens in a method the CLI inherits from argparse
        cli = sys.modules["esdurate.cli"]
        parser_class = cli._CliParser
        original = parser_class.parse_args
        self._patches.append((parser_class, "parse_args", original, "parse_args" in vars(parser_class)))
        parser_class.parse_args = self._wrap(original, "cli.parse_args")
        self.reset()

    def uninstall(self) -> None:
        for owner, attr, original, was_own in reversed(self._patches):
            if was_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def self_of(self, name: str) -> float:
        return self.self_time[self._ids[name]]

    def total_of(self, name: str) -> float:
        return self.total[self._ids[name]]

    def layer_sum(self, layer: str, column) -> float:
        prefix = layer + "."
        return sum(v for name, v in zip(self.names, column) if name.startswith(prefix))

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped CSV, one row per span, times
        in microseconds from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as out:
            out.write("span,name,parent,command,start_us,end_us\n")
            for index, (nid, parent, command, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_command, self.span_start, self.span_end)):
                out.write(f"{index},{self.names[nid]},{parent},{command},"
                          f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n")


#: Counts that must repeat exactly between traced passes and between runs.
DETERMINISTIC = (
    "oracle.mixture_log_pdf.calls", "oracle.mixture_log_pdf.nodes",
    "oracle.mixture_log_pdf.atom_pairs", "oracle.mi_discrete.calls", "oracle.mi_discrete.nodes",
    "oracle.mi_monte_carlo.samples", "oracle.mi_uniform.calls",
    "esdu.bound_calls", "uniform.bound_calls",
    "region.sweep_cells", "region.split_evals", "verify.checks", "trace.spans",
)


def pass_counts(tracer: Tracer) -> dict:
    """The deterministic counts of the traced pass just run."""
    counts = dict(tracer.counters)
    for name in ("oracle.mixture_log_pdf", "oracle.mi_discrete", "oracle.mi_uniform"):
        counts[name + ".calls"] = tracer.calls_of(name)
    for layer in ("esdu", "uniform"):
        counts[layer + ".bound_calls"] = int(tracer.layer_sum(layer, tracer.calls))
    counts["region.split_evals"] = (
        tracer.calls_of("region.analytic_inner_point") + tracer.calls_of("region.exact_inner_point")
    )
    counts["trace.spans"] = len(tracer.span_start)
    return {name: counts[name] for name in DETERMINISTIC}


def pass_times(tracer: Tracer, wall: float) -> dict:
    """Self times (seconds) of the traced pass just run, by function and by layer."""
    times = {
        "cli.parse_s": tracer.total_of("cli.build_parser") + tracer.total_of("cli.parse_args"),
        "cli.emit_s": tracer.total_of("cli._write"),
        "esdu.bound_s": tracer.layer_sum("esdu", tracer.self_time),
        "uniform.bound_s": tracer.layer_sum("uniform", tracer.self_time),
        "harness.self_s": wall - tracer.total_of("cli.main"),
        "trace.wall_s": wall,
    }
    for name in ("oracle.mixture_log_pdf", "oracle.mi_discrete", "oracle.mi_monte_carlo",
                 "oracle.mi_uniform", "region.exact_inner_point", "region.analytic_inner_point",
                 "region.frontier_hull", "region.outer_region", "verify.run_verification"):
        times[name + ".self_s"] = tracer.self_of(name)
    for layer in LAYERS:
        times[layer + ".self_s"] = tracer.layer_sum(layer, tracer.self_time)
    times["oracle.share"] = times["oracle.self_s"] / wall
    return times


def derived(counts: dict) -> dict:
    """Quantities computed from the counts (labelled as computed in README.md)."""
    calls = counts["oracle.mi_discrete.calls"]
    cells = counts["region.sweep_cells"]
    return {
        "oracle.mi_discrete.nodes_per_call": counts["oracle.mi_discrete.nodes"] / calls if calls else 0.0,
        "region.split_reuse": 1.0 - counts["region.split_evals"] / cells if cells else 0.0,
    }

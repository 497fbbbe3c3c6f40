"""esdurate benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload bc-exact --seed 0 --seconds 30 --trace 0

Runs the workload's command list in-process through ``esdurate.cli.main``:
a first pass whose outputs are checked (invariants and recorded seed-commit
values), then timed passes until ``--seconds`` have gone by.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
traced passes interleaved with untraced ones.  The metric names and units are
those of BENCHMARK.json.  The last line of stdout is the result as one JSON
object; a longer record (environment, commands, every pass, every problem) is
written under perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checks
import harness
import tracing
import workloads

BENCHMARK = harness.ROOT / "BENCHMARK.json"
RESULTS = harness.ROOT / "perfbench" / "results"

#: Fresh interpreters timed for setup_s; one more runs first and is dropped,
#: so compiling the package's bytecode in a new checkout is not counted.
SETUP_LAUNCHES = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import esdurate.cli; esdurate.cli.build_parser()"
)
#: Timed passes a run makes at least, whatever --seconds says.
MIN_PASSES = 3
#: A run starts no new pass after this many seconds once it has one of each
#: kind, so that even a slow pass ends it within 180 s.
HARD_STOP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median wall time from launching a fresh interpreter to esdurate.cli
    imported and its parser built."""
    command = [sys.executable, "-c", SETUP_CODE.format(src=str(harness.SRC))]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(command, cwd=harness.ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def environment(args, commands) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_variables": {name: os.environ.get(name) for name in harness.THREAD_VARIABLES},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [checks.command_key(argv) for argv in commands],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads, and inherited by the set-up launches
    os.environ.update({name: "1" for name in harness.THREAD_VARIABLES})
    spec = json.loads(BENCHMARK.read_text())
    try:
        cli = harness.import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import esdurate: {exc}", file=sys.stderr)
        return 2

    commands = workloads.commands_for(args.workload, args.seed)
    env = environment(args, commands)
    setup_s = None if args.trace else measure_setup()

    start = time.perf_counter()
    first, first_wall = harness.run_pass(cli, commands)
    problems = checks.check_commands(first, lambda aux: harness.run_command(cli, aux))
    compared = checks.check_reference(first, problems, checks.load_reference())
    expected = [(r.exit_code, r.stdout) for r in first]
    emit_bytes = sum(len(r.stdout.encode("utf-8")) for r in first)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    walls = {"untraced": [], "traced": []}
    traced_counts, traced_times = [], []
    attempted = len(commands)
    failed = sum(1 for p in problems if p)
    while True:
        elapsed = time.perf_counter() - start
        estimate = statistics.median([first_wall] + walls["untraced"] + walls["traced"])
        done = len(walls["untraced"]) >= MIN_PASSES and (tracer is None or len(walls["traced"]) >= 2)
        some = walls["untraced"] and (tracer is None or walls["traced"])
        if (done and elapsed + estimate > args.seconds) or (some and elapsed > HARD_STOP_S):
            break
        traced = tracer is not None and len(walls["traced"]) < len(walls["untraced"])
        if traced:
            tracer.reset()
            tracer.active = True
        results, wall = harness.run_pass(cli, commands, tracer if traced else None)
        if traced:
            tracer.active = False
            traced_counts.append(tracing.pass_counts(tracer))
            traced_times.append(tracing.pass_times(tracer, wall))
        walls["traced" if traced else "untraced"].append(wall)
        attempted += len(results)
        for index, result in enumerate(results):
            if (result.exit_code, result.stdout) != expected[index]:
                label = "traced" if traced else "repeated"
                detail = f"{label} pass output differs from the first pass"
                if ("determinism", detail) not in problems[index]:
                    problems[index].append(("determinism", detail))
            failed += bool(problems[index])

    known = all(not p or checks.is_known(argv, p) for argv, p in zip(commands, problems))
    repeatable = all(counts == traced_counts[0] for counts in traced_counts)
    correct = known and repeatable
    wall_s = statistics.median(walls["untraced"])
    if tracer is None:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"
    else:
        tracer.uninstall()
        values = dict(traced_counts[0])
        values.update(tracing.derived(traced_counts[0]))
        for name in traced_times[0]:
            values[name] = statistics.median(times[name] for times in traced_times)
        values["cli.emit_bytes"] = emit_bytes
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        section = "per_layer"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "reference_values_compared": compared,
        "pass_walls_s": {"first": first_wall, **walls},
        "counts_repeat_across_traced_passes": repeatable if tracer is not None else None,
        "problems": {checks.command_key(argv): p for argv, p in zip(commands, problems) if p},
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    print(f"# python={env['python']} numpy={env['numpy']} cpu={env['cpu_model']!r} nproc={env['nproc']}")
    print(f"# workload={args.workload} seed={args.seed} commands={len(commands)} "
          f"passes={1 + len(walls['untraced']) + len(walls['traced'])} "
          f"reference values compared={compared}")
    for key, found in record["problems"].items():
        for check, detail in found:
            print(f"# FAILED {key}: [{check}] {detail}")
    print(f"# failed_frac = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

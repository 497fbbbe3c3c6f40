"""Runs esdurate CLI commands in this process and captures what they print.

Every command goes through the public entry point ``esdurate.cli.main(argv)``,
so a pass pays for argument parsing, computation and emission exactly as a
user's command does, minus interpreter start and import (reported on their own
as ``setup_s``).  The package is imported from the checkout's ``src`` tree,
never from an installed copy.
"""

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Thread-pool variables of the BLAS and OpenMP runtimes numpy may load.  The
#: benchmark is single-threaded by design; pinning them keeps a library pool
#: from competing with the measured thread on a small machine.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_cli():
    """Import esdurate.cli from the checkout; raises ImportError without it."""
    if not (SRC / "esdurate" / "cli.py").is_file():
        raise ImportError(f"no esdurate sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import esdurate.cli

    return esdurate.cli


@dataclass
class CommandResult:
    argv: tuple
    exit_code: int
    stdout: str
    stderr: str


def run_command(cli, argv) -> CommandResult:
    """Run one command through cli.main with stdout and stderr captured.

    argparse reports usage errors by raising SystemExit, which is turned back
    into the exit code a shell would see; any other exception is recorded as
    exit code -1 with its traceback on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = -1
    return CommandResult(tuple(argv), code, out.getvalue(), err.getvalue())


def run_pass(cli, commands, tracer=None) -> tuple[list[CommandResult], float]:
    """Run every command once, in order; returns the results and the wall time.

    With a tracer, each command's spans carry the command's index in the list.
    """
    results = []
    start = time.perf_counter()
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        results.append(run_command(cli, argv))
    return results, time.perf_counter() - start

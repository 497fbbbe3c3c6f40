"""Record the reference values the output checks compare against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and writes every
recordable value (bound-table rows, Monte-Carlo rows, region vertices,
verify margins) to perfbench/reference.json.  The committed file was written
from the seed commit of the benchmark; rerunning it on a later commit would
make the benchmark compare that commit with itself.
"""

import json

import checks
import harness
import workloads


def main() -> None:
    cli = harness.import_cli()
    reference = {}
    for name in workloads.WORKLOADS:
        results, _ = harness.run_pass(cli, workloads.commands_for(name, workloads.DEFAULT_SEED))
        for result in results:
            if result.exit_code != 0:
                raise SystemExit(f"{checks.command_key(result.argv)} exited {result.exit_code}")
            reference.update(checks.reference_items(result))
    checks.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(reference)} reference items written to {checks.REFERENCE}")


if __name__ == "__main__":
    main()

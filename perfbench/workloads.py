"""The benchmark's workloads: each turns a seed into a list of CLI argv lists.

The program sees only the argv.  Seeds move the inputs within fixed strata, so
two seeds exercise different channels while a pass costs about the same; the
strata, not the seed, decide which layer a workload stresses (see README.md).
"""

import math
import random

#: Pins the manifest's only non-deterministic field, so reruns and traced
#: passes can be compared byte for byte.
TIMESTAMP = "2000-01-01T00:00:00Z"

DEFAULT_SEED = 0


def _num(value: float, digits: int) -> str:
    return f"{round(value, digits):g}"


def bc_exact(rng: random.Random) -> list[list[str]]:
    """Oracle-exact inner regions, default delta0 grid, one channel per stratum.

    Each stratum is (dB, sigma2/sigma1).  The seed moves the SNR by up to
    0.1 dB and the noise ratio by up to 5%, which changes every exact rate
    but keeps the split schedule, and so the cost of a pass, nearly fixed.
    """
    strata = ((15.0, 2.0), (16.0, 4.0), (17.0, 6.0), (18.5, 10.0))
    commands = []
    for db, ratio in strata:
        db += rng.uniform(-0.1, 0.1)
        ratio *= math.exp(rng.uniform(-0.05, 0.05))
        commands.append([
            "bc-inner", "--mode", "exact", "--peak-db", _num(db, 3),
            "--sigma2-ratio", _num(ratio, 3), "--format", "json",
        ])
    rng.shuffle(commands)
    return commands


#: The broadcast lattice: every even dB from 0 to 30 times four noise ratios.
BC_ANALYTIC_DB = tuple(range(0, 31, 2))
BC_ANALYTIC_RATIOS = (1.5, 2.0, 5.0, 10.0)


def bc_analytic(rng: random.Random) -> list[list[str]]:
    """Analytic inner and outer regions over the fixed lattice, JSON output.

    The lattice is the paper's grid and holds the channel with the known
    containment defect (30 dB, sigma2/sigma1 = 2), so it is not drawn from
    the seed; the seed sets the order the 128 commands run in.
    """
    commands = []
    for db in BC_ANALYTIC_DB:
        for ratio in BC_ANALYTIC_RATIOS:
            channel = ["--peak-db", _num(db, 3), "--sigma2-ratio", _num(ratio, 3), "--format", "json"]
            commands.append(["bc-inner", *channel])
            commands.append(["bc-outer", *channel])
    rng.shuffle(commands)
    return commands


def p2p_large_k(rng: random.Random) -> list[list[str]]:
    """Large alphabets on the point-to-point channel.

    A bound table that always ends at 30 dB (K = 2001, the largest dense
    oracle call) with one seed-drawn SNR from each 5 dB band below 20 dB;
    a 1e6-sample Monte-Carlo cross-check at small K (the density on
    unsorted samples); and verify on its default grid (mi_uniform).
    """
    dbs = [_num(rng.uniform(lo, lo + 5.0), 2) for lo in (0.0, 5.0, 10.0, 15.0)] + ["30"]
    span = _num(rng.uniform(6.0, 14.0), 3)
    levels = str(rng.randint(18, 24))
    mc_seed = str(rng.randrange(2**31))
    commands = [
        ["p2p-bounds", "--peak-db", ",".join(dbs), "--delta0", "0.5"],
        ["esdu-rate", "--span", span, "--levels", levels, "--mc-samples", "1000000", "--seed", mc_seed],
        ["verify"],
    ]
    rng.shuffle(commands)
    return commands


WORKLOADS = {
    "bc-exact": bc_exact,
    "bc-analytic": bc_analytic,
    "p2p-large-k": p2p_large_k,
}


def commands_for(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv lists for this seed, each with the pinned timestamp."""
    rng = random.Random(f"{workload}:{seed}")
    return [argv + ["--timestamp", TIMESTAMP] for argv in WORKLOADS[workload](rng)]

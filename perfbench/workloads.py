"""Campaign workloads: the argv lists each benchmark run feeds to the CLI.

A workload is a *mix*: a list of CLI campaigns, each run once per *round*.
Seeded campaigns get their ``--seed`` from a pool of ``pool_rounds`` seed
sets drawn from the workload seed; round ``r`` uses set ``r % pool_rounds``,
so every argv repeats once the pool wraps round and its report body can be
compared byte for byte with the earlier run.  The order of the campaigns
inside a round is shuffled from the workload seed as well.  The package only
ever sees the generated argv lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Campaign:
    """One entry of a mix: CLI arguments without ``--seed``."""

    args: tuple[str, ...]
    seeded: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: tuple[Campaign, ...]
    # Seed sets in the pool; a run makes at least this many rounds so the
    # body digest always covers the whole pool.
    pool_rounds: int
    # Tiny campaigns run during set-up to load every code path once.
    warmup: tuple[tuple[str, ...], ...]
    # Untimed campaigns that show a known defect.  Each run reports their
    # verdicts and counts them in failed_frac, but never times them and
    # leaves them out of the attempted and failed counts of the result line.
    probes: tuple[Campaign, ...]
    # op_tail_ms is this latency percentile: the highest one that keeps at
    # least ten samples beyond it at the benchmark's run length, also when a
    # slowed 2-CPU host completes fewer operations.
    tail_percentile: int


def _shift(group: str, form: str, trials: int) -> Campaign:
    return Campaign(("verify-shift", "--group", group, "--form", form,
                     "--trials", str(trials)))


def _gauss(form: str, radius: int) -> Campaign:
    return Campaign(("verify-gaussian", "--trials", "2", "--form", form,
                     "--radius", str(radius)))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="shift-small",
        why=("verify-shift, 20 trials, on groups of at most 25 elements: "
             "per-call overhead (Endo, adjoints, rejection sampling, JSON) "
             "dominates; tail is p97 of ~500 ops"),
        mix=(_shift("7", "I", 20), _shift("11", "I", 20),
             _shift("13", "I", 20), _shift("4x3", "II", 20),
             _shift("5x5", "II", 20)),
        pool_rounds=16,
        warmup=(("verify-shift", "--group", "5", "--trials", "1"),
                ("verify-shift", "--group", "2x3", "--form", "II",
                 "--trials", "1")),
        probes=(),
        tail_percentile=97,
    ),
    Workload(
        name="shift-large",
        why=("verify-shift on Z1021 and Z30xZ50 plus the Poisson pair on "
             "Z30xZ50: dense n x n tables, char_array and shift recovery "
             "dominate; tail is p75 of ~45 ops"),
        mix=(_shift("1021", "I", 1), _shift("30x50", "II", 1),
             Campaign(("counterexample", "--kind", "poisson-pair",
                       "--group", "30x50"))),
        pool_rounds=4,
        warmup=(("verify-shift", "--group", "5", "--trials", "1"),
                ("counterexample", "--kind", "poisson-pair", "--group", "6")),
        probes=(),
        tail_percentile=75,
    ),
    Workload(
        name="gaussian-window",
        why=("verify-gaussian, forms I and II at radius 60 and 160: exact "
             "Fraction windows and funceq window paths, no finite group; "
             "radius-200 probe reported apart; tail is p80 of ~55 ops"),
        # Radius 160 appears twice per round so that the median falls inside
        # the radius-160 latencies instead of on the gap between the sizes.
        mix=(_gauss("I", 60), _gauss("II", 60), _gauss("I", 160),
             _gauss("II", 160), _gauss("I", 160), _gauss("II", 160)),
        pool_rounds=4,
        warmup=(("verify-gaussian", "--trials", "1", "--radius", "20"),
                ("verify-gaussian", "--trials", "1", "--radius", "20",
                 "--form", "II")),
        probes=(_gauss("I", 200),),
        tail_percentile=80,
    ),
    Workload(
        name="invariants-sweep",
        why=("invariants on 2..12, 30, 4x8, 5x7, 6x6 and the Bernstein table "
             "on 6x6 and 4x6: funceq pair loops over Group.add and "
             "endomorphism kernels dominate; tail is p65 of ~30 ops"),
        mix=tuple(Campaign(("invariants", "--groups", g))
                  for g in ("2..12", "30", "4x8", "5x7", "6x6"))
        + tuple(Campaign(("counterexample", "--kind", "bernstein",
                          "--group", g), seeded=False)
                for g in ("6x6", "4x6")),
        pool_rounds=4,
        warmup=(("invariants", "--groups", "2..4"),
                ("counterexample", "--kind", "bernstein", "--group", "2x2")),
        probes=(),
        tail_percentile=65,
    ),
)}


def _argv(campaign: Campaign, seed: int) -> tuple[str, ...]:
    if campaign.seeded:
        return (*campaign.args, "--seed", str(seed))
    return campaign.args


class ArgvPlan:
    """The argv lists of one workload for one workload seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        k, m = workload.pool_rounds, len(workload.mix)
        seeds = rng.integers(0, 2**31 - 1, size=(k, m))
        self.pool = [[_argv(c, int(s)) for c, s in zip(workload.mix, row)]
                     for row in seeds]
        probe_seeds = rng.integers(0, 2**31 - 1, size=len(workload.probes))
        self.probes = [_argv(c, int(s))
                       for c, s in zip(workload.probes, probe_seeds)]

    def round(self, r: int) -> list[tuple[str, ...]]:
        """The argv lists of round ``r``, in the round's shuffled order."""
        argvs = self.pool[r % self.workload.pool_rounds]
        order = np.random.default_rng([self.seed, 1, r]).permutation(
            len(argvs))
        return [argvs[i] for i in order]

    def distinct(self) -> list[tuple[str, ...]]:
        """Every argv of the pool once, in pool order."""
        seen = dict.fromkeys(a for row in self.pool for a in row)
        return list(seen)

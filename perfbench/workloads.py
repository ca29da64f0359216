"""The benchmark's workloads: fixed, seeded trial lists run through the public API.

Each workload is one experiment protocol with a fixed trial list.  The list
depends only on the workload and the harness seed (passed to the program as
the experiment's master seed), so two commits measured at one seed do
identical work.  Every workload exercises some ROADMAP items and bypasses
others; the bypassing workloads are where a change predicts "no change".

xyz-pairwise
    The fig10 draws (xyz-or-ab, 20/12 disjoint splits, scope xyz20x1000,
    1000 trials), emitting pairwise_all, pairwise_min and policy.  Many small
    trials (a few ms each): the numpy histogram DP is ~95% of a trial and the
    draw ~3%.  The emit is ~0.5 s, half of it stats.pairwise(all).  It never
    touches the stream enumerator, so it is where per-trial fixed costs and
    the stats reductions show.  Exercises items 2 and 4 (histogram DP);
    bypasses item 3 (path bins).

mux6-cap8
    The fig13 cap8 leg (mux6, 20-row train, node cap 8, 340 trials).  Few,
    deep DPs (~40-60 ms, ~1.6k memoized solves per trial) and the largest
    peak memory; convolution and memo work dominate and the emit is ~30 ms.
    Exercises items 2 (overflow bound), 4 (one recursion) and 5 (counters,
    cross-trial cache, whose memory cost would show in peak_rss_mb);
    bypasses item 3.

xyz-pathbins
    The fig9 draws (scope xyz20x100, path_bin_width 0.25; its 100 trials
    and the 100 that follow them in the same sequence, so that medians of
    lists drawn at different seeds differ less), which force the per-tree
    stream route: the only workload on iter_consistent and per-tree
    measurement.  The trials carry a node cap of 8.  Uncapped, a fig9
    trial walks 20k-50k trees in 2-6 s, so a run would hold a handful of
    trials whose sizes differ threefold between seeds and no end-to-end
    figure could repeat across seeds; with the cap a trial walks ~500 trees
    in ~0.1 s over the same draws and the same route.
    Every draw has a tree within the cap (30,000 draws checked: seeds 0-99,
    300 trials each); a cap of 7 leaves some draws without one.
    Exercises item 3 (algebraic path bins), which should make it far faster;
    the three DP workloads bypass item 3 and predict no change for it.  The
    cap and the trial count are sized for today's stream route.

xyz-wr-sums
    The fig8 protocol (31 rows drawn with replacement, a 1000-row test
    draw, error_hist off, 100 trials).  The only workload on the sums
    backend (also behind `forestscope enumerate`) and on the
    duplicate-weighted router; its draw is ~25% of a trial against ~3% on
    xyz-pairwise.  Exercises item 4 on the sums path, so that merging the
    three backends cannot regress it unseen; bypasses item 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from forestscope import (
    EnumerationLimits,
    SplitMix64,
    TrackOptions,
    derive_seed,
    instance_space,
    preset,
    sample_with_replacement,
    split_disjoint,
)
from forestscope.experiments import ExperimentConfig, resolve_source, select_legs


@dataclass(frozen=True)
class Workload:
    # trials re-run through run_trials (one worker, then a pool of two) in a
    # traced run, to time the runner and check it against the harness's draws
    runner_prefix: int
    # trials whose forest a traced run also walks with iter_consistent and
    # tree.metrics; only stream workloads have any
    stream_prefix: int = 0


WORKLOADS = {
    "xyz-pairwise": Workload(runner_prefix=300),
    "mux6-cap8": Workload(runner_prefix=40),
    "xyz-pathbins": Workload(runner_prefix=20, stream_prefix=20),
    "xyz-wr-sums": Workload(runner_prefix=100),
}


def config_for(name: str, seed: int) -> ExperimentConfig:
    """The workload's experiment, with the harness seed as master seed."""
    if name == "xyz-pairwise":
        config = replace(
            preset("fig10"), analyses=("pairwise_all", "pairwise_min", "policy")
        )
    elif name == "mux6-cap8":
        config = select_legs(preset("fig13"))
    elif name == "xyz-pathbins":
        config = preset("fig9")
        leg = replace(config.legs[0], max_nodes=8, trial_count=200)
        config = replace(config, legs=(leg,))
    elif name == "xyz-wr-sums":
        config = preset("fig8")
    else:
        raise KeyError(name)
    if len(config.legs) != 1 or config.split_mode not in ("disjoint", "with_replacement"):
        raise ValueError(f"{name}: the harness draws single-leg disjoint or with-replacement trials")
    return replace(config, master_seed=seed)


class TrialInputs:
    """Draws a workload's trials the way `run_trials` does, one at a time."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.leg = config.legs[0]
        self.scope = config.scope + (f":{self.leg.label}" if self.leg.label else "")
        self.data = resolve_source(config.source)
        self.population = (
            tuple(instance_space(self.data.schema))
            if config.path_bin_width is not None
            else None
        )
        self.limits = EnumerationLimits(
            max_nodes=self.leg.max_nodes, max_trees=config.max_trees
        )
        self.track = TrackOptions(
            error_hist=config.error_hist,
            leaf_hist=config.leaf_hist,
            path_bins=config.path_bin_width,
        )

    @property
    def trial_count(self) -> int:
        return self.leg.trial_count

    def seed(self, t: int) -> int:
        return derive_seed(self.config.master_seed, self.scope, t)

    def draw(self, t: int):
        """(train, test) of trial t, in the runner's fixed draw order."""
        rng = SplitMix64(self.seed(t))
        if self.config.split_mode == "with_replacement":
            train = sample_with_replacement(self.data, self.leg.n_train, rng)
            test = sample_with_replacement(self.data, self.config.test_size, rng)
            return train, test
        return split_disjoint(self.data, self.leg.n_train, rng)

    def summary_args(self):
        """Limits, population and tracking passed to forest_summary."""
        population = list(self.population) if self.population is not None else None
        return self.limits, population, self.track

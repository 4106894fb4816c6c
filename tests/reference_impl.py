"""Slow, straightforward local-search implementations used as test oracles.

These walk the same double loop as the production schedulers but solve
every interval with the Hungarian-based max_profit / configuration search
of ``oracles.matching``, keeping no incremental state. Pass a list as
``log`` to receive each commit's (weight, evicted weight), in the order of
``LocalSearchStats.commit_log``. Evicted weights are summed left to right
in start order, as the engine sums them, on every Python version.
"""

from oracles.matching import lsds_config_search, max_profit
from ofdmasched.local_search import _fold_sum
from ofdmasched.scheduling import Interval, conflicts


def reference_lsdsf(jobset, machines, txop, grid_us, horizon=None, log=None):
    horizon = jobset.horizon if horizon is None else horizon
    t_units = horizon // grid_us
    delta = min(txop // grid_us, t_units)
    committed = []  # (Interval, frozenset(job ids), weight)
    scheduled = set()
    for l in range(1, delta + 1):
        for t_idx in range(t_units - l + 1):
            interval = Interval(t_idx * grid_us, (t_idx + l) * grid_us)
            pool = [j for j in jobset.jobs if j.id not in scheduled]
            matching, matched = max_profit(pool, interval, machines)
            conflicting = sorted((c for c in committed if conflicts(c[0], interval)),
                                 key=lambda c: c[0].start)
            evicted_weight = _fold_sum(c[2] for c in conflicting)
            if matching.total_weight > 2 * evicted_weight:
                if log is not None:
                    log.append((matching.total_weight, evicted_weight))
                for c in conflicting:
                    committed.remove(c)
                    scheduled -= c[1]
                ids = frozenset(j.id for j in matched)
                committed.append((interval, ids, matching.total_weight))
                scheduled |= ids
    return committed, scheduled


def reference_lsds(jobset, channel_width, phy, txop, grid_us, horizon=None, log=None):
    horizon = jobset.horizon if horizon is None else horizon
    t_units = horizon // grid_us
    delta = min(txop // grid_us, t_units)
    committed = []  # (Interval, frozenset(job ids), weight, config)
    scheduled = set()
    for l in range(1, delta + 1):
        for t_idx in range(t_units - l + 1):
            interval = Interval(t_idx * grid_us, (t_idx + l) * grid_us)
            pool = [j for j in jobset.jobs if j.id not in scheduled]
            config, matching, matched = lsds_config_search(pool, interval, channel_width, phy)
            conflicting = sorted((c for c in committed if conflicts(c[0], interval)),
                                 key=lambda c: c[0].start)
            evicted_weight = _fold_sum(c[2] for c in conflicting)
            if matching.total_weight > 2 * evicted_weight:
                if log is not None:
                    log.append((matching.total_weight, evicted_weight))
                for c in conflicting:
                    committed.remove(c)
                    scheduled -= c[1]
                ids = frozenset(j.id for j in matched)
                committed.append((interval, ids, matching.total_weight, config))
                scheduled |= ids
    return committed, scheduled

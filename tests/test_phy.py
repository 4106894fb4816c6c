import hashlib

import numpy as np
import pytest

from ofdmasched.phy import (
    CHANNEL_WIDTHS,
    TONE_CLASSES,
    Machine,
    PhyProfile,
    RuConfiguration,
    RuToneClass,
    config_table,
    configuration_index,
    enumerate_configurations,
    full_26_tone_configuration,
    machines_for_configuration,
    root_tones,
    tx_duration,
    tx_duration_us,
)

from oracles.matching import MAX_RU_COUNTS
from oracles.rates import phy_rate

TONES = [26, 52, 106, 242, 484, 996]

# Independent re-derivation of the split grammar, used as the oracle for
# enumerate_configurations. Works on explicit sorted tone multisets.
SPLIT_ORACLE = {
    996: (484, 484, 26),
    484: (242, 242),
    242: (106, 106, 26),
    106: (52, 52),
    52: (26, 26),
}


def brute_force_configs(roots):
    seen = set()
    frontier = [tuple(sorted(roots))]
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        for i, tone in enumerate(state):
            if tone in SPLIT_ORACLE:
                nxt = state[:i] + state[i + 1:] + SPLIT_ORACLE[tone]
                frontier.append(tuple(sorted(nxt)))
    return seen


def as_multiset(config):
    out = []
    for tone, n in zip(TONES, config.counts):
        out.extend([tone] * n)
    return tuple(sorted(out))


def test_exactly_six_tone_classes_totally_ordered():
    assert [int(c) for c in RuToneClass] == TONES
    assert sorted(RuToneClass) == list(RuToneClass)


def test_max_ru_counts_table_rows():
    # RuConfiguration takes each maximum of the oracle's table and refuses
    # one more; the enumeration reaches every maximum
    for width, maxima in MAX_RU_COUNTS.items():
        configs = enumerate_configurations(width)
        for k, n in enumerate(maxima):
            counts = [0] * len(TONES)
            counts[k] = n
            RuConfiguration(tuple(counts), width)
            counts[k] = n + 1
            with pytest.raises(ValueError):
                RuConfiguration(tuple(counts), width)
            assert max(c.counts[k] for c in configs) == n
    with pytest.raises(ValueError):
        RuConfiguration((0,) * len(TONES), 60)


def test_enumerate_20mhz_matches_brute_force():
    got = {as_multiset(c) for c in enumerate_configurations(20)}
    want = brute_force_configs([242])
    assert got == want
    # regression constant, computed once from the oracle above
    assert len(got) == 10
    assert (242,) in got
    assert tuple([26] * 9) in got


def test_enumerate_matches_brute_force_all_widths():
    roots = {20: [242], 40: [484], 80: [996], 160: [996, 996]}
    sizes = {}
    for width, root in roots.items():
        got = {as_multiset(c) for c in enumerate_configurations(width)}
        assert got == brute_force_configs(root)
        sizes[width] = len(got)
    # frozen counts; 40 MHz also matches the search-space size quoted for
    # the implementation heuristic
    assert sizes == {20: 10, 40: 36, 80: 202, 160: 1827}


def test_configurations_respect_table_and_budget():
    for width in CHANNEL_WIDTHS:
        table = MAX_RU_COUNTS[width]
        budget = root_tones(width)
        for config in enumerate_configurations(width):
            assert sum(n * tone for n, tone in zip(config.counts, TONES)) <= budget
            assert all(n <= most for n, most in zip(config.counts, table))


def test_split_closure_at_20mhz():
    configs = {as_multiset(c) for c in enumerate_configurations(20)}
    for state in configs:
        for i, tone in enumerate(state):
            if tone in SPLIT_ORACLE:
                child = tuple(sorted(state[:i] + state[i + 1:] + SPLIT_ORACLE[tone]))
                assert child in configs


def test_configuration_rejects_overfull_counts():
    with pytest.raises(ValueError):
        RuConfiguration((10, 0, 0, 0, 0, 0), 20)
    with pytest.raises(ValueError, match="malformed counts"):
        RuConfiguration((1, 0, 0, 0, 0), 40)
    with pytest.raises(ValueError):
        enumerate_configurations(30)


@pytest.mark.parametrize("mcs", [-1, 12])
def test_mcs_outside_the_table_rejected(mcs):
    with pytest.raises(ValueError, match=f"mcs out of range: {mcs}"):
        PhyProfile(mcs=mcs)


def test_configuration_index_round_trip():
    for width in CHANNEL_WIDTHS:
        for i, config in enumerate(enumerate_configurations(width)):
            assert configuration_index(config) == i


@pytest.mark.parametrize("width", CHANNEL_WIDTHS)
def test_configurations_strictly_increase_in_id_order(width):
    keys = [(c.total_rus, c.counts) for c in enumerate_configurations(width)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_160mhz_configuration_order_is_pinned():
    # configuration ids fix the first-row tie rule of the engine and the
    # baselines, so their order must not move
    counts = [c.counts for c in enumerate_configurations(160)]
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == \
        "8cfe7da9b4bc4dc18efad865e0f084445618bcc811eed2af87a0c766a57ab485"


@pytest.mark.parametrize("width", CHANNEL_WIDTHS)
def test_config_table_matches_a_per_configuration_build(width):
    table = config_table(width)
    configs = enumerate_configurations(width)
    assert table.configs == configs
    assert list(table.index.items()) == [(c.counts, i) for i, c in enumerate(configs)]
    counts = np.array([c.counts for c in configs], dtype=np.int64)
    suffix = np.array([[sum(c.counts[k:]) for k in range(len(TONE_CLASSES))]
                       for c in configs], dtype=np.int64)
    class_mat = np.full((len(configs), max(c.total_rus for c in configs)), -1, dtype=np.int8)
    for i, cfg in enumerate(configs):
        classes = [TONE_CLASSES.index(cls) for cls in cfg.ru_classes_desc()]
        class_mat[i, :len(classes)] = classes
    for got, want in ((table.counts, counts), (table.suffix, suffix),
                      (table.class_mat, class_mat)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_phy_rate_anchors():
    default = PhyProfile()
    assert default.mcs == 11
    assert default.symbol_duration_ns == 16_000
    # peak single-RU rate at MCS 11: about 510 Mbps
    assert phy_rate(RuToneClass.RU996, default) == pytest.approx(510.4166, abs=1e-3)
    # 26-tone BPSK 1/2: 24 * 0.5 / 16us
    assert phy_rate(RuToneClass.RU26, PhyProfile(mcs=0)) == pytest.approx(0.75)


def test_phy_rate_doubles_from_26_to_52():
    for mcs in range(12):
        phy = PhyProfile(mcs=mcs)
        assert phy_rate(RuToneClass.RU52, phy) == pytest.approx(
            2 * phy_rate(RuToneClass.RU26, phy))


def test_phy_rate_strictly_increasing_in_tones():
    for mcs in (0, 5, 11):
        phy = PhyProfile(mcs=mcs)
        rates = [phy_rate(c, phy) for c in RuToneClass]
        assert all(a < b for a, b in zip(rates, rates[1:]))


def test_tx_duration_examples():
    phy = PhyProfile()
    # 100 B on 26-tone MCS 11: 800 bits at 200 bits/symbol -> 4 symbols
    assert tx_duration_us(100, RuToneClass.RU26, phy) == 64
    # exactly one symbol's worth of bits
    assert tx_duration_us(25, RuToneClass.RU26, phy) == 16
    machine = Machine(0, RuToneClass.RU26, phy)
    assert tx_duration(100, machine) == 64
    with pytest.raises(ValueError):
        tx_duration_us(0, RuToneClass.RU26, phy)


def test_tx_duration_monotone_and_no_undershoot():
    for mcs in range(12):
        phy = PhyProfile(mcs=mcs)
        for size in (1, 13, 100, 1500, 30000):
            durations = [tx_duration_us(size, c, phy) for c in RuToneClass]
            assert all(a >= b for a, b in zip(durations, durations[1:]))
            for cls, d in zip(RuToneClass, durations):
                assert d * phy_rate(cls, phy) + 1e-6 >= size * 8


def test_machines_for_configuration_widest_first():
    config = full_26_tone_configuration(20)
    machines = machines_for_configuration(config, PhyProfile())
    assert len(machines) == 9
    assert [m.id for m in machines] == list(range(9))
    assert all(m.bandwidth == 26 for m in machines)
    mixed = enumerate_configurations(20)[1]  # {1x26, 2x106}
    ms = machines_for_configuration(mixed, PhyProfile())
    assert [int(m.tone_class) for m in ms] == [106, 106, 26]

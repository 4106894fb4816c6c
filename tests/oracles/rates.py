"""Reference PHY rate of an RU class, from its own copy of the standard's tables.

``ofdmasched.phy`` computes durations in whole symbols from exact integer
ratios; the tests check those durations against the continuous rate here,
so a slip in either table shows as a duration that undershoots the rate.
"""

from ofdmasched.phy import PhyProfile, RuToneClass

# data (non-pilot) subcarriers per RU class, by tone count
DATA_SUBCARRIERS = {26: 24, 52: 48, 106: 102, 242: 234, 484: 468, 996: 980}

# per MCS: coded bits per subcarrier of the modulation, and the coding rate
MCS_TABLE = (
    (1, 1 / 2),    # 0: BPSK 1/2
    (2, 1 / 2),    # 1: QPSK 1/2
    (2, 3 / 4),    # 2: QPSK 3/4
    (4, 1 / 2),    # 3: 16-QAM 1/2
    (4, 3 / 4),    # 4: 16-QAM 3/4
    (6, 2 / 3),    # 5: 64-QAM 2/3
    (6, 3 / 4),    # 6: 64-QAM 3/4
    (6, 5 / 6),    # 7: 64-QAM 5/6
    (8, 3 / 4),    # 8: 256-QAM 3/4
    (8, 5 / 6),    # 9: 256-QAM 5/6
    (10, 3 / 4),   # 10: 1024-QAM 3/4
    (10, 5 / 6),   # 11: 1024-QAM 5/6
)


def phy_rate(tone_class: RuToneClass, phy: PhyProfile) -> float:
    """Effective PHY rate of an RU class, in bits per microsecond."""
    bits, coding = MCS_TABLE[phy.mcs]
    bits_per_symbol = DATA_SUBCARRIERS[int(tone_class)] * bits * coding
    return bits_per_symbol * 1000 / phy.symbol_duration_ns

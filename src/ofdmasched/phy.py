"""OFDMA resource-unit model: tone classes, legal RU configurations, PHY timing.

The legal configurations of a channel width are the RU multisets its
root RU(s) reach under the standard's split grammar; the most RUs of
each class a width holds follows from them. The enumeration packs each
count vector into one int, 7 bits per tone class, so splitting RUs side by
side sums ints; no class count passes 74 (160 MHz's 26-tone RUs), so no
field carries. The vectors are decoded once, in the (total RUs, counts)
order that fixes configuration ids. ``config_table`` and
``class_durations`` are the cached configuration arrays, ids and
per-class durations that the schedulers share; the validator derives
its durations from ``tx_duration`` on its own, as do the exact oracles
the tests check the schedulers against.

Time is kept on an integer microsecond grid throughout. Transmission
durations are whole OFDM symbols of a fixed 16 us (12.8 us of payload
plus a 3.2 us guard interval); symbol arithmetic uses exact integer
math so that durations never suffer float rounding at admissibility
boundaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = [
    "RuToneClass",
    "PhyProfile",
    "Machine",
    "RuConfiguration",
    "CHANNEL_WIDTHS",
    "enumerate_configurations",
    "configuration_index",
    "tx_duration",
    "tx_duration_us",
    "class_durations",
    "machines_for_configuration",
    "ConfigTable",
    "config_table",
    "full_26_tone_configuration",
    "root_tones",
]


class RuToneClass(IntEnum):
    """The six RU widths of the standard, by subcarrier (tone) count."""

    RU26 = 26
    RU52 = 52
    RU106 = 106
    RU242 = 242
    RU484 = 484
    RU996 = 996


TONE_CLASSES = tuple(RuToneClass)  # ascending by tones

CHANNEL_WIDTHS = (20, 40, 80, 160)

# Data (non-pilot) subcarriers per RU class.
DATA_SUBCARRIERS = {
    RuToneClass.RU26: 24,
    RuToneClass.RU52: 48,
    RuToneClass.RU106: 102,
    RuToneClass.RU242: 234,
    RuToneClass.RU484: 468,
    RuToneClass.RU996: 980,
}

# Bits per data subcarrier per symbol (modulation bits x coding rate),
# kept as exact (numerator, denominator) pairs. Index = MCS.
_MCS_BITS_PER_SUBCARRIER = (
    (1, 2),   # 0: BPSK 1/2
    (1, 1),   # 1: QPSK 1/2
    (3, 2),   # 2: QPSK 3/4
    (2, 1),   # 3: 16-QAM 1/2
    (3, 1),   # 4: 16-QAM 3/4
    (4, 1),   # 5: 64-QAM 2/3
    (9, 2),   # 6: 64-QAM 3/4
    (5, 1),   # 7: 64-QAM 5/6
    (6, 1),   # 8: 256-QAM 3/4
    (20, 3),  # 9: 256-QAM 5/6
    (15, 2),  # 10: 1024-QAM 3/4
    (25, 3),  # 11: 1024-QAM 5/6
)

# One OFDM symbol: 12.8 us of payload plus a 3.2 us guard interval.
_SYMBOL_NS = 16_000

# Root RU(s) that a channel of each width splits down from.
_CHANNEL_ROOTS = {
    20: (RuToneClass.RU242,),
    40: (RuToneClass.RU484,),
    80: (RuToneClass.RU996,),
    160: (RuToneClass.RU996, RuToneClass.RU996),
}

# Split grammar. 242- and 996-tone RUs split three ways (the extra
# 26-tone RU); the others split in two.
_SPLITS = {
    RuToneClass.RU996: (RuToneClass.RU484, RuToneClass.RU484, RuToneClass.RU26),
    RuToneClass.RU484: (RuToneClass.RU242, RuToneClass.RU242),
    RuToneClass.RU242: (RuToneClass.RU106, RuToneClass.RU106, RuToneClass.RU26),
    RuToneClass.RU106: (RuToneClass.RU52, RuToneClass.RU52),
    RuToneClass.RU52: (RuToneClass.RU26, RuToneClass.RU26),
}


def _check_width(channel_width: int) -> None:
    if channel_width not in CHANNEL_WIDTHS:
        raise ValueError(f"unsupported channel width: {channel_width} MHz; "
                         f"choose from {CHANNEL_WIDTHS}")


def root_tones(channel_width: int) -> int:
    """Total tones of the channel's root RU(s); the bandwidth budget B."""
    _check_width(channel_width)
    return sum(int(c) for c in _CHANNEL_ROOTS[channel_width])


@dataclass(frozen=True)
class PhyProfile:
    """Modulation settings shared by all stations."""

    mcs: int = 11

    def __post_init__(self):
        if not 0 <= self.mcs <= 11:
            raise ValueError(f"mcs out of range: {self.mcs}")

    @property
    def symbol_duration_ns(self) -> int:
        return _SYMBOL_NS


@dataclass(frozen=True)
class Machine:
    """One RU instance available within a batch."""

    id: int
    tone_class: RuToneClass
    phy: PhyProfile = field(default_factory=PhyProfile)

    @property
    def bandwidth(self) -> int:
        """Occupied bandwidth in tones (the knapsack unit)."""
        return int(self.tone_class)


def tx_duration_us(payload_bytes: int, tone_class: RuToneClass, phy: PhyProfile) -> int:
    """Transmission duration on an RU class in whole symbols, in microseconds."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    num, den = _MCS_BITS_PER_SUBCARRIER[phy.mcs]
    # symbols = ceil(bits / (subcarriers * num / den)), in integers
    symbols = -(-payload_bytes * 8 * den // (DATA_SUBCARRIERS[tone_class] * num))
    return symbols * _SYMBOL_NS // 1000


@functools.lru_cache(maxsize=None)
def class_durations(payload_bytes: int, phy: PhyProfile) -> tuple[int, ...]:
    """``tx_duration_us`` of a payload on every tone class, ascending."""
    return tuple(tx_duration_us(payload_bytes, c, phy) for c in TONE_CLASSES)


def tx_duration(payload_bytes: int, machine: Machine) -> int:
    """Processing time p_ij of a payload on a machine, in microseconds."""
    return tx_duration_us(payload_bytes, machine.tone_class, machine.phy)


@dataclass(frozen=True)
class RuConfiguration:
    """A legal multiset of RU classes for a channel width.

    ``counts`` is a 6-tuple aligned with ascending tone classes
    (26, 52, 106, 242, 484, 996).
    """

    counts: tuple[int, int, int, int, int, int]
    channel_width: int

    def __post_init__(self):
        _check_width(self.channel_width)
        if len(self.counts) != len(TONE_CLASSES) or any(c < 0 for c in self.counts):
            raise ValueError(f"malformed counts: {self.counts}")
        for cls, n, most in zip(TONE_CLASSES, self.counts, _max_counts(self.channel_width)):
            if n > most:
                raise ValueError(
                    f"{n} x {int(cls)}-tone exceeds the {self.channel_width} MHz maximum"
                )

    @property
    def total_rus(self) -> int:
        return sum(self.counts)

    def ru_classes_desc(self) -> list[RuToneClass]:
        """RU instances of this configuration, widest first."""
        out = []
        for cls, n in zip(reversed(TONE_CLASSES), reversed(self.counts)):
            out.extend([cls] * n)
        return out

    def __str__(self):
        parts = [f"{n}x{int(c)}" for c, n in zip(TONE_CLASSES, self.counts) if n]
        return "{" + ",".join(parts) + "}" if parts else "{}"


_FIELD_BITS = 7  # bits per tone class (ascending) of a packed count vector


@functools.lru_cache(maxsize=None)
def _split_keys(classes: tuple[RuToneClass, ...]) -> frozenset[int]:
    """Packed count vectors reachable by splitting each RU of ``classes`` on its own."""
    keys = {0}
    for cls in classes:
        own = {1 << _FIELD_BITS * TONE_CLASSES.index(cls)}
        if cls in _SPLITS:
            own |= _split_keys(_SPLITS[cls])
        keys = {a + b for a in keys for b in own}
    return frozenset(keys)


@functools.lru_cache(maxsize=None)
def _width_counts(channel_width: int) -> tuple[tuple[int, ...], ...]:
    """Count vectors of the channel's configurations, in (total RUs, counts) order."""
    _check_width(channel_width)
    mask = (1 << _FIELD_BITS) - 1
    shifts = range(0, _FIELD_BITS * len(TONE_CLASSES), _FIELD_BITS)
    counts = [tuple(key >> s & mask for s in shifts)
              for key in _split_keys(_CHANNEL_ROOTS[channel_width])]
    return tuple(sorted(counts, key=lambda c: (sum(c), c)))


@functools.lru_cache(maxsize=None)
def _max_counts(channel_width: int) -> tuple[int, ...]:
    """Most RUs of each tone class (ascending) that the channel holds."""
    return tuple(map(max, zip(*_width_counts(channel_width))))


@functools.lru_cache(maxsize=None)
def enumerate_configurations(channel_width: int) -> tuple[RuConfiguration, ...]:
    """All distinct RU configurations for a channel width, in id order.

    A configuration is a multiset the channel's root RU(s) reach by
    recursive splitting; ids follow fewer RUs first, then counts.
    """
    return tuple(RuConfiguration(c, channel_width) for c in _width_counts(channel_width))


def configuration_index(config: RuConfiguration) -> int:
    """Stable id of a configuration within its channel width."""
    try:
        return config_table(config.channel_width).index[config.counts]
    except KeyError:
        raise ValueError(f"{config} is not a legal {config.channel_width} MHz configuration")


def full_26_tone_configuration(channel_width: int) -> RuConfiguration:
    """The all-26-tone split (the widest-parallelism configuration)."""
    _check_width(channel_width)
    counts = [0] * len(TONE_CLASSES)
    counts[0] = _max_counts(channel_width)[0]
    return RuConfiguration(tuple(counts), channel_width)


def machines_for_configuration(config: RuConfiguration, phy: PhyProfile) -> list[Machine]:
    """Machine instances for a configuration, widest RU first, ids 0..M-1."""
    return [
        Machine(id=i, tone_class=cls, phy=phy)
        for i, cls in enumerate(config.ru_classes_desc())
    ]


class ConfigTable:
    """The legal configurations of one channel width, as arrays.

    ``index`` maps a configuration's counts to its id i, ``counts[i]``
    holds its RU count per tone class (ascending) and ``suffix[i, k]``
    its count of RUs of class k or wider; ``class_mat[i]`` holds the
    tone-class index of each of its RUs, widest first, padded with -1.
    Machine tuples are built per (configuration, PHY) on first use.
    """

    def __init__(self, channel_width: int):
        self.configs = enumerate_configurations(channel_width)
        counts = _width_counts(channel_width)
        self.index = {c: i for i, c in enumerate(counts)}
        self.counts = np.array(counts, dtype=np.int64)
        self.suffix = self.counts[:, ::-1].cumsum(axis=1)[:, ::-1]
        # each row's class indices, widest first, then -1s (a mask fills row by row)
        rus = self.suffix[:, 0]
        widest_first = np.tile(np.arange(len(TONE_CLASSES))[::-1], len(counts))
        self.class_mat = np.full((len(counts), rus.max()), -1, dtype=np.int8)
        self.class_mat[np.arange(rus.max()) < rus[:, None]] = np.repeat(
            widest_first, self.counts[:, ::-1].ravel())
        self._machines: dict[tuple[int, PhyProfile], tuple[Machine, ...]] = {}

    def machines(self, index: int, phy: PhyProfile) -> tuple[Machine, ...]:
        """``machines_for_configuration`` of configuration ``index``."""
        key = (index, phy)
        machines = self._machines.get(key)
        if machines is None:
            machines = tuple(machines_for_configuration(self.configs[index], phy))
            self._machines[key] = machines
        return machines


@functools.lru_cache(maxsize=None)
def config_table(channel_width: int) -> ConfigTable:
    """The shared configuration table of a channel width."""
    return ConfigTable(channel_width)

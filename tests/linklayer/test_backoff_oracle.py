"""Block-drawn backoff slots equal NumPy's one-at-a-time bounded draws.

``NodeMac.draw_backoff_s`` reads its stream's raw 32-bit words in blocks
and applies NumPy's bounded Lemire rule itself.  The oracle is the draw it
replaces: ``rng.integers(0, cw)`` on a fresh generator of the same seed,
one call per backoff.  Contention windows mix ARQ doubling runs, ``cw ==
1`` (no draw at all), arbitrary windows up to the cap, and wide windows
whose rejection zone is large, so rejected words straddle block ends.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.linklayer import LinkLayerConfig
from repro.linklayer import mac as mac_module
from repro.linklayer.mac import NodeMac

CONFIG = LinkLayerConfig()
WORD_RANGE = 1 << 32
SEEDS = range(24)


def _windows(rng: np.random.Generator, count: int):
    windows = []
    while len(windows) < count:
        kind = int(rng.integers(0, 4))
        if kind == 0:  # one frame's retries: the window doubles to the cap
            cw = int(rng.integers(1, CONFIG.cw_min_slots + 1))
            for _ in range(int(rng.integers(1, 8))):
                windows.append(cw)
                cw = min(cw * 2, CONFIG.cw_max_slots)
        elif kind == 1:
            windows.append(1)
        elif kind == 2:
            windows.append(int(rng.integers(1, CONFIG.cw_max_slots + 1)))
        else:  # rejects up to half of all words
            windows.append(int(rng.integers(WORD_RANGE // 2 + 1, WORD_RANGE)))
    return windows


def _boundary_rejections(seed: int, windows, block: int) -> int:
    """Rejected words that were the last of a block, so the retry had to
    read the next block."""
    words = np.random.default_rng(seed).integers(
        0, WORD_RANGE, size=4 * len(windows) + 64, dtype=np.uint32
    ).tolist()
    index = count = 0
    for cw in windows:
        if cw == 1:
            continue
        threshold = (WORD_RANGE - cw) % cw
        while (words[index] * cw) % WORD_RANGE < threshold:
            count += index % block == block - 1
            index += 1
        index += 1
    return count


@pytest.mark.parametrize("block", [1, 3, mac_module._BACKOFF_BLOCK])
def test_block_draws_match_scalar_integers(block, monkeypatch):
    monkeypatch.setattr(mac_module, "_BACKOFF_BLOCK", block)
    layer = SimpleNamespace(config=CONFIG)
    straddles = 0
    for seed in SEEDS:
        windows = _windows(np.random.default_rng(1000 + seed), 300)
        mac = NodeMac(layer, 0, np.random.default_rng(seed))
        oracle = np.random.default_rng(seed)
        for cw in windows:
            expected = CONFIG.difs_s + int(oracle.integers(0, cw)) * CONFIG.slot_time_s
            assert mac.draw_backoff_s(cw) == expected, (seed, cw)
        straddles += _boundary_rejections(seed, windows, block)
    assert straddles > 0, "no rejection fell on a block boundary"


def test_window_below_one_slot_rejected():
    mac = NodeMac(SimpleNamespace(config=CONFIG), 0, np.random.default_rng(0))
    for cw in (0, -3):
        with pytest.raises(ValueError):
            mac.draw_backoff_s(cw)

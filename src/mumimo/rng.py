"""Deterministic random-substream derivation.

Every random draw in the simulator comes from a generator built by
:func:`substream`, keyed on the master seed plus a small integer tuple
(snr index, trial index, purpose, unit).  Substreams are therefore
independent of execution order, which is what makes parallel sweeps
reproduce serial ones byte for byte.
"""

import numpy as np

# purpose codes used when deriving per-trial substreams
SMALL_SCALE = 0
LARGE_SCALE = 1
PAYLOAD = 2
FRAME = 3
NOISE = 4
EVAL = 6  # not 5: renumbering would move every EVAL substream


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return an independent Generator for (master seed, key).

    The same (seed, key) pair always yields the same stream, and distinct
    keys yield statistically independent streams.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)

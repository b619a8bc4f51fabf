import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def same_bytes(a, b):
    """Bitwise equality of two arrays: dtype, shape and every byte, so a
    flipped signed zero counts (``np.array_equal`` takes -0.0 == 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_channel(rng, n_rx, n_streams, scale=1.0):
    """Well-conditioned complex Gaussian channel for filter tests."""
    return scale * (rng.standard_normal((n_rx, n_streams))
                    + 1j * rng.standard_normal((n_rx, n_streams))) / np.sqrt(2.0)


def matched(chan, r):
    """The matched-filter statistic ``(G^H G, G^H r)`` every detector takes."""
    adjoint = np.asarray(chan, dtype=complex).conj().T
    return adjoint @ chan, adjoint @ r


def reference_encode(bits, generators=(0b111, 0b101), memory=2):
    """Independent shift-register convolutional encoder (zero-terminated)."""
    reg = [0] * memory
    out = []
    for u in list(bits) + [0] * memory:
        window = [u] + reg
        for gen in generators:
            acc = 0
            for t in range(memory + 1):
                if (gen >> (memory - t)) & 1:
                    acc ^= window[t]
            out.append(acc)
        reg = [u] + reg[:-1]
    return np.array(out, dtype=np.int8)

"""Counter-based random streams.

Every stochastic operation in the package draws from an explicit stream
derived from (seed, phase, index) via the Philox counter-based generator,
so results never depend on how work is sharded across workers.
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

# Phase ids keep streams for different pipeline stages disjoint even when
# they share a master seed and an index range.
PHASE_DATASET = 1
PHASE_CLASSIFIER = 2
PHASE_PRETRAIN = 3
PHASE_CRITIC_BUFFER = 4
PHASE_CRITIC_TRAIN = 5
PHASE_POLICY = 6
PHASE_EVAL = 7
PHASE_DIAG = 8
PHASE_INIT = 9

_MASK64 = (1 << 64) - 1
_MASK56 = (1 << 56) - 1


def stream(seed: int, phase: int, index: int = 0) -> np.random.Generator:
    """Return the generator for (seed, phase, index).

    The triple is packed into a Philox key, so any two distinct triples
    give statistically independent streams and the same triple always
    reproduces the same draws.
    """
    if phase < 0 or phase > 0xFF:
        raise ValueError(f"phase must fit in one byte, got {phase}")
    if index < 0 or index > _MASK56:
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([seed & _MASK64, ((phase << 56) | index) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def n_workers() -> int:
    """Worker cap from the CGRU_THREADS environment variable (default 1)."""
    raw = os.environ.get("CGRU_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CGRU_THREADS must be an integer, got {raw!r}")
    return max(1, n)


# Shard width is a fixed constant of the algorithm, NOT derived from the
# worker count: BLAS kernels can differ at the last ulp between batch
# shapes, so worker-independent results require worker-independent shard
# boundaries. Workers only decide how many shards run concurrently.
SHARD = 256


def shard_ranges(n: int, chunk: int = SHARD) -> list[tuple[int, int]]:
    """Split range(n) into contiguous [lo, hi) spans of width `chunk`."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def run_sharded(fn, n: int, workers: int | None = None) -> list:
    """Run fn(lo, hi) over fixed-width shards of range(n), maybe in threads.

    Results are returned in shard order and each shard's inputs do not
    depend on the worker count, so the output is identical no matter how
    many workers execute the shards.
    """
    if workers is None:
        workers = n_workers()
    spans = shard_ranges(n)
    if len(spans) <= 1 or workers <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
                   for lo, hi in spans]
        return [f.result() for f in futures]

"""Counter-based random streams.

Every stochastic operation in the package draws from an explicit stream
derived from (seed, phase, index) via the Philox counter-based generator,
so results never depend on how work is sharded across workers. The
module decides shard boundaries (`shard_ranges`) and streams; where each
shard runs is `procs`'s to decide (`procs.sharded`).
"""

import numpy as np

from . import procs

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


def _key(seed: int, phase: int, index: int) -> np.ndarray:
    if phase < 0 or phase > 0xFF:
        raise ValueError(f"phase must fit in one byte, got {phase}")
    if index < 0 or index > _MASK56:
        raise ValueError(f"stream index out of range: {index}")
    return np.array([seed & _MASK64, ((phase << 56) | index) & _MASK64],
                    dtype=np.uint64)


def stream(seed: int, phase: int, index: int = 0) -> np.random.Generator:
    """Return the generator for (seed, phase, index).

    The triple is packed into a Philox key, so any two distinct triples
    give statistically independent streams and the same triple always
    reproduces the same draws.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, phase, index)))


_FRESH = np.zeros(4, dtype=np.uint64)


def streams(seed: int, phase: int, indices):
    """Yield stream(seed, phase, i) for each i in turn, from one generator.

    One Philox is re-keyed in place for every index, with its counter,
    buffer and cached 32-bit half reset, so each yielded generator draws
    exactly what a fresh stream would, without building a new one. The
    same object is yielded every time: finish with it before advancing.
    """
    bitgen = np.random.Philox(key=_key(seed, phase, 0))
    gen = np.random.Generator(bitgen)
    for index in indices:
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": _FRESH,
                                  "key": _key(seed, phase, index)},
                        "buffer": _FRESH, "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        yield gen


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


def run_sharded(fn, n: int, fold=None, chunk: int = SHARD) -> list:
    """Run fn(lo, hi) over chunk-wide shards of range(n), maybe in forked
    worker processes (`procs.sharded`, which picks how many).

    Each shard's result goes to fold(result) in the calling process, in
    shard order; without a fold the results are returned as a list in
    shard order (with one, the list is empty). Each shard's inputs do not
    depend on the worker count, so neither does the output. At most two
    shards per process run or wait ahead of the shard being folded, so a
    fold that keeps only a running total holds O(workers) results, not
    O(shards).

    With more than one process, shard results cross a pipe and must be
    picklable. A shard's result is its only channel to the caller: what a
    shard run in a worker writes into the caller's arrays stays in the
    worker. Once a shard has raised, no further shard starts, every
    worker is killed and reaped, and a copy of its exception (same type
    and args) propagates; a worker killed by a signal is a PhaseFailure.
    """
    results = []
    procs.sharded(fn, shard_ranges(n, chunk),
                  results.append if fold is None else fold)
    return results

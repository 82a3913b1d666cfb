"""Counter-based random streams.

Every stochastic operation in the package draws from an explicit stream
derived from (seed, phase, index) via the Philox counter-based generator,
so results never depend on how work is sharded across workers. The
module also owns the run's parallelism: shard passes over forked worker
processes (`run_sharded`) and the BLAS pin (`blas_pinned`).
"""

import ctypes
import functools
import glob
import os
from contextlib import closing, contextmanager

import numpy as np

from . import procs
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


def n_workers() -> int:
    """Worker cap from the CGRU_THREADS environment variable (default 1).
    The name is historical: it counts processes, the caller included.
    Each worker's BLAS calls run at one thread under `blas_pinned`."""
    raw = os.environ.get("CGRU_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CGRU_THREADS must be an integer, got {raw!r}")
    return max(1, n)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS through ctypes, or None if numpy ships
    another BLAS build."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


@contextmanager
def blas_pinned():
    """Run the block with numpy's bundled OpenBLAS at one thread, and put
    its old thread count back after; yields the BLAS's name, version,
    thread count and whether it is pinned. BLAS kernels can differ in the
    last bit between thread counts, so one thread makes a run's bytes
    independent of the environment, and it keeps concurrent workers and
    processes from each starting a thread per core. Without that library
    the block runs unpinned, at a thread count it cannot read."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:       # numpy < 1.25 only prints its config
        build = {}
    lib = _openblas()
    blas = {"name": build.get("name"), "version": build.get("version"),
            "threads": None if lib is None else 1, "pinned": lib is not None}
    if lib is None:
        yield blas
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield blas
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


# Shard width is a fixed constant of the algorithm, NOT derived from the
# worker count: BLAS kernels can differ at the last ulp between batch
# shapes, so worker-independent results require worker-independent shard
# boundaries. Workers only decide how many shards run concurrently.
SHARD = 256

# set while a pass runs over forked workers, and so in every worker: a
# pass nested in a shard runs serially, never forking workers of its own
_in_pass = False


def shard_ranges(n: int, chunk: int = SHARD) -> list[tuple[int, int]]:
    """Split range(n) into contiguous [lo, hi) spans of width `chunk`."""
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _width(shards: int, workers: int | None = None) -> int:
    """The processes a pass of `shards` shards runs on: at most the worker
    cap (default n_workers()), the shard count and the usable cores."""
    if _in_pass:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(n_workers() if workers is None else workers, shards,
                      cores))


def run_sharded(fn, n: int, workers: int | None = None, fold=None,
                chunk: int = SHARD) -> list:
    """Run fn(lo, hi) over chunk-wide shards of range(n), maybe in forked
    worker processes (`procs.sharded`).

    Each shard's result goes to fold(result) in the calling process, in
    shard order; without a fold the results are returned as a list in
    shard order (with one, the list is empty). Each shard's inputs do not
    depend on the worker count, so neither does the output. The pass runs
    on min(workers, shard count, usable cores) processes, the caller
    included; workers defaults to n_workers(). At most 2 * that many
    shards run or wait ahead of the shard being folded, so a fold that
    keeps only a running total holds O(workers) results, not O(shards).

    With more than one process, shard results cross a pipe and must be
    picklable. A shard's result is its only channel to the caller: what a
    shard run in a worker writes into the caller's arrays stays in the
    worker. Once a shard has raised, no further shard starts, every
    worker is killed and reaped, and a copy of its exception (same type
    and args) propagates; a worker killed by a signal is a PhaseFailure.
    """
    global _in_pass
    spans = shard_ranges(n, chunk)
    results = []
    if fold is None:
        fold = results.append
    width = _width(len(spans), workers)
    if width <= 1:
        for lo, hi in spans:
            fold(fn(lo, hi))
        return results
    _in_pass = True
    try:
        with closing(procs.sharded(fn, spans, width)) as parts:
            for part in parts:
                fold(part)
    finally:
        _in_pass = False
    return results

"""Counter-based random streams.

Every stochastic operation in the package draws from an explicit stream
derived from (seed, phase, index) via the Philox counter-based generator,
so results never depend on how work is sharded across workers. Which
(phase, index) keys each draw site owns is declared once, in `BLOCKS`,
whose blocks are checked as one span each.
The module decides shard boundaries (`shard_ranges`) and streams; where
each shard runs is `procs`'s to decide (`procs.sharded`).
"""

import itertools
from typing import NamedTuple

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


class Block(NamedTuple):
    """Stream indices of one phase that one kind of draw owns, as one span:
    member m of `count` starts at first + m * stride and holds `rows`
    streams, then `extra` more (a critic buffer's shuffle); `rows` and
    `count` are ints or Python expressions over the config's sections. A
    block with a `command` is drawn, and checked, only by the locked
    function of that name; every command checks the others."""
    phase: int
    first: int
    rows: int | str = 1
    extra: int = 0
    stride: int = 0
    count: int | str = 1
    command: str | None = None


_UNBIASED, _VARIANCE = "diag_unbiasedness", "diag_variance"
BLOCKS = {
    "dataset": Block(PHASE_DATASET, 0),
    "classifier fit": Block(PHASE_CLASSIFIER, 0),
    "pretrain": Block(PHASE_PRETRAIN, 0),
    "eps init": Block(PHASE_INIT, 0),
    "critic init": Block(PHASE_INIT, 1),
    "classifier init": Block(PHASE_INIT, 2),
    "critic fit": Block(PHASE_CRITIC_TRAIN, 0),
    "critic buffer": Block(PHASE_CRITIC_BUFFER, 0, "critic.n_traj", 1),
    "critic class ids": Block(PHASE_CRITIC_BUFFER, 1_000_000),
    # member i is unlearn iteration i's, drawn if that iteration refreshes
    "refresh buffer": Block(PHASE_CRITIC_BUFFER, 1_100_000, "policy."
                            "refresh_traj", 1, 100_000, "policy.iterations"),
    "policy class ids": Block(PHASE_POLICY, 1),
    "policy order": Block(PHASE_POLICY, 2),
    "refresh class ids": Block(PHASE_POLICY, 3),
    "refresh fits": Block(PHASE_POLICY, 4),
    "policy rollouts": Block(PHASE_POLICY, 10_000, "policy.n_traj", 0, 10_000,
                             "policy.iterations"),
    # the same noise at every pretrain gate check and unlearn monitor
    "monitor eval": Block(PHASE_EVAL, 0, "max(data.n_classes * pretrain."
                          "eval_per_class, policy.eval_forget + (data."
                          "n_classes - 1) * policy.eval_per_class)"),
    # the same noise for the base model and both arms
    "final eval": Block(PHASE_EVAL, 500_000, "eval.forget_samples + "
                        "(data.n_classes - 1) * eval.retain_per_class"),
    "probe": Block(PHASE_DIAG, 0, 20_000, command=_UNBIASED),
    "baseline probe": Block(PHASE_DIAG, 100_000, 10_000,
                            command="diag_baseline_optimum"),
    "variance bootstrap": Block(PHASE_DIAG, 999_998, command=_VARIANCE),
    "variance class ids": Block(PHASE_DIAG, 999_999, command=_VARIANCE),
    "sweep": Block(PHASE_DIAG, 1_000_000, 10_000, command=_UNBIASED),
    "variance batch": Block(PHASE_DIAG, 2_000_000, "policy.n_traj", 0, 1000,
                            20, _VARIANCE),
    # per seed, a buffer's 257 streams and, from + 500, the fit's 3
    "ablation": Block(PHASE_DIAG, 3_000_000, 503, 0, 1000, 5, "diag_ablation"),
}


def key(name: str, member: int = 0) -> tuple:
    """(phase, first index) of member `member` of block `name`."""
    block = BLOCKS[name]
    return block.phase, block.first + member * block.stride


def _value(expr, cfg) -> int:
    return expr if isinstance(expr, int) else eval(
        expr, {"__builtins__": {"max": max}}, vars(cfg))


def _last(block: Block, cfg) -> int:
    """The first index of the block's last member under cfg."""
    return block.first + (_value(block.count, cfg) - 1) * block.stride


def windows(cfg, names) -> list:
    """(phase, lo, hi, name) of each named block with members under cfg,
    whose members own indices lo..hi-1, in (phase, lo) order."""
    blocks = {name: BLOCKS[name] for name in names}
    return sorted((b.phase, b.first, _last(b, cfg) + _value(b.rows, cfg)
                   + b.extra, name) for name, b in blocks.items()
                  if _value(b.count, cfg) > 0)


def overlap(spans):
    """The first two (phase, lo, hi, ...) spans, given in (phase, lo)
    order, that share a key, or None."""
    return next(((a, b) for a, b in itertools.pairwise(spans)
                 if a[0] == b[0] and b[1] < a[2]), None)


def check_blocks(cfg, command: str | None = None) -> None:
    """ConfigError if under cfg a member of a block that every command, or
    `command`, checks overruns its stride or shares a key with another
    block. It names the rows, their room from the block's last member's
    start, and the block they would reach."""
    names = [n for n, b in BLOCKS.items() if b.command in (None, command)]
    rooms = [(n, BLOCKS[n].stride, f"the next {n} block")
             for n in names if BLOCKS[n].stride]
    if pair := overlap(windows(cfg, names)):
        (*_, name), (_, lo, _, reached) = pair
        rooms.append((name, lo - _last(BLOCKS[name], cfg),
                      f"the {reached} block"))
    for name, room, reached in rooms:
        rows, extra = BLOCKS[name].rows, BLOCKS[name].extra
        if _value(rows, cfg) + extra > room:
            raise ConfigError(f"{rows} = {_value(rows, cfg)} is above "
                              f"{room - extra}: its rows would reach {reached}")


def _key(seed: int, phase: int, index: int) -> np.ndarray:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= phase <= 0xFF:
        raise ValueError(f"phase must fit in one byte, got {phase}")
    if not 0 <= index < 1 << 56:
        raise ValueError(f"stream index out of range: {index}")
    return np.array([seed, phase << 56 | index], dtype=np.uint64)


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

"""Forked child processes, all started through one primitive, `_fork`.

A child pickles what it has to say down a pipe and leaves by os._exit.
`run_full` runs whole phases in such children (`_forked`), and
`rng.run_sharded` runs its shard workers in them (`sharded`).
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import time
import traceback
from contextlib import contextmanager, suppress

from .errors import CgruError, PhaseFailure


def _fork(body) -> tuple:
    """Start body(out) in a forked child, where out is the write end of a
    pipe as a binary file; returns (pid, the read end's fd).

    The child leaves by os._exit when body returns, so no finally block
    or exit handler of the caller's frames runs in it: it keeps the
    inherited lock fd until it exits and never truncates `.lock`. An
    interrupt ends it quietly with status 130; the parent, which gets
    the same Ctrl-C, reports it. Anything else that escapes body prints
    its traceback and ends the child with status 1.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            body(out)
        code = 0
    except KeyboardInterrupt:
        code = 128 + signal.SIGINT
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _ended(status: int) -> str:
    """How a child with this wait status ended, in words."""
    if os.WIFSIGNALED(status):
        return f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"


def _reap(pid: int) -> None:
    """Kill the child pid, if it still runs, and wait for it."""
    with suppress(ProcessLookupError, ChildProcessError):  # reaped
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _phase(fn, cfg):
    """The `_fork` body of a phase child: it sends (fn(cfg) or the
    exception it raised, seconds, peak RSS in MB) as one pickle."""
    def body(out):
        start = time.perf_counter()
        try:
            result = fn(cfg)
        except Exception as exc:
            result = exc
        seconds = time.perf_counter() - start
        peak_mb = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        out.write(pickle.dumps((result, seconds, peak_mb)))
    return body


def _join(pid: int, read_fd: int, started: float) -> tuple:
    """The (result or exception, seconds, peak RSS) a phase child sent,
    once it has exited and been reaped. A child that ended without
    sending one yields a PhaseFailure naming its exit status or signal,
    the seconds since `started` and no peak. Interrupted while it waits,
    it kills and reaps the child before the interrupt propagates."""
    try:
        with open(read_fd, "rb") as fh:
            blob = fh.read()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        _reap(pid)
        raise
    try:
        return pickle.loads(blob)
    except (EOFError, pickle.UnpicklingError):
        pass
    return (PhaseFailure(f"the child process of this phase {_ended(status)} "
                         "before it sent a result"),
            time.perf_counter() - started, None)


@contextmanager
def _forked(fn, cfg):
    """Run fn(cfg) in a phase child beside the block, which gets `join`.

    The first call of join() waits for the child and returns what it sent
    (`_join`) plus the seconds it waited; later calls return the same.
    The block must join before it ends; one left by an exception kills
    and reaps a child it has not joined.
    """
    started = time.perf_counter()
    pid, read_fd = _fork(_phase(fn, cfg))
    sent = None

    def join() -> tuple:
        nonlocal sent
        if sent is None:
            sent = ()       # _join reaps the child even when it raises
            waited = time.perf_counter()
            sent = (*_join(pid, read_fd, started),
                    round(time.perf_counter() - waited, 3))
        return sent

    try:
        yield join
    except BaseException:
        if sent is None:
            os.kill(pid, signal.SIGKILL)
            join()
        raise


def _portable(exc: Exception) -> Exception:
    """exc if a pickle round trip keeps it, else a CgruError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CgruError(f"a shard raised {exc!r}, which cannot be pickled")


def _shard_worker(fn, spans, credits: int):
    """The `_fork` body of a shard worker: fn(lo, hi) over its spans in
    order, each once it has read a credit byte, sending (True, result) or
    (False, exception, noted with where it was raised) as one pickle per
    shard; it stops at the first exception, and when the caller's end of
    the credit pipe is gone."""
    def body(out):
        for lo, hi in spans:
            if not os.read(credits, 1):
                return
            try:
                sent = (True, fn(lo, hi))
                blob = pickle.dumps(sent)
            except Exception as exc:
                if hasattr(exc, "add_note"):        # Python 3.11+
                    exc.add_note("raised in a shard worker at:\n" + "".join(
                        traceback.format_tb(exc.__traceback__)).rstrip())
                sent = (False, _portable(exc))
                blob = pickle.dumps(sent)
            out.write(blob)
            out.flush()
            if not sent[0]:
                return
    return body


# a worker may run or hold this many of its shards ahead of the fold
_CREDITS = 2


def sharded(fn, spans: list, width: int):
    """Yield fn(lo, hi) for each (lo, hi) of spans, in order, over `width`
    processes: shard j runs in forked worker j % width, where worker 0 is
    the caller, which runs its shards as their turn comes.

    Worker w >= 1 starts a shard only with a credit: it holds two at the
    start, and each of its results taken back after it was yielded, that
    is folded, grants one for its shard 2 * width places on. So no shard
    starts more than 2 * width places ahead of the last one folded.
    A shard's exception is raised again here, a copy of the same type and
    args, in its turn; a worker that dies first is a PhaseFailure naming
    its exit status or signal. Every worker is killed and reaped when the
    generator ends, however it ends, so close it (contextlib.closing).
    """
    workers = []        # [pid, results, credits]; pid None once reaped
    try:
        for w in range(1, width):
            read_credits, credits = os.pipe()
            try:
                pid, read_fd = _fork(_shard_worker(fn, spans[w::width],
                                                   read_credits))
            except BaseException:
                os.close(credits)
                raise
            finally:
                os.close(read_credits)
            workers.append([pid, open(read_fd, "rb"), credits])
            os.write(credits, b"\0" * min(_CREDITS, len(spans[w::width])))
        for j, (lo, hi) in enumerate(spans):
            if j % width == 0:
                yield fn(lo, hi)
                continue
            worker = workers[j % width - 1]
            try:
                ok, value = pickle.load(worker[1])
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(worker[0], 0)
                worker[0] = None
                raise PhaseFailure(f"shard worker {j % width} {_ended(status)} "
                                   f"before it sent shard {j}") from None
            if not ok:
                raise value
            yield value
            if j + _CREDITS * width < len(spans):
                with suppress(BrokenPipeError):     # the worker stopped
                    os.write(worker[2], b"\0")
    finally:
        for pid, results, credits in workers:
            if pid is not None:
                _reap(pid)
            results.close()
            os.close(credits)

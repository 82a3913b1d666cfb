"""Where each piece of work runs, and what every child inherits.

Every child is a forked worker (`_Child`) that reads pickled argument
tuples from one pipe and pickles each result down another. `sharded`
runs a shard pass over such workers, the caller included, at a width it
picks itself, sending each worker its shards; `_forked` runs one whole
phase of `run_full` as a worker sent one request, and an unlearn arm
sends its one monitor worker each monitored iteration's diagnostics and
eval. The module also holds the output directory's lock (`_locked`), the
one-thread BLAS pin (`blas_pinned`) and the heap pad (`keep_heap_top`),
which children inherit.
"""

from __future__ import annotations

import ctypes
import fcntl
import functools
import glob
import os
import pickle
import platform
import resource
import signal
import time
import traceback
from contextlib import contextmanager, suppress

import numpy as np

from .errors import CgruError, ConfigError, LockError, PhaseFailure


@contextmanager
def _locked(out_dir: str):
    """Hold an exclusive flock on out_dir/.lock, whose text names this
    process's pid and host meanwhile; LockError names another holder.
    The kernel drops the lock when its holder exits, even when killed.
    The file is never unlinked: two runs could then lock two inodes.
    A directory that cannot be made or hold the lock is a ConfigError."""
    lock_path = os.path.join(out_dir, ".lock")
    try:
        os.makedirs(out_dir, exist_ok=True)
        # append mode: opening never truncates the name of a current holder
        fh = open(lock_path, "a+", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out_dir!r}: "
                          f"{exc.strerror or exc}") from None
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.seek(0)
            raise LockError(f"lock {lock_path} is held by "
                            f"{fh.read().strip() or 'an unnamed holder'}; "
                            "another run is using this directory") from None
        fh.truncate(0)
        fh.write(f"pid {os.getpid()} on host {platform.node()}\n")
        fh.flush()
        try:
            yield
        finally:
            fh.truncate(0)      # closing the file releases the flock


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


_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3     # glibc's mallopt parameters


@functools.cache
def keep_heap_top() -> None:
    """Have glibc malloc serve blocks under 1 MiB from the heap and keep
    64 MiB free at its top rather than give it back, for the rest of the
    process and the children it forks; nothing on a C library without
    mallopt. The score walk allocates and frees (256, hidden) float32
    temporaries of 128 KiB at every step of every shard, and each fresh
    mapping or trimmed heap top faults their pages in again. Setting the
    pad freezes glibc's mmap threshold wherever earlier frees left it, so
    the threshold is set too."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        mallopt(_M_TOP_PAD, 64 << 20)


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


# set while a pass runs over forked workers, and so in every worker: a
# pass nested in a shard runs serially, never forking workers of its own
_in_pass = False


def _width(shards: int) -> int:
    """The processes a pass of `shards` shards runs on: at most the worker
    cap, the shard count and the usable cores."""
    if _in_pass:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(n_workers(), shards, cores))


# the caller's ends of every live child's pipes: its requests' write end
# and its results' read end. A forked child closes all it inherits, so
# no child holds a request pipe open but its caller, and each sees EOF
# there once its caller is gone, even when killed.
_caller_fds = set()


def _ended(status: int) -> str:
    """How a child with this wait status ended, in words."""
    if os.WIFSIGNALED(status):
        return f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"


def _portable(exc: Exception, raiser: str) -> Exception:
    """exc if a pickle round trip keeps it, else a CgruError naming it and
    what raised it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CgruError(f"{raiser} raised {exc!r}, which cannot be pickled")


def _worker(name: str, requests, out, fn) -> None:
    """What every child runs: for each pickled argument tuple read from
    requests, until EOF, it sends (True, fn(*args)) to out as one pickle;
    it stops at the first exception, which it sends as (False, exception,
    noted with the child's name and where it was raised)."""
    while True:
        try:
            args = pickle.load(requests)
        except (EOFError, pickle.UnpicklingError):     # the caller is gone
            return
        try:
            blob = pickle.dumps((True, fn(*args)))
        except Exception as exc:
            if hasattr(exc, "add_note"):        # Python 3.11+
                exc.add_note(f"raised in {name} at:\n" + "".join(
                    traceback.format_tb(exc.__traceback__)).rstrip())
            out.write(pickle.dumps((False, _portable(exc, name))))
            return
        out.write(blob)
        out.flush()


class _Child:
    """A forked `_worker` of fn, named in its failures, that serves the
    requests `send` pipes to it and returns each result to `receive`, in
    order.

    It makes its request and result pipes and forks; if either pipe or the
    fork fails, it closes every fd it opened and raises. The child closes
    the caller's ends of its pipes and every fd of `_caller_fds`, and
    leaves by os._exit when the worker returns, so no finally block or
    exit handler of the caller's frames runs in it: it keeps the
    inherited lock fd until it exits and never truncates `.lock`. An
    interrupt ends it quietly with status 130; the parent, which gets the
    same Ctrl-C, reports it. Anything else that escapes the worker prints
    its traceback and ends the child with status 1.

    A request blocks `send` until it fits in the pipe, and a result blocks
    the child until it is received; a caller that sends a request larger
    than a pipe's buffer first receives every result it is owed.
    """

    def __init__(self, name: str, fn):
        self.name = name
        fds = []
        try:
            fds += os.pipe()        # requests: the child's end, then ours
            fds += os.pipe()        # results: ours, then the child's end
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        read_requests, self.requests, read_fd, write_fd = fds
        if not self.pid:
            code = 1
            try:
                for fd in (self.requests, read_fd, *_caller_fds):
                    os.close(fd)
                _caller_fds.clear()
                with open(read_requests, "rb") as requests, \
                        open(write_fd, "wb") as out:
                    _worker(name, requests, out, fn)
                code = 0
            except KeyboardInterrupt:
                code = 128 + signal.SIGINT
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(read_requests)
        os.close(write_fd)
        _caller_fds.update((self.requests, read_fd))
        self.results = open(read_fd, "rb")

    def send(self, *args) -> None:
        """Ask the child for one more fn(*args). A child that has ended
        takes none; `receive` names how it ended."""
        blob = memoryview(pickle.dumps(args))
        with suppress(BrokenPipeError):
            while blob:
                blob = blob[os.write(self.requests, blob):]

    def receive(self, what: str):
        """The child's next result. A sent exception is raised again; a
        child that ends first is reaped, and is a PhaseFailure naming it,
        how it ended and `what` it did not send."""
        try:
            ok, value = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            ok = None       # reaped below, outside this handler
        if ok is None:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            raise PhaseFailure(f"{self.name} {_ended(status)} before it "
                               f"sent {what}")
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill the child, if it still runs, reap it and close its pipes."""
        if self.pid is not None:
            with suppress(ProcessLookupError, ChildProcessError):  # reaped
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
        _caller_fds.difference_update((self.results.fileno(), self.requests))
        self.results.close()
        os.close(self.requests)


# a worker may run or hold this many of its shards ahead of the caller
_CREDITS = 2


def sharded(fn, spans: list, fold) -> None:
    """fold(fn(lo, hi)) for each (lo, hi) of spans, in shard order, over
    `_width` processes: shard j runs in forked worker j % width, where
    worker 0 is the caller, which runs its shards as their turn comes.
    At width 1 no worker is forked.

    Worker w >= 1 is sent its first two shards at the start, and each of
    its results folded sends it its shard 2 * width places on. So no
    shard starts more than 2 * width places ahead of the last one folded.
    A shard's exception is raised again here, a copy of the same type and
    args, in its turn; a worker that dies first is a PhaseFailure naming
    its exit status or signal. Every worker is killed and reaped when the
    pass ends, however it ends.
    """
    global _in_pass
    width = _width(len(spans))
    workers = []

    def ahead(j: int) -> None:
        """Send shard j, if there is one, to its worker, if not the caller."""
        if j < len(spans) and j % width:
            workers[j % width - 1].send(*spans[j])

    outer, _in_pass = _in_pass, _in_pass or width > 1
    try:
        for w in range(1, width):
            workers.append(_Child(f"shard worker {w}", fn))
        for j in range(_CREDITS * width):
            ahead(j)
        for j, (lo, hi) in enumerate(spans):
            if j % width == 0:
                fold(fn(lo, hi))
                continue
            fold(workers[j % width - 1].receive(f"shard {j}"))
            ahead(j + _CREDITS * width)
    finally:
        _in_pass = outer
        for worker in workers:
            worker.close()


def attempt(fn, *args) -> tuple:
    """(fn(*args), or the Exception it raised, and the seconds it took)."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        result = exc
    return result, time.perf_counter() - start


@contextmanager
def _forked(fn, cfg):
    """Run fn(cfg) in a phase child beside the block, which gets `join`:
    a `_Child` sent one request, whose function returns (fn(cfg) or the
    exception it raised, seconds, peak RSS in MB).

    The first call of join() waits for the child and returns what it sent
    plus the seconds it waited; later calls return the same. A child that
    ended without sending it yields its PhaseFailure, the seconds since
    the fork and no peak. The child is killed, if it still runs, and
    reaped when the block ends, however it ends.
    """
    name = "the child process of this phase"

    def phase():
        result, seconds = attempt(fn, cfg)
        if isinstance(result, Exception):
            result = _portable(result, name)
        peak_mb = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        return result, seconds, peak_mb

    started = time.perf_counter()
    child = _Child(name, phase)
    sent = None

    def join() -> tuple:
        nonlocal sent
        if sent is None:
            waited = time.perf_counter()
            try:
                result = child.receive("a result")
            except Exception as exc:    # it died, or its result won't pickle
                result = exc, time.perf_counter() - started, None
            sent = (*result, round(time.perf_counter() - waited, 3))
        return sent

    try:
        child.send()
        yield join
    finally:
        child.close()

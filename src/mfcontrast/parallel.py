"""Work spread over the CPUs this process may run on: ``deal`` on threads
that the call starts and joins, ``ShardWorker``, the one forked process
that runs the second row shard of every training step, and
``one_blas_thread``, which runs numpy's bundled OpenBLAS on one thread. This
module alone decides how many threads run, and it alone forks.

``deal`` spreads a list of independent items: corpus synthesis deals
utterances, ``extract_fbank`` chunks of waves, ``AugmentSampler.apply``
crops, and ``trainer.evaluate`` batches of utterances. Three rules hold for
every one of them.

- Dealing: the items go round-robin into w = max(1, min(items, usable
  CPUs)) shares, share k being ``items[k::w]``; share 0 runs on the calling
  thread and each other share on a thread of its own.
- Inline: a ``deal`` called from inside another one's work, on any of its
  threads (the caller's included), starts no thread and runs its shares on
  the calling thread, in share order. So ``evaluate``, whose shares each
  take filterbanks, never runs more threads than there are CPUs.
- Caller allocates: arrays that outlive the call should be allocated by the
  caller and only filled by the work. A thread's first allocation takes a
  glibc arena of its own, and until ``trainer.train`` or ``evaluate`` caps
  the count at one (``_keep_freed_heap``) that is a new arena that
  long-lived arrays pin. Copying the workers' arrays after the join instead
  holds them twice at the peak, and capping the arenas before the threads
  start raised peak RSS too.

Each caller makes an item's result independent of its share, so nothing
these callers compute depends on the CPU count.

Every training step runs as two row shards at once, whatever the CPU count
and the batch size, in two processes: the many small numpy calls of a step
hold the GIL, so two threads cannot overlap them. One 6-block forward and
backward on 20 rows of 48 frames (``train_deep_short``'s half batch) took
45-47 ms alone, 67-71 ms on each of two threads of one process, and 47-51
ms in each of two processes (medians of 30, in two of three runs; the third
read 58-60 ms), on 2 CPUs at 1 BLAS thread.

BLAS threads: ``trainer.train``, ``trainer.evaluate`` and
``model.SpeakerModel.forward`` run under ``one_blas_thread``. On some
OpenBLAS kernels (AVX2's Haswell among them) a forward's bits move with the
BLAS thread count, so this makes every result independent of the caller's
count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np

# whether this thread is running a share of deal
_inside = threading.local()
# seconds between the checks of a meeting's wait that the other side lives
_POLL_S = 0.05


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def deal(items, work) -> list:
    """``work(items[k::w])`` for each of the w shares of ``items``, a
    sliceable sequence, dealt and run as the module docstring says; the
    results, in share order. No items give one call with an empty share.
    After the joins, the first error a share raised is raised again; nested,
    the first share that raises ends the call."""
    w = max(1, min(len(items), usable_cpus()))
    if getattr(_inside, "deal", False):
        return [work(items[k::w]) for k in range(w)]
    results, errors = [None] * w, []

    def share(k):
        _inside.deal = True
        try:
            results[k] = work(items[k::w])
        except BaseException as err:
            errors.append(err)
        finally:
            _inside.deal = False

    threads = [threading.Thread(target=share, args=(k,)) for k in range(1, w)]
    for thread in threads:
        thread.start()
    share(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


@functools.cache
def _openblas_threads():
    """The get and set thread-count functions of the OpenBLAS that numpy
    bundles (``numpy.libs/libscipy_openblas64_*.so``), or None where numpy
    bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, and give
    the caller's thread count back after it. Each ``deal`` thread, and the
    shard worker forked inside the block, then runs its BLAS calls on its
    own, and the results do not depend on the caller's count. The count is
    the process's: blocks that overlap on two threads must both lie inside
    an outer one. Does nothing where numpy bundles no OpenBLAS."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def shared_empty(size: int, dtype) -> np.ndarray:
    """An uninitialised 1-D array in an anonymous shared mapping: a process
    forked after it is made reads and writes the same memory. Its pages,
    like those of ``np.zeros``, stay untouched until written."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype, size)


class WorkerExit(RuntimeError):
    """The worker process ended while its caller waited for it."""


class ShardWorker:
    """A forked process that serves the caller, and the meeting point of
    the two row shards that the caller (shard 0) and the worker (shard 1)
    run at once.

    The worker runs ``serve(self)`` on its own copy of this object, which
    talks to the caller through ``send`` and ``recv``; ``serve`` returning
    ends it, and so does the caller ending. An error that ``serve`` raises
    is sent to the caller, whose next wait raises it, and the worker exits
    with code 1. The worker is forked rather than spawned, so that it
    starts with the caller's objects (a model, and the closures that use
    it) and shares its anonymous mappings; ``trainer.train`` forks it
    before its first step, when no thread of a ``deal`` runs. When the
    fork fails, the constructor closes the pipe it made and raises.

    A meeting is one ``sum(index, part)`` call by each side: shard ``index``
    writes its partial sum, a 1-D array of at most ``part_bytes`` bytes, to
    its slot of a shared mapping, and both read back slot 0 + slot 1, added
    in shard order, so both sides get the same bits. One semaphore pair
    marks a side's part as written, and the slots alternate between two
    buffers, so a side that leaves a meeting first cannot overwrite a part
    the other is still reading. Batch norm meets here (``nn.row_shard``).

    Every wait ends when the other side does: each side closes the other's
    end of the pipe right after the fork, so the end of its pipe is the
    other side's end, and a meeting polls liveness. When the worker has
    ended, the caller raises the error it sent, or else ``WorkerExit``
    naming its exit code; the worker raises EOFError when the caller has.
    ``close`` ends the worker and joins it.
    """

    def __init__(self, serve, part_bytes: int):
        ctx = multiprocessing.get_context("fork")
        part_bytes = -(-part_bytes // 64) * 64  # every slot 64-byte aligned
        self._slots = shared_empty(2 * 2 * part_bytes, np.uint8).reshape(2, 2, part_bytes)
        self._written = (ctx.Semaphore(0), ctx.Semaphore(0))
        self._meetings = 0
        self._caller = os.getpid()
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=self._run, args=(serve, child), daemon=True)
        try:
            self._process.start()
        except BaseException:
            self._conn.close()
            raise
        finally:
            child.close()

    def _run(self, serve, conn):
        self._conn.close()
        self._conn = conn
        try:
            serve(self)
        except EOFError:  # the caller has ended
            pass
        except BaseException as err:
            conn.send((err, None))
            raise SystemExit(1) from None

    def send(self, value) -> None:
        """Send ``value`` to the other side."""
        try:
            self._conn.send((None, value))
        except OSError:  # the other side has ended
            self._ended()

    def recv(self):
        """The next value the other side sent. In the worker, raises
        EOFError once the caller has ended."""
        try:
            error, value = self._conn.recv()
        except (EOFError, ConnectionResetError):  # a reset: it ended with a message unread
            self._ended()
        if error is not None:
            raise error
        return value

    def _ended(self):
        """The other side has ended. In the worker, raise EOFError; in the
        caller, the error that the worker sent, or else WorkerExit."""
        if os.getpid() != self._caller:
            raise EOFError("the caller ended")
        self._process.join()
        try:
            while self._conn.poll():
                error, _ = self._conn.recv()
                if error is not None:
                    raise error
        except (EOFError, ConnectionResetError):
            pass
        raise WorkerExit(f"the shard worker (pid {self._process.pid}) exited with "
                         f"code {self._process.exitcode} during a training step")

    def sum(self, index: int, part: np.ndarray) -> np.ndarray:
        buffer = self._slots[self._meetings % 2]
        self._meetings += 1
        size = part.nbytes
        buffer[index, :size].view(part.dtype)[...] = part
        self._written[index].release()
        while not self._written[1 - index].acquire(timeout=_POLL_S):
            if not (self._process.is_alive() if os.getpid() == self._caller
                    else os.getppid() == self._caller):
                self._ended()
        return np.add(buffer[0, :size].view(part.dtype), buffer[1, :size].view(part.dtype))

    def close(self) -> None:
        """End the worker wherever it is, and join it."""
        self._process.kill()
        self._process.join()

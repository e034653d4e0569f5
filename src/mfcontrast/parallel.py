"""Work spread over the CPUs this process may run on, on threads that the
call starts and joins. Used by corpus synthesis, evaluation, the two-shard
training step, filterbank extraction and augmentation. A call made from
inside another call's work item runs inline, so nested calls never start
more threads than the outer one."""

from __future__ import annotations

import os
import threading

# whether this thread is running a work item of on_threads
_inside = threading.local()


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def on_threads(count, work, abort=None) -> list:
    """``work(k)`` for k in range(count), k = 0 on this thread and each
    other k on a thread that this call starts and joins; the results, in k
    order. A k that raises calls ``abort``, when given, so that the others
    end rather than wait for it, and after the joins the first error raised
    is raised again: the one that aborted, never the abort's own.

    Arrays that outlive the call should be allocated by the caller and
    only filled by ``work``. A thread's first allocation takes a glibc
    arena of its own, and until ``trainer.train`` caps the count at one
    (``_keep_freed_heap``) that is a new arena. Long-lived arrays pin it,
    a later thread of the two-shard step reuses it, and each desk step
    then faults thousands of pages back in, where the kept heap takes
    under a thousand. Copying the workers' arrays after the join instead
    holds them twice at the peak, and capping the arenas before the
    threads start raised peak RSS too.

    Called from inside a work item of another call, on any of its threads
    (the caller's included), it starts no thread: it runs every k inline,
    in k order, and a k that raises ends the call with its error. So
    ``trainer.evaluate``, whose threads each take filterbanks, never runs
    more threads than it has CPUs. ``abort`` is not called then, since no
    other k is running; work that needs its ks to run at once, such as the
    two-shard step, must not be nested."""
    if getattr(_inside, "work", False):
        return [work(k) for k in range(count)]
    results, errors = [None] * count, []

    def run(k):
        _inside.work = True
        try:
            results[k] = work(k)
        except BaseException as err:
            errors.append(err)  # before the abort that ends the others
            if abort is not None:
                abort()
        finally:
            _inside.work = False

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, count)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results

"""Work spread over the CPUs this process may run on, on threads that the
call starts and joins. Used by corpus synthesis, evaluation and the
two-shard training step."""

from __future__ import annotations

import os
import threading


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
    threads start raised peak RSS too."""
    results, errors = [None] * count, []

    def run(k):
        try:
            results[k] = work(k)
        except BaseException as err:
            errors.append(err)  # before the abort that ends the others
            if abort is not None:
                abort()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, count)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results

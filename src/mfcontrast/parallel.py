"""Work spread over the CPUs this process may run on, on threads that the
call starts and joins. This module alone decides how many.

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
  glibc arena of its own, and until ``trainer.train`` caps the count at one
  (``_keep_freed_heap``) that is a new arena. Long-lived arrays pin it, a
  later thread of the two-shard step reuses it, and each desk step then
  faults thousands of pages back in, where the kept heap takes under a
  thousand. Copying the workers' arrays after the join instead holds them
  twice at the peak, and capping the arenas before the threads start raised
  peak RSS too.

Each caller makes an item's result independent of its share, so nothing
these callers compute depends on the CPU count. ``on_threads`` is for work
whose items must run at once, the two-shard training step's, and always
starts its threads.
"""

from __future__ import annotations

import os
import threading

# whether this thread is running a share of deal
_inside = threading.local()


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

    def share(k):
        _inside.deal = True
        try:
            return work(items[k::w])
        finally:
            _inside.deal = False

    return on_threads(w, share, lambda: None)


def on_threads(count, work, abort) -> list:
    """``work(k)`` for k in range(count), k = 0 on this thread and each
    other k on a thread that this call starts and joins, wherever it is
    called from; the results, in k order. A k that raises calls ``abort``,
    so that the others end rather than wait for it, and after the joins the
    first error raised is raised again: the one that aborted, never the
    abort's own."""
    results, errors = [None] * count, []

    def run(k):
        try:
            results[k] = work(k)
        except BaseException as err:
            errors.append(err)  # before the abort that ends the others
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

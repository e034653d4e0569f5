"""A spy that sees calls in every process, and a stand-in for the usable
CPU count. The second row shard of a training step runs in a forked worker
(``parallel.ShardWorker``), whose memory is its own, so the spy appends
each call to a file."""

import json
import os
from pathlib import Path


def spy_processes(monkeypatch, owner, name, path, note=lambda *args, **kwargs: None):
    """Patch ``owner.<name>`` to append, in whichever process calls it, the
    line ``[pid, note(*args, **kwargs)]`` as JSON to the file at ``path``.
    Returns a function that reads the lines back as (pid, note) pairs."""
    path = Path(path)
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        with open(path, "a") as f:
            f.write(json.dumps([os.getpid(), note(*args, **kwargs)]) + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)

    def calls():
        lines = path.read_text().splitlines() if path.exists() else []
        return [tuple(json.loads(line)) for line in lines]

    return calls


def on_cpus(monkeypatch, count):
    """Patch ``os.sched_getaffinity`` to report ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

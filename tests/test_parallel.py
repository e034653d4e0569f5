import threading

import pytest

from mfcontrast import parallel


class InnerError(RuntimeError):
    pass


def count_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def test_a_nested_call_runs_inline_in_k_order(monkeypatch):
    started = count_thread_starts(monkeypatch)
    seen = []

    def outer(j):
        def inner(k):
            seen.append((j, k, threading.current_thread()))
            return 10 * j + k
        return threading.current_thread(), parallel.on_threads(3, inner)

    results = parallel.on_threads(2, outer)
    assert len(started) == 1  # the outer call's second thread only
    assert [inner for _, inner in results] == [[0, 1, 2], [10, 11, 12]]
    for j, (thread, _) in enumerate(results):
        assert [(k, t) for jj, k, t in seen if jj == j] == [(k, thread) for k in range(3)]
    assert results[0][0] is threading.current_thread() and results[1][0] in started


def test_a_nested_work_items_error_reaches_the_outer_caller(monkeypatch):
    started = count_thread_starts(monkeypatch)
    before = set(threading.enumerate())
    ran = []

    def inner(k):
        ran.append(k)
        if k == 1:
            raise InnerError("nested item 1 failed")
        return k

    with pytest.raises(InnerError):
        parallel.on_threads(2, lambda j: parallel.on_threads(3, inner))
    assert len(started) == 1 and set(threading.enumerate()) == before
    assert sorted(ran) == [0, 0, 1, 1]  # each nested call stops at its failing k


def test_a_call_after_a_nested_one_starts_threads_again(monkeypatch):
    parallel.on_threads(2, lambda j: parallel.on_threads(2, lambda k: k))
    started = count_thread_starts(monkeypatch)
    assert parallel.on_threads(2, lambda k: threading.current_thread())[1] in started


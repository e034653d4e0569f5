import os
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


def on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("cpus, n", [(1, 7), (2, 7), (3, 7), (3, 2)])
def test_shares_are_dealt_round_robin_and_come_back_in_share_order(monkeypatch, cpus, n):
    on_cpus(monkeypatch, cpus)
    started = count_thread_starts(monkeypatch)
    items = [f"item{i}" for i in range(n)]
    results = parallel.deal(items, lambda share: (share, threading.current_thread()))
    w = min(cpus, n)
    assert [share for share, _ in results] == [items[k::w] for k in range(w)]
    assert results[0][1] is threading.current_thread()
    assert [thread for _, thread in results[1:]] == started


@pytest.mark.parametrize("cpus, n", [(1, 5), (4, 1)])
def test_one_cpu_or_one_item_starts_no_thread(monkeypatch, cpus, n):
    on_cpus(monkeypatch, cpus)
    started = count_thread_starts(monkeypatch)
    assert parallel.deal(list(range(n)), lambda share: share) == [list(range(n))]
    assert started == []


def test_no_items_give_one_call_with_an_empty_share(monkeypatch):
    on_cpus(monkeypatch, 2)
    started = count_thread_starts(monkeypatch)
    calls = []
    assert parallel.deal([], lambda share: calls.append(share) or "done") == ["done"]
    assert calls == [[]] and started == []


def test_a_nested_deal_runs_inline_in_share_order(monkeypatch):
    on_cpus(monkeypatch, 3)
    started = count_thread_starts(monkeypatch)
    seen = []

    def outer(share):
        (j,) = share

        def inner(items):
            seen.append((j, items, threading.current_thread()))
            return [10 * j + k for k in items]
        return threading.current_thread(), parallel.deal([0, 1, 2], inner)

    results = parallel.deal([0, 1], outer)
    assert len(started) == 1  # the outer call's second thread only
    assert [inner for _, inner in results] == [[[0], [1], [2]], [[10], [11], [12]]]
    for j, (thread, _) in enumerate(results):
        assert [(i, t) for jj, i, t in seen if jj == j] == [([k], thread) for k in range(3)]
    assert results[0][0] is threading.current_thread() and results[1][0] in started


def test_a_nested_shares_error_reaches_the_outer_caller(monkeypatch):
    on_cpus(monkeypatch, 3)
    started = count_thread_starts(monkeypatch)
    before = set(threading.enumerate())
    ran = []

    def inner(items):
        ran.extend(items)
        if items == [1]:
            raise InnerError("nested share 1 failed")
        return items

    with pytest.raises(InnerError):
        parallel.deal([0, 1], lambda share: parallel.deal([0, 1, 2], inner))
    assert len(started) == 1 and set(threading.enumerate()) == before
    assert sorted(ran) == [0, 0, 1, 1]  # each nested call stops at its failing share


def test_a_deal_after_a_nested_one_starts_threads_again(monkeypatch):
    on_cpus(monkeypatch, 2)
    parallel.deal([0, 1], lambda share: parallel.deal([0, 1], lambda inner: inner))
    started = count_thread_starts(monkeypatch)
    assert parallel.deal([0, 1], lambda share: threading.current_thread())[1] in started


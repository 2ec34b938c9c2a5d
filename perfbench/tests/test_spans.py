import threading

import pytest

from perfbench import spans


def test_union_length_merges_overlaps_once():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert spans.union_length([(5, 6), (0, 1), (0.5, 2)]) == 3.0


def test_self_time_counts_overlapping_thread_spans_once():
    # Two worker-thread children overlap on [2, 4]; a third sticks out of
    # the parent and is clipped to it.
    parent = (0.0, 10.0)
    children = [(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)]
    assert spans.self_time(parent, children) == pytest.approx(10 - 5 - 2)
    assert spans.self_time(parent, []) == 10.0
    assert spans.self_time(parent, [(11.0, 12.0)]) == 10.0


def test_tracer_records_worker_thread_spans_under_the_run():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=5)
        return 1

    traced = tracer.wrap("operators.apply", work)

    def run():
        threads = [threading.Thread(target=traced) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        return "done"

    out, run_id, end = tracer.call_run(run)
    assert out == "done"
    root = [s for s in tracer.spans if s.name == spans.ROOT_SPAN]
    kids = [s for s in tracer.spans if s.name == "operators.apply"]
    assert len(root) == 1 and len(kids) == 2
    assert root[0].end == end
    assert {s.parent for s in kids} == {root[0].id}
    assert {s.run for s in tracer.spans} == {run_id}
    assert len({s.thread for s in kids}) == 2
    busy = spans.union_length([(s.start, s.end) for s in kids])
    own = spans.self_time((root[0].start, root[0].end),
                          [(s.start, s.end) for s in kids])
    assert own == pytest.approx(root[0].duration - busy)
    assert own >= 0.0


def test_proxy_forwards_attributes_and_times_named_methods():
    class Target:
        flag = 3

        def apply_local(self, u):
            return u

        def other(self):
            return "x"

    target = Target()
    tracer = spans.Tracer()
    proxy = spans.TracedProxy(target, tracer, spans.OPERATOR_METHODS)
    assert proxy.flag == 3 and proxy.other() == "x"
    proxy.flag = 4
    assert target.flag == 4
    assert proxy.apply_local(7) == 7
    assert [s.name for s in tracer.spans] == ["operators.apply"]
    assert tracer.spans[0].parent is None and tracer.spans[0].run is None

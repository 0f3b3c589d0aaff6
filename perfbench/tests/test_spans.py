import asyncio

import pytest

from perfbench.spans import SpanRecorder, layer_table, self_times


class FakeClock(object):
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(span_id, parent, name, start, end, trace=1):
    return (span_id, parent, trace, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "child", 1.0, 4.0),
        _span(3, 2, "grandchild", 2.0, 3.0),
        _span(4, 1, "child", 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 5.0),
        _span(3, 1, "b", 3.0, 7.0),      # overlaps a by 2
        _span(4, 1, "c", 9.0, 12.0),     # runs past the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_spans_and_shares_trace_ids():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.open("run")
    for key in ("flush-a", "flush-a", "flush-b"):
        recorder.open("route", trace_key=key)
        clock.now += 1.0
        recorder.open("invoke")
        clock.now += 2.0
        recorder.close()
        recorder.close()
    recorder.close()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[3], []).append(span)
    (run,) = by_name["run"]
    routes = by_name["route"]
    invokes = by_name["invoke"]
    assert all(r[1] == run[0] for r in routes)
    assert [i[1] for i in invokes] == [r[0] for r in routes]
    # Consecutive spans with one key share a trace; children inherit it.
    assert routes[0][2] == routes[1][2] != routes[2][2]
    assert [i[2] for i in invokes] == [r[2] for r in routes]
    table = layer_table(recorder.spans, ["run", "route", "invoke"], runs=1)
    assert table["run"]["self_s"] == pytest.approx(0.0)
    assert table["route"]["self_s"] == pytest.approx(3.0)
    assert table["invoke"]["self_s"] == pytest.approx(6.0)
    assert table["route"]["calls"] == 3
    assert table["route"]["tail_q"] is None  # 3 calls support no tail


class Target(object):
    def work(self, n):
        return n * 2

    async def run(self):
        return self.work(3)


def test_wrap_records_and_restores_sync_and_async_methods():
    original = Target.__dict__["work"]
    recorder = SpanRecorder()
    seen = []
    recorder.wrap(Target, "work", "target.work",
                  observe=lambda rec, args, kwargs, result: seen.append(
                      result))
    recorder.wrap(Target, "run", "target.run")
    with recorder:
        assert asyncio.run(Target().run()) == 6
    assert Target.__dict__["work"] is original
    names = [span[3] for span in recorder.spans]
    assert names == ["target.work", "target.run"]
    assert recorder.spans[0][1] == recorder.spans[1][0]
    assert seen == [6]


def test_layer_table_divides_per_run_and_reports_zero_rows():
    spans = [_span(i, None, "op", float(i), float(i) + 0.5)
             for i in range(1, 201)]
    table = layer_table(spans, ["op", "idle"], runs=4)
    assert table["op"]["calls"] == 50
    assert table["op"]["self_s"] == pytest.approx(25.0)
    assert table["op"]["tail_q"] == 0.9
    assert table["op"]["tail_us"] == pytest.approx(0.5e6)
    assert table["idle"] == {"calls": 0.0, "self_s": 0.0, "p50_us": 0.0,
                             "tail_us": 0.0, "tail_q": None, "n": 0}

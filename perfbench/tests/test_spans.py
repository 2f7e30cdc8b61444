"""The tracer's nesting check accepts its own spans and rejects broken ones."""

import time

from spans import Tracer


class Owner:
    @staticmethod
    def outer():
        return Owner.inner() + Owner.inner()

    @staticmethod
    def inner():
        return 1


def traced_run():
    tracer = Tracer()
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner")
    start = time.perf_counter()
    for _ in range(3):
        with tracer.operation("op"):
            Owner.outer()
    end = time.perf_counter()
    tracer.restore()
    return tracer, start, end


def test_recorded_spans_nest_and_self_times_fit_the_wall_time():
    tracer, start, end = traced_run()
    assert len(tracer.spans) == 12
    assert tracer.nesting_errors(start, end) == []
    own = tracer.self_times()
    assert min(own) >= 0 and sum(own) <= end - start


def test_nesting_check_rejects_broken_spans():
    tracer, start, end = traced_run()
    assert tracer.nesting_errors(start, tracer.spans[-1][1])          # op ends after the wall
    child = tracer.spans[2]                                           # op 0 > outer > inner 1
    child[2] = tracer.spans[1][2] + 1e-3                              # ends after its parent
    assert any("outside its parent" in e for e in tracer.nesting_errors(start, end))

    tracer, start, end = traced_run()
    first, second = tracer.spans[2], tracer.spans[3]                  # sibling inner calls
    second[1] = first[2] - 1e-9                                       # starts before the first ends
    assert any("overlaps" in e for e in tracer.nesting_errors(start, end))

    tracer, start, end = traced_run()
    tracer.spans[5][2] = None                                         # never closed
    assert any("never closed" in e for e in tracer.nesting_errors(start, end))

import sys
import types

import pytest

from layers import METRICS
from tracing import SpanStats, Target, Tracer
from worker import per_layer


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture
def fakepkg():
    """fakepkg.a defines inner/outer; fakepkg.b imports outer by name."""
    a = types.ModuleType("fakepkg.a")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "class Box:\n    def get(self):\n        return inner(1)\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.outer = a.outer
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        sys.modules.pop(name, None)


def test_wraps_every_place_a_caller_looks_the_name_up(fakepkg):
    a, b = fakepkg
    original = a.outer
    tracer = Tracer(clock=FakeClock())
    tracer.install([Target("fakepkg.a", "outer", "a.outer"),
                    Target("fakepkg.a", "inner", "a.inner"),
                    Target("fakepkg.a", "Box.get", "a.Box.get")])
    tracer.op = 0
    assert b.outer(1) == 4          # looked up in the importing module
    assert a.Box().get() == 2       # method looked up through the class
    tracer.uninstall()
    assert a.outer is original and b.outer is original
    names = [tracer.names[s[1]] for s in tracer.spans]
    assert names == ["a.outer", "a.inner", "a.Box.get", "a.inner"]
    parents = [s[4] for s in tracer.spans]
    assert parents == [-1, 0, -1, 2]


def test_self_and_busy_time(fakepkg):
    a, _ = fakepkg
    tracer = Tracer(clock=FakeClock())
    tracer.install([Target("fakepkg.a", "outer", "a.outer"),
                    Target("fakepkg.a", "inner", "a.inner")])
    tracer.op = 0
    a.outer(1)   # clock: outer 1..4, inner 2..3
    tracer.uninstall()
    st = SpanStats(tracer, [0])
    assert st.durations("a.outer") == [3.0]
    assert st.self_times("a.outer") == [2.0]
    assert st.busy(("a.outer", "a.inner")) == 3.0
    assert st.calls("a.inner") == 1


def test_missing_layer_is_reported_absent_not_fatal(fakepkg):
    a, _ = fakepkg
    tracer = Tracer()
    tracer.install([Target("fakepkg.gone", "f", "gone.f"),
                    Target("fakepkg.a", "deleted", "a.deleted"),
                    Target("fakepkg.a", "Nope.get", "a.Nope.get"),
                    Target("nsab._no_such_module", "convective_product",
                           "_accel.convective_product")])
    tracer.uninstall()
    assert tracer.absent == ["gone.f", "a.deleted", "a.Nope.get",
                             "_accel.convective_product"]
    traced = [[{"op": 0, "label": "x", "calibrated": 1.0}]]
    untraced = [[{"op": 1, "label": "x", "calibrated": 1.0}]]
    values, absent = per_layer(tracer, traced, untraced, 1, 0)
    assert "_accel.convective_product.ms" in absent
    assert values["_accel.convective_product.ms"] == 0.0
    assert set(values) == {m.name for m in METRICS}

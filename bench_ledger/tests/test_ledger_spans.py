import types

import pytest

import spans
from spans import Recorder, breakdown_by_root, request_breakdown, self_times, summarize


def test_self_time_subtracts_nested_and_sibling_children():
    #            0         10
    # root       |---------|          self = 10 - (3 + 2) = 5
    #   a         |--|                 self = 3 - 1 = 2      (1..4)
    #     a1       ||                  self = 1              (2..3)
    #   b              |-|             self = 2              (6..8)
    thread = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a1", 2.0, 3.0, 1, 1],
        ["b", 6.0, 8.0, 0, 1],
    ]
    assert self_times(thread) == [5.0, 2.0, 1.0, 2.0]
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(self_times(thread)) == 10.0


def test_overlapping_children_are_covered_once():
    thread = [
        ["root", 0.0, 10.0, -1, 1],
        ["x", 1.0, 6.0, 0, 1],
        ["y", 4.0, 8.0, 0, 1],   # overlaps x for 2
        ["z", 9.0, 12.0, 0, 1],  # runs past the parent: clipped to 1
    ]
    assert self_times(thread)[0] == 10.0 - (5.0 + 2.0 + 1.0)


def test_open_spans_keep_parent_indices_valid():
    thread = [
        ["blocked", 0.0, 0.0, -1, 1],  # still open when the recorder was read
        ["root", 1.0, 5.0, -1, 2],
        ["child", 2.0, 3.0, 1, 2],
    ]
    summary = summarize([thread])
    assert summary["root"]["self_s"] == 3.0
    assert summary["blocked"]["self_s"] == 0.0


def test_recorder_nests_spans_and_shares_the_request_id():
    rec = Recorder()

    def inner():
        return 1

    wrapped_inner = rec.wrap(inner, "inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = rec.wrap(outer, lambda: "outer.dynamic")
    assert wrapped_outer() == 2
    assert wrapped_outer() == 2
    (thread,) = rec.threads().values()
    names = [s[spans.NAME] for s in thread]
    assert names == ["outer.dynamic", "inner", "inner"] * 2
    first, second = thread[0], thread[3]
    assert first[spans.PARENT] == -1 and thread[1][spans.PARENT] == 0
    assert thread[1][spans.RID] == thread[2][spans.RID] == first[spans.RID]
    assert second[spans.RID] != first[spans.RID]
    assert summarize([thread])["inner"]["count"] == 4


def test_patch_function_rebinds_every_repro_module_global(monkeypatch):
    def original():
        return "x"

    defining = types.ModuleType("repro.fake_defining")
    importing = types.ModuleType("repro.fake_importing")
    outsider = types.ModuleType("elsewhere")
    for module in (defining, importing, outsider):
        module.fn = original
        monkeypatch.setitem(__import__("sys").modules, module.__name__, module)
    rec = Recorder()
    assert rec.patch_function(original, "layer.fn") == 2
    assert defining.fn is importing.fn and defining.fn is not original
    assert outsider.fn is original  # only repro.* modules are rebound
    assert defining.fn() == "x"
    rec.uninstall()
    assert defining.fn is original and importing.fn is original


def test_patch_method_handles_plain_and_static_methods():
    class Codec:
        def encode(self, x):
            return x + 1

        @staticmethod
        def decode(x):
            return x - 1

    rec = Recorder()
    rec.patch_method(Codec, "encode", "codec.encode")
    rec.patch_method(Codec, "decode", "codec.decode")
    assert Codec().encode(1) == 2 and Codec.decode(2) == 1 and Codec().decode(2) == 1
    rec.uninstall()
    assert isinstance(Codec.__dict__["decode"], staticmethod)
    (thread,) = rec.threads().values()
    assert [s[spans.NAME] for s in thread] == ["codec.encode", "codec.decode", "codec.decode"]


def test_manual_span_is_the_root_of_what_runs_inside_it():
    rec = Recorder()
    work = rec.wrap(lambda: None, "client.encode")
    with rec.span("client.insert"):
        work()
    report = breakdown_by_root(rec.threads().values(), "client.insert")
    assert report["roots"] == 1
    assert set(report["parts_mean_s"]) == {"client.insert", "client.encode"}
    assert sum(report["parts_mean_s"].values()) == pytest.approx(report["root_mean_s"])


def test_requests_are_rebuilt_between_decode_and_write():
    # One connection thread: wait for a frame, decode it, do the work, write.
    thread = [
        ["server.read", 0.0, 5.0, -1, 1],
        ["server.decode_binary", 4.0, 5.0, 0, 1],
        ["bdms.execute_prepared.insert", 6.0, 16.0, -1, 2],
        ["durability.append", 8.0, 14.0, 2, 2],
        ["server.write", 17.0, 20.0, -1, 3],
        ["server.encode_binary", 17.0, 18.0, 4, 3],
        ["server.read", 20.0, 0.0, -1, 4],  # blocked on the next frame
    ]
    report = request_breakdown(
        [thread], first="server.decode_binary", last="server.write",
        kind_prefix="bdms.",
    )
    insert = report["bdms.execute_prepared.insert"]
    assert insert["requests"] == 1
    assert insert["window_mean_s"] == 16.0  # decode start (4) to write end (20)
    parts = insert["parts_mean_s"]
    assert parts["durability.append"] == 6.0
    assert parts["bdms.execute_prepared.insert"] == 4.0
    assert parts["server.write"] == 2.0 and parts["server.encode_binary"] == 1.0
    assert parts["other"] == 2.0  # 5..6 and 16..17: no span covers them
    assert sum(parts.values()) == insert["window_mean_s"]

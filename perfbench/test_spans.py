"""Tests of the benchmark's tracer: `python3 -m pytest perfbench`."""

import importlib
import sys
import textwrap

import pytest

from spans import SpanTree, Tracer


def hand_built():
    # cli.main [0, 10]
    #   tasks.run_x [1, 8]
    #     forest.fit [2, 5]
    #       forest.TreeEnsemble.predict [3, 4]
    #     sigcore.stream_signature [6, 7.5]
    #   cli.ingest [8.5, 9]
    names = ["cli.main", "tasks.run_x", "forest.fit", "forest.TreeEnsemble.predict",
             "sigcore.stream_signature", "cli.ingest"]
    start = [0.0, 1.0, 2.0, 3.0, 6.0, 8.5]
    end = [10.0, 8.0, 5.0, 4.0, 7.5, 9.0]
    parent = [-1, 0, 1, 2, 1, 0]
    return SpanTree(names, start, end, parent)


def test_self_time_is_duration_minus_children():
    tree = hand_built()
    assert tree.self_times() == pytest.approx([10 - 7 - 0.5, 7 - 3 - 1.5, 3 - 1, 1, 1.5, 0.5])


def test_layer_self_times_sum_to_root_duration():
    own = hand_built().layer_self()
    assert own["cli"] == pytest.approx(3.0)
    assert own["tasks"] == pytest.approx(2.5)
    assert own["forest"] == pytest.approx(3.0)
    assert own["sigcore"] == pytest.approx(1.5)
    assert own["metrics"] == 0.0
    assert sum(own.values()) == pytest.approx(10.0)


def test_inclusive_counts_nested_calls_once():
    tree = hand_built()
    assert tree.inclusive({"forest.fit", "forest.TreeEnsemble.predict"}) == pytest.approx(3.0)
    assert tree.inclusive({"forest.TreeEnsemble.predict"}) == pytest.approx(1.0)
    assert tree.self_within({"tasks.run_x"}, "forest") == pytest.approx(3.0)
    assert tree.children_of({"tasks.run_x"}) == 2
    assert tree.count({"cli.ingest", "forest.fit"}) == 2


def test_parent_must_precede_child():
    with pytest.raises(ValueError):
        SpanTree(["a", "b"], [0, 1], [2, 2], [1, -1])


def test_dump_round_trips():
    tracer = Tracer()
    outer = tracer.wrap("cli.main", lambda: inner() + 1)
    inner = tracer.wrap("tasks.run", lambda: 1)
    assert outer() == 2
    tree = SpanTree.load(tracer.dump())
    assert tree.names == ["cli.main", "tasks.run"]
    assert tree.parent == [-1, 0]
    assert sum(tree.self_times()) == pytest.approx(tree.duration[0])


def test_install_rebinds_names_where_callers_look_them_up(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(textwrap.dedent("""
        def leaf(x):
            return x + 1

        def outer(x):
            return leaf(x) * 2

        class Model:
            def predict(self, x):
                return outer(x)
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import Model, outer

        COMMANDS = {"outer": outer}

        def main(x):
            return COMMANDS["outer"](x) + outer(x) + Model().predict(x)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        package = importlib.import_module("fakepkg")
        tracer = Tracer()
        tracer.install(package, {"low.outer": lambda a, k, r: r})
        high = sys.modules["fakepkg.high"]
        assert high.main(1) == 12
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
            del sys.modules[name]
    tree = SpanTree.load(tracer.dump())
    assert tree.names == [
        "high.main",
        "low.outer", "low.leaf",
        "low.outer", "low.leaf",
        "low.Model.predict", "low.outer", "low.leaf",
    ]
    assert tree.parent == [-1, 0, 1, 0, 3, 0, 5, 6]
    assert tracer.kept["low.outer"] == [4, 4, 4]

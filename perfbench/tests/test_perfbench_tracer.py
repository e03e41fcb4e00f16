"""The tracer's time arithmetic and the installation of its wrappers."""

import contextlib
import io

import pytest

import modform.cli
import modform.models
import tracer as T
import workloads as W


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def wrapped(tr, clock, **bodies):
    """Wrap functions that call each other through the returned dict."""
    fns = {}
    for name, body in bodies.items():
        fns[name] = tr.wrap(name, lambda *a, _b=body: _b(fns, clock, *a), span=True)
    return fns


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = T.Tracer(clock)

    def leaf(fns, c):
        c.advance(1.0)

    def mid(fns, c):
        c.advance(2.0)
        fns["leaf"]()
        c.advance(0.5)

    def top(fns, c):
        fns["mid"]()
        fns["leaf"]()
        c.advance(3.0)

    fns = wrapped(tr, clock, leaf=leaf, mid=mid, top=top)
    fns["top"]()
    assert tr.stats == {
        "leaf": [2, 2.0, 2.0],
        "mid": [1, 3.5, 2.5],
        "top": [1, 7.5, 3.0],
    }
    assert sum(s[2] for s in tr.stats.values()) == tr.stats["top"][1]
    parents = {s["name"]: s["parent"] for s in tr.spans}
    by_id = {s["id"]: s["name"] for s in tr.spans}
    assert parents["top"] is None and by_id[parents["mid"]] == "top"
    assert [by_id[s["parent"]] for s in tr.spans if s["name"] == "leaf"] == ["mid", "top"]


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    tr = T.Tracer(clock)

    def down(fns, c, n):
        c.advance(1.0)
        if n > 1:
            fns["down"](n - 1)

    fns = wrapped(tr, clock, down=down)
    fns["down"](3)
    assert tr.stats["down"] == [3, 3.0, 3.0]


def test_exception_still_records_and_unwinds():
    clock = FakeClock()
    tr = T.Tracer(clock)

    def boom(fns, c):
        c.advance(1.0)
        raise ValueError

    def outer(fns, c):
        with pytest.raises(ValueError):
            fns["boom"]()
        c.advance(2.0)

    fns = wrapped(tr, clock, boom=boom, outer=outer)
    fns["outer"]()
    assert tr.stats == {"boom": [1, 1.0, 1.0], "outer": [1, 3.0, 2.0]}
    assert tr._frames == [] and tr._open_spans == []


def leftover_wrappers():
    found = []
    for mod in T.package_modules("modform"):
        for key, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("modform"):
                found += [f"{value.__name__}.{k}" for k, v in vars(value).items()
                          if hasattr(v, "__perfbench_original__")]
    return found


def test_install_patches_every_importing_namespace_and_undo_restores():
    original = modform.models.model_class
    original_ext = modform.models.ModelClass.__dict__["ext"]
    holders = [(mod, key) for mod in T.package_modules("modform")
               for key, value in vars(mod).items() if value is original]
    assert {m.__name__ for m, _ in holders} >= {"modform.models", "modform.cli", "modform.duality"}

    tr = T.Tracer()
    targets = [("modform.models", "model_class", False, None),
               ("modform.models", "ModelClass.ext", False, None)]
    inst = T.install(tr, targets, "modform")
    try:
        for mod, key in holders:
            assert getattr(mod, key).__perfbench_original__ is original
        assert modform.models.ModelClass.ext.__perfbench_original__ is original_ext
        with contextlib.redirect_stdout(io.StringIO()):
            modform.cli.main(["models", str(W.HERE / "theories" / "P1.thy"),
                              "--index-size", "1", "--format", "json"])
        assert tr.stats["models.model_class"][0] == 1
    finally:
        inst.undo()
    for mod, key in holders:
        assert getattr(mod, key) is original
    assert modform.models.ModelClass.__dict__["ext"] is original_ext
    assert leftover_wrappers() == []


def test_every_layer_target_installs_and_undoes_fully():
    import importlib

    import modform  # noqa: F401  (loads every module of the package)

    def namespaces():
        return {(m.__name__, k): v for m in T.package_modules("modform") for k, v in vars(m).items()}

    before = namespaces()
    inst = T.install(T.Tracer(), W.TRACE_TARGETS, "modform")
    try:
        for module_name, qualname, _, _ in W.TRACE_TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert hasattr(vars(owner)[attr], "__perfbench_original__"), qualname
    finally:
        inst.undo()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert leftover_wrappers() == []

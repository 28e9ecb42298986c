"""Package layout: a dotted path always names the module itself."""
import importlib
import inspect


def test_submodules_are_not_shadowed_by_reexports():
    import repro.core.pagerank as pagerank_mod
    import repro.datasets.wikilink as wikilink_mod

    assert inspect.ismodule(importlib.import_module("repro.core.pagerank"))
    assert inspect.ismodule(pagerank_mod)
    assert inspect.ismodule(wikilink_mod)

"""Programs outside the package reach it only through module attributes.

The benchmark's workloads and self-test, the tools and the README's library
example run outside this suite. A name they use that the package no longer
has would fail them with an ``AttributeError`` or ``ImportError``, so each one
is checked here. The self-test names ``CachedImageProvider`` only as a string:
the class is gone, and the test that deletes it is a known failure.
"""

import importlib
import re
from pathlib import Path

import homolink

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "DiagramPoint", "ESSENTIAL_0", "EXTENDED_1", "ORDINARY_ASCENDING", "PersistenceDiagram",
    "RELATIVE_DESCENDING", "DiscreteMeasure", "Graph", "ImageSpec", "apply_ricci_weights",
    "bench_compare", "build_filtration", "diagram_via_reduction", "distance_sum_filter",
    "enclosing_subgraph", "fast_extended_diagram", "init_model", "loss_and_gradients",
    "make_split", "pair_diagram", "pair_image_table", "pair_rows", "persistence_image",
    "run_link_prediction", "sbm_generate", "wasserstein1",
}


def callers():
    """(name, Python source) of every program outside the package that imports it."""
    paths = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "selftest.py"]
    paths += sorted((ROOT / "tools").glob("*.py"))
    for path in paths:
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        yield "README.md", block


def used_names(source):
    """(module, name) for each ``alias.name`` of an ``import homolink... as alias`` and
    each name of a ``from homolink... import`` line."""
    aliases = {a: m for m, a in re.findall(r"^import (homolink[\w.]*) as (\w+)", source, re.M)}
    used = {(aliases[a], name) for a, name in re.findall(r"\b(\w+)\.(\w+)", source) if a in aliases}
    for module, names in re.findall(r"^\s*from (homolink[\w.]*) import ([\w, ]+)", source, re.M):
        used |= {(module, name.split()[0]) for name in names.split(",") if name.strip()}
    return used


def test_callers_use_only_existing_program_names():
    missing = []
    for caller, source in callers():
        used = used_names(source)
        assert used, f"{caller} uses no program name"
        missing += [
            f"{caller}: {module}.{name}"
            for module, name in sorted(used)
            if not hasattr(importlib.import_module(module), name)
        ]
    assert missing == []


def test_package_exports_exactly_the_public_surface():
    exported = {
        name
        for name, value in vars(homolink).items()
        if not name.startswith("_") and not isinstance(value, type(homolink))
    }
    assert exported == PUBLIC

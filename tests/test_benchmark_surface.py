"""The benchmark's workloads reach the program only through module attributes.

A name they use that the package no longer has would fail every benchmark run
with an ``AttributeError``, so each one is checked here.
"""

import importlib
import re
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = {"hl": "homolink", "hio": "homolink.io", "hexp": "homolink.experiment"}


def test_workloads_use_only_existing_program_names():
    source = WORKLOADS.read_text()
    for alias, module in MODULES.items():
        assert f"import {module} as {alias}\n" in source
    used = set(re.findall(r"\b(hl|hio|hexp)\.(\w+)", source))
    assert {alias for alias, _ in used} == set(MODULES)
    missing = sorted(
        f"{MODULES[alias]}.{name}"
        for alias, name in used
        if not hasattr(importlib.import_module(MODULES[alias]), name)
    )
    assert missing == []

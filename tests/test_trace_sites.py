"""The benchmark's traced run wraps provlab names by (module, attribute).

A refactor that drops or renames one of those names breaks `perfbench/run.py
--trace 1`, so every site is checked here against the loaded package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_site_resolves():
    sites = _load_tracing().SITES
    assert sites
    missing = []
    for module, attr, _, _ in sites:
        target = getattr(importlib.import_module(module), attr, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []

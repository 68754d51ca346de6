"""The benchmark's tracer can rebind every plenocal name it lists.

``bench/run.py --trace 1`` wraps the entries of ``workloads.patch_table`` in
place; a name that moved or was renamed would break the traced run only.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_patch_table_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        table = workloads.patch_table(workloads.load_api())
    finally:
        del sys.modules[spec.name]
    assert table
    missing = [(getattr(owner, "__name__", "api"), attr)
               for owner, attr, *_ in table if not hasattr(owner, attr)]
    assert missing == []

"""The benchmark's tracer rebinds the functions named in
``bench/spans.TRACED`` and fails on a name the package no longer has;
check that every one of them still resolves."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_spans().TRACED
    missing = [
        f"{module_name}.{fn_name}"
        for module_name, names in traced.items()
        for fn_name in names
        if not callable(getattr(importlib.import_module(f"leafalg.{module_name}"), fn_name, None))
    ]
    assert traced and not missing

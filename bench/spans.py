"""Spans around leafalg's public functions, recorded from outside.

The tracer rebinds each function listed in ``TRACED`` to a wrapper in
every ``leafalg`` module that holds the same function object: a call is
only caught through the binding it goes through, and ``buchberger``, for
one, is imported into ``groebner``, ``geom``, ``vfields`` and ``cli``.
The per-monomial helpers (``mono_*``, ``leading_monomial``,
``leading_term``) are left alone: there are hundreds of thousands of
them per job and wrapping them distorts every self time.

Spans stay in memory as tuples (id, parent id, job, function, start ns,
end ns, extra) and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ["main", "load_input", "run", "render_report"],
    "poly": ["parse_poly"],
    "groebner": [
        "buchberger",
        "colength_local",
        "normal_form",
        "monomial_basis",
        "minors",
        "poincare_series",
        "krull_dimension",
    ],
    "linalg": ["rref"],
    "geom": ["hp0_series", "milnor_breakdown", "tjurina", "rank_strata", "jacobian_chain"],
    "vfields": [
        "hamiltonian_family_top",
        "field_from_form",
        "derivations_up_to_degree",
        "incompressibility_truncated",
        "exceptional_ideal",
        "lie_closure",
    ],
    "coinv": ["coinvariants_truncated", "verify_hp0"],
    "sympower": ["brute_sym2_coinvariants", "hp0_sym_series"],
}


def _matrix_shape(args, result):
    """(rows, cols, nonzero entries) of the matrix handed to rref."""
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    return (len(rows), cols, sum(1 for row in rows for v in row if v))


def _basis_size(args, result):
    return len(result.elements)


# extra facts recorded on a span, from the call's arguments and result
EXTRA = {"linalg.rref": _matrix_shape, "groebner.buchberger": _basis_size}


class Tracer:
    """Collects spans of the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self._stack = [0]
        self._next_id = 1
        self._restore: list[tuple] = []

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "leafalg"]
        for module_name, names in TRACED.items():
            home = sys.modules[f"leafalg.{module_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stack, spans, extra_of = self._stack, self.spans, EXTRA.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = extra_of(args, result) if extra_of and result is not None else None
                spans.append((span_id, parent, self.job, name, start, end, extra))

        return traced

    def write(self, path, jobs: list[str]):
        """Write every span recorded, with the job names they refer to."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"jobs": jobs, "spans": self.spans}, handle)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children
    (single thread, so children never overlap)."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def summarize(spans) -> dict:
    """Per-function calls and self seconds plus the extra counts named in
    the benchmark: Buchberger basis sizes, Buchberger calls nested under
    ``colength_local``, and the shapes of the matrices given to rref."""
    own = self_times(spans)
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[3] for s in spans}
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    basis_elems = nested_gb = cells = max_cells = nonzero = 0
    for span_id, parent, _job, name, _start, _end, extra in spans:
        calls[name] += 1
        self_ns[name] += own[span_id]
        if name == "groebner.buchberger":
            basis_elems += extra or 0
            up = parent
            while up in name_of and name_of[up] != "groebner.colength_local":
                up = parent_of[up]
            nested_gb += up in name_of
        elif name == "linalg.rref" and extra:
            rows, cols, nz = extra
            cells += rows * cols
            max_cells = max(max_cells, rows * cols)
            nonzero += nz
    return {
        "calls": dict(calls),
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "basis_elems": basis_elems,
        "colength_buchberger": nested_gb,
        "rref_cells": cells,
        "rref_max_cells": max_cells,
        "rref_nonzero": nonzero,
    }

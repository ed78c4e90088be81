"""Tier-1 guard for the surface the bench ledger stands on.

``bench_ledger/`` measures the system from outside: ``spans.py`` wraps
classes, methods and module functions by name, and the five ``wl_*.py``
workloads import ``repro`` names inside their functions. A subtraction
that removes or renames one of those breaks a benchmark run long after
tier-1 passed — so the names are resolved here, where a PR's tests run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

import pytest

LEDGER = pathlib.Path(__file__).resolve().parents[1] / "bench_ledger"
WORKLOADS = sorted(LEDGER.glob("wl_*.py"))

#: Methods the workloads call on the objects they build (beyond the ones
#: ``install_layer_spans`` patches, which it resolves itself).
CALLED = {
    "repro.bdms.bdms:BeliefDBMS": (
        "add_user", "insert", "query", "believes", "prepare",
        "execute_prepared", "execute_batch", "commit_transaction",
        "lifecycle_propose", "lifecycle_transition", "lifecycle_decay_sweep",
        "audit_log", "provenance", "relative_overhead", "snapshot_stats",
        "close",
    ),
    "repro.server:BeliefClient": (
        "login", "ping", "prepare", "execute_prepared", "execute_batch",
        "drain", "begin", "commit", "believes", "stats", "metrics", "call",
        "close",
    ),
    "repro.server:AsyncBeliefClient": ("connect", "prepare", "call", "close"),
    "repro.server.server:ReadWriteLock": ("acquire_read", "acquire_write"),
    "repro.api.connection:Connection": ("cursor", "close"),
    "repro.api.cursor:Cursor": ("execute",),
}


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_ledger_spans", LEDGER / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_install_and_uninstall():
    from repro.bdms.bdms import BeliefDBMS
    from repro.storage import updates

    spans = _load_spans()
    originals = (BeliefDBMS.__dict__["insert"], updates.insert_tuple)
    recorder = spans.Recorder()
    try:
        spans.install_layer_spans(recorder)
        assert BeliefDBMS.__dict__["insert"] is not originals[0]
        assert updates.insert_tuple is not originals[1]
    finally:
        recorder.uninstall()
    assert (BeliefDBMS.__dict__["insert"], updates.insert_tuple) == originals


def _repro_imports(path: pathlib.Path) -> list[tuple[str, str | None]]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro"
        ):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None) for alias in node.names
                if alias.name.startswith("repro")
            ]
    return found


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_workload_imports_resolve(workload):
    imports = _repro_imports(workload)
    assert imports, f"{workload.name} imports nothing from repro?"
    for module_name, attr in imports:
        module = importlib.import_module(module_name)
        if attr is not None:
            assert hasattr(module, attr), f"{module_name}.{attr} is gone"


def test_workloads_are_found():
    assert WORKLOADS, f"no wl_*.py under {LEDGER}: the guard guards nothing"


@pytest.mark.parametrize("target", sorted(CALLED))
def test_called_methods_exist(target):
    module_name, cls_name = target.split(":")
    cls = getattr(importlib.import_module(module_name), cls_name)
    missing = [name for name in CALLED[target] if not hasattr(cls, name)]
    assert not missing, f"{target} lost {missing}"


def test_explicit_db_is_a_belief_database_read_from_v():
    """``wl_table2.py`` reads ``store.explicit_db`` and ``evaluate_lazy``:
    the explicit statements as a core database, and Def. 14 over them."""
    from repro.bdms.bdms import BeliefDBMS
    from repro.core.database import BeliefDatabase
    from repro.core.schema import sightings_schema
    from repro.query.lazy import evaluate_lazy
    from repro.query.naive import evaluate_naive
    from repro.query.parser import parse_bcq

    db = BeliefDBMS(sightings_schema())
    db.add_user("Ann")
    db.add_user("Ben")
    row = ("s1", "u", "crow", "d", "l")
    db.insert(["Ann"], "Sightings", row)
    db.insert(["Ben"], "Sightings", row, sign="-")
    db.insert(["Ann", "Ben"], "Sightings", ("s2",) + row[1:])
    db.delete(["Ann"], "Sightings", row)
    store = db.store
    explicit = store.explicit_db
    assert isinstance(explicit, BeliefDatabase)
    assert explicit.statements() == set(store.explicit_statements())
    assert len(explicit) == db.annotation_count() == 2
    answers = []
    for text in (
        "q(s, sp) :- [1, 2] Sightings+(s, u, sp, d, l)",
        "q(x, s) :- [x, 2] Sightings+(s, u, sp, d, l)",
        "q(u) :- [1, 2] Sightings+(k, u, sp, d, l), "
        "[1, 2] Sightings-('s1', u, sp, d, l)",
    ):
        query = parse_bcq(text, db.schema)
        answers.append(evaluate_lazy(store, query))
        assert answers[-1] == evaluate_naive(explicit, query, users=store.users())
    assert all(answers)

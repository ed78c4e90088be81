"""BENCHMARK.json, ledger.json and the runner name the same things."""

import json
import re
from pathlib import Path

import metrics
import run

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = json.loads((ROOT / "bench_ledger" / "ledger.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_has_exactly_the_contract_keys():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["bench_ledger"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * 30 <= 3420  # each run, set-up included, must average under 30 s


def test_workloads_match_the_runner():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_tables_match_the_runner():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in MANIFEST["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in MANIFEST["per_layer"]] == list(metrics.PER_LAYER)
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"])
    assert all(0 <= m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert len(MANIFEST["end_to_end"]) <= 16 and len(MANIFEST["per_layer"]) <= 128
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_ledger_explains_every_metric_on_every_workload():
    assert set(LEDGER["input_sha256"]) == set(run.WORKLOADS)
    for m in metrics.END_TO_END:
        assert set(LEDGER["end_to_end"][m[0]]["on"]) == set(run.WORKLOADS), m[0]
    assert set(LEDGER["per_layer"]) == {m[0] for m in metrics.PER_LAYER}
    assert LEDGER["uncovered_layers"]

import json

import compare


def metric(median, spread=0.01, better="lower", bound=0.10):
    return {"unit": "ms", "better": better, "bound": bound, "median": median,
            "spread": spread, "values": [median]}


def ledger(**metrics):
    return {"workloads": {"w": {"end_to_end": metrics}}}


def verdicts(a, b):
    return {r["metric"]: r["verdict"] for r in compare.compare(a, b)}


def test_within_the_bound_is_ok_and_beyond_it_is_worse():
    a = ledger(lat=metric(10.0), rate=metric(100.0, better="higher"))
    assert verdicts(a, ledger(lat=metric(10.9), rate=metric(91.0, better="higher"))) == {
        "lat": "ok", "rate": "ok"}
    assert verdicts(a, ledger(lat=metric(11.5), rate=metric(85.0, better="higher"))) == {
        "lat": "worse", "rate": "worse"}


def test_an_improvement_is_never_worse():
    a = ledger(lat=metric(10.0), rate=metric(100.0, better="higher"))
    b = ledger(lat=metric(5.0), rate=metric(300.0, better="higher"))
    assert set(verdicts(a, b).values()) == {"ok"}


def test_spread_wider_than_the_bound_is_unresolved_never_unchanged():
    a = ledger(lat=metric(10.0, spread=0.15))
    assert verdicts(a, ledger(lat=metric(10.0)))["lat"] == "unresolved"
    # Even a large apparent regression cannot be called from such runs.
    assert verdicts(ledger(lat=metric(10.0)), ledger(lat=metric(20.0, spread=0.3)))["lat"] == "unresolved"


def test_a_zero_bound_flags_any_worsening_of_an_exact_count():
    a = ledger(rows=metric(141.0, spread=0.0, bound=0.0))
    assert verdicts(a, ledger(rows=metric(141.0, spread=0.0, bound=0.0)))["rows"] == "ok"
    assert verdicts(a, ledger(rows=metric(141.5, spread=0.0, bound=0.0)))["rows"] == "worse"


def test_exit_code_is_one_only_when_something_is_worse(tmp_path, capsys):
    a, ok, bad = tmp_path / "a.json", tmp_path / "ok.json", tmp_path / "bad.json"
    a.write_text(json.dumps(ledger(lat=metric(10.0))))
    ok.write_text(json.dumps(ledger(lat=metric(10.5))))
    bad.write_text(json.dumps(ledger(lat=metric(12.0))))
    assert compare.main([str(a), str(ok)]) == 0
    assert compare.main([str(a), str(bad)]) == 1
    assert "worse" in capsys.readouterr().out

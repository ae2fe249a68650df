"""``bench timings --smoke``: compile time enters the perf-history gate."""

from __future__ import annotations

from repro.bench import history, record
from repro.bench.timings_cli import SMOKE_CELLS, timings_metrics, timings_report


def test_smoke_cli_appends_a_gateable_record(tmp_path, monkeypatch, capsys):
    from repro.bench.__main__ import main

    monkeypatch.setenv("REPRO_BENCH_HISTORY_DIR", str(tmp_path))
    assert main(["prog", "timings", "--smoke", "--repeats", "1"]) == 0
    assert "pipeline" in capsys.readouterr().out
    (rec,) = history.load_records(str(tmp_path))
    assert rec["benchmark"] == "timings"
    assert rec["schema_version"] == record.SCHEMA_VERSION
    for app, build in SMOKE_CELLS:
        key = f"{app}/{build}"
        pipeline = rec["metrics"][f"wall/pipeline_s/{key}"]
        assert pipeline["kind"] == record.KIND_WALL and pipeline["value"] > 0
        assert rec["metrics"][f"wall/pass_s/cleanup/{key}"]["value"] > 0
        visited = rec["metrics"][f"model/functions_visited/{key}"]
        skipped = rec["metrics"][f"model/functions_skipped/{key}"]
        assert visited["kind"] == skipped["kind"] == record.KIND_MODEL
        assert visited["value"] > 0 and skipped["value"] > 0
    # A second run gates against the first.
    assert main(["prog", "timings", "--smoke", "--repeats", "1"]) == 0
    outcome = history.baseline_compare(str(tmp_path))
    (result,) = outcome["results"]
    assert result["benchmark"] == "timings" and result["metrics_compared"] > 0


def test_visited_and_skipped_counts_are_deterministic():
    cells = SMOKE_CELLS[:1]
    a = timings_metrics(timings_report(cells, repeats=1))
    b = timings_metrics(timings_report(cells, repeats=1))
    model = [name for name in a if name.startswith("model/")]
    assert model and all(a[n]["value"] == b[n]["value"] for n in model)

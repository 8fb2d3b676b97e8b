"""The result line names every metric of BENCHMARK.json with its unit."""

import json
import math

import pytest

from metrics import END_TO_END, PER_LAYER, result_line


@pytest.mark.parametrize("trace, table", [(False, END_TO_END), (True, PER_LAYER)])
def test_result_line_prints_every_metric_with_its_unit(trace, table):
    values = {m["name"]: float(i) + 0.5 for i, m in enumerate(table)}
    doc = json.loads(result_line(True, 3, 1, values, trace))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (True, 3, 1)
    assert list(doc["metrics"]) == [m["name"] for m in table]
    for metric in table:
        assert doc["metrics"][metric["name"]] == {
            "value": values[metric["name"]], "unit": metric["unit"],
        }


@pytest.mark.parametrize("trace, table", [(False, END_TO_END), (True, PER_LAYER)])
def test_result_line_refuses_partial_or_unknown_metrics(trace, table):
    values = {m["name"]: 1.0 for m in table}
    missing = dict(values)
    del missing[table[-1]["name"]]
    with pytest.raises(ValueError, match="not measured"):
        result_line(True, 1, 0, missing, trace)
    with pytest.raises(ValueError, match="unknown"):
        result_line(True, 1, 0, dict(values, bogus=1.0), trace)
    with pytest.raises(ValueError, match="nan"):
        result_line(True, 1, 0, dict(values, **{table[0]["name"]: math.nan}), trace)
    with pytest.raises(ValueError, match="at least one op"):
        result_line(True, 0, 0, values, trace)


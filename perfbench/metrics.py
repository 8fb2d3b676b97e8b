"""Metric tables and the result line every benchmark run ends with.

The tables are read from ``BENCHMARK.json`` at the repository root, the
one place that names the metrics, their units and bounds.  Every
workload reports every metric of the table its mode prints, so a metric
that a workload does not exercise reads 0 in the per-layer table;
end-to-end metrics are defined for all four workloads.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Mapping

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)

with open(SPEC_PATH) as _fh:
    _SPEC = json.load(_fh)

#: ``{"name", "unit", "better", "bound"}`` rows, in ``BENCHMARK.json`` order.
END_TO_END: List[Dict[str, Any]] = _SPEC["end_to_end"]
#: ``{"name", "unit", "better"}`` rows, in ``BENCHMARK.json`` order.
PER_LAYER: List[Dict[str, Any]] = _SPEC["per_layer"]


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, float],
    trace: bool,
) -> str:
    """The JSON object that ends a run's standard output.

    Raises ``ValueError`` when a metric of the run's table is missing,
    unknown or not a finite number, so a run can never print a partial
    result.  A traced run prints the per-layer table, else the
    end-to-end one.
    """
    wanted = PER_LAYER if trace else END_TO_END
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    if unknown:
        raise ValueError(f"unknown metrics: {', '.join(unknown)}")
    metrics: Dict[str, Dict[str, object]] = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            raise ValueError(f"metric {name} was not measured")
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    if attempted < 1:
        raise ValueError("a run must attempt at least one op")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })

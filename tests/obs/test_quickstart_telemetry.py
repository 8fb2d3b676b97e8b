"""The quickstart example, run with telemetry, writes usable artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.obs import read_jsonl

ROOT = Path(__file__).resolve().parents[2]


def test_quickstart_telemetry_and_trace(tmp_path, capsys):
    jsonl = tmp_path / "quickstart.telemetry.jsonl"
    trace = tmp_path / "quickstart.trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "examples" / "quickstart.py"),
         "--telemetry", str(jsonl), "--trace-events", str(trace)],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )

    run = read_jsonl(str(jsonl))
    assert run["spans"] and run["metrics"]
    names = {span["name"] for span in run["spans"]}
    assert {"pipeline", "static", "dynamic", "coverage"} <= names
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]

    assert main(["telemetry-report", str(jsonl)]) == 0
    assert "pipeline" in capsys.readouterr().out

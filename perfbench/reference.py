"""Write ``reference.json``: the digests every op is checked against.

The digests come from the reference configuration — the interp engine
(the readable reference semantics of TDF), the scan matcher and serial,
unbatched mutation — on the benchmark's fixed inputs::

    python3 perfbench/reference.py
    git diff --exit-code perfbench/reference.json   # unchanged?

It takes about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import REFERENCE_PATH, WORKLOADS, summary_digest  # noqa: E402

REFERENCE_CONFIG = {"engine": "interp", "matcher": "scan", "batch_size": None}


def compute() -> dict:
    from repro import DftConfig
    from repro.systems.campaigns import buck_boost_campaign

    config = DftConfig(**REFERENCE_CONFIG)
    digests = {}
    for cls in WORKLOADS.values():
        workload = cls(config)
        workload.setup()
        output = workload.op()
        problems = workload.shape_problems(output)
        if problems:
            raise SystemExit(f"reference {cls.name}: {'; '.join(problems)}")
        digests.update(workload.digests(output))
    records = buck_boost_campaign(config=config).run()
    digests["service.campaign_coverage"] = summary_digest(records[-1].coverage)
    return {"config": REFERENCE_CONFIG, "digests": dict(sorted(digests.items()))}


def main() -> int:
    payload = compute()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

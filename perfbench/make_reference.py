"""Record the full-transient verdicts the ``dictionary_prescreen``
workload is checked against.

For every PRBS seed the workload can pick, run the 64-fault dictionary
campaign without the prescreen (serial, every fault through the MNA
transient) and write the ``detected`` list to
``perfbench/reference/prescreen_verdicts.json``.  The file is
committed; re-run this only when the dictionary workload changes::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from repro.faults.campaign import FaultCampaign  # noqa: E402
from repro.faults.dictionary import SignatureDetector  # noqa: E402
from repro.service.spec import CampaignSpec  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    verdicts = {}
    faults = None
    for seed in workloads.DictionaryPrescreen.PRBS_SEEDS:
        target, technique, faults = workloads.prescreen_workload(seed)
        campaign = FaultCampaign(technique, SignatureDetector(abs_v=0.05),
                                 threshold=0.05)
        result = campaign.run(spec=CampaignSpec(target=target,
                                                faults=faults))
        if result.n_errors:
            raise SystemExit(f"PRBS seed {seed}: {result.n_errors} errors")
        verdicts[str(seed)] = [o.detected for o in result.outcomes]
        print(f"PRBS seed {seed}: {sum(verdicts[str(seed)])}/64 detected",
              flush=True)
    doc = {
        "what": "full-transient (no prescreen) verdicts of the 64-fault "
                "RC-ladder dictionary, per PRBS seed",
        "faults": [f.describe() for f in faults],
        "verdicts": verdicts,
    }
    workloads.PRESCREEN_REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    workloads.PRESCREEN_REFERENCE.write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Write expected.json: each pair's outputs for every workload and relabelling.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are the reference; the benchmark
fails any later pass whose outputs differ. Every recorded row must pass
the construction checks first.
"""

import json
import sys

from run import HERE, ROOT, _git_commit, load_library, source_identity

load_library()

from pipeline import OUTPUT_FIELDS, check_outcome, plain_api, run_pass  # noqa: E402
from workloads import VARIANTS, WORKLOADS, variant_pairs  # noqa: E402


def main() -> int:
    outputs = {}
    for workload in WORKLOADS:
        for variant in range(VARIANTS[workload]):
            _, _, runs = run_pass(variant_pairs(workload, variant, ROOT), plain_api())
            rows = {}
            for run in runs:
                issues = [run.error] if run.error else check_outcome(run.outcome, None)
                if issues:
                    sys.exit(f"{workload} relabelling {variant} {run.pair_id}: {issues}")
                rows[run.pair_id] = list(run.outcome.outputs())
            outputs.setdefault(workload, {})[str(variant)] = rows
            print(f"{workload} relabelling {variant}: {len(rows)} pairs", flush=True)
    doc = {
        "fields": list(OUTPUT_FIELDS),
        "recorded_with": {"git_commit": _git_commit(), **source_identity()},
        "outputs": outputs,
    }
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

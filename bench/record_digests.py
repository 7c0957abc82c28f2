"""Record the CSV and SVG digests of the bundled experiments.

    python3 bench/record_digests.py

The ``diffusion_small`` workload fails every run whose output bytes
differ from the digests written here, because the CLI promises
byte-identical output.  Run it only at a commit whose output is known
to be right.
"""

import json
import sys

import run

if run.import_library() is None:
    sys.exit(f"error: no digital_pde package under {run.SRC}")

from digital_pde import experiments  # noqa: E402

import workloads  # noqa: E402

digests = {}
for exp_id in experiments.EXPERIMENT_IDS:
    result, csv, svg = workloads.render_experiment(exp_id)
    if not result.ok:
        sys.exit(f"error: experiment {exp_id} fails: {result.failures}")
    digests[exp_id] = workloads.output_digests(csv, svg)
with open(workloads.DIGESTS_PATH, "w") as f:
    json.dump(digests, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {workloads.DIGESTS_PATH}")

"""Record the metric-scale reference task's outputs into bench/reference.json.

    python3 bench/record_reference.py

Run from the root of a checkout, on the commit whose outputs are the
reference.  The reference inputs do not depend on any workload seed.
"""

import json

from run import import_program

import_program()
import workloads  # noqa: E402

values = workloads.reference_values(workloads.reference_inputs())
with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
    fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in values.items())
             + "\n}\n")
print(f"wrote {workloads.REFERENCE_PATH}")

"""One set-up, timed from outside by run.py: a fresh interpreter imports
`antipal.cli` and builds a workload's inputs through the package's own
parsers, from the generated texts run.py wrote to a JSON file.

    python3 perfbench/setup_probe.py <src dir> <workload> <inputs.json>

Prints the digest of the morphism texts the package parsed.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])
import antipal.cli  # noqa: E402,F401  (the import every CLI call pays)

import inputs  # noqa: E402
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[2]]
with open(sys.argv[3]) as fh:
    data = json.load(fh)
print(inputs.digest(workload.setup(data)))

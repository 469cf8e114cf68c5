"""Run one `antipal` command in this fresh interpreter with the layer tracer on.

    python3 perfbench/traced_cli.py <spans.json> <antipal arguments...>

Records the import of `antipal.cli` and the command as spans, writes the
spans and counts to <spans.json> and exits with the command's exit code.
"""

import json
import sys

from spans import Tracer

tracer = Tracer()
tracer.job = sys.argv[2]
with tracer.span("cli.import"):
    import antipal.cli
tracer.install()
try:
    with tracer.span("cli.main"):
        code = antipal.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
sys.exit(code)

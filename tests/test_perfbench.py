"""The span tracer patches names bound in the package; each must exist."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_binding_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for _, sites, _ in spans.GROUPS for site in sites]
    assert sites
    for module, attribute in sites:
        target = reduce(getattr, attribute.split("."), importlib.import_module(module))
        assert callable(target), (module, attribute)

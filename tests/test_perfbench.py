"""The span tracer patches names bound in the package; each must exist."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_binding_sites_resolve():
    spans = _spans()
    sites = [site for _, sites, _ in spans.GROUPS for site in sites]
    assert sites
    for module, attribute in sites:
        target = reduce(getattr, attribute.split("."), importlib.import_module(module))
        assert callable(target), (module, attribute)


def test_tracer_sees_the_lazily_imported_layers(capsys):
    # cli imports build_index when a command runs, and the kernel imports
    # numpy on its first call: both still route through the wrappers
    from antipal import cli, language

    original = language.build_index
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["factors", "0->01,1->10", "--max-len", "8", "--prefix-len", "2000"]) == 0
        assert cli.main(["classify", "0->0101,1->1100", "--prefix-len", "2000"]) == 0
    finally:
        tracer.uninstall()
        # the tracer bound cli.build_index, which cli.__getattr__ resolved; drop it
        vars(cli).pop("build_index", None)
    capsys.readouterr()
    assert language.build_index is original and cli.build_index is original
    names = {span[0] for span in tracer.spans}
    assert {"language.build_index", "words.longest_antipalindrome"} <= names
    # the call counts of the same two commands at the eagerly importing
    # parent, but for the C = 64 letters the index keys past its 2000-letter
    # prefix (fixed_point_prefix reads 2064 letters for it)
    assert {name: dict(counts) for name, counts in tracer.counts.items()} == {
        "language.build_index": {"calls": 1, "stable_up_to": 8},
        "language.census": {"calls": 1, "lengths": 8},
        "membership.classify": {"calls": 1},
        "membership.witnesses": {"calls": 2, "hits": 0},
        "morphisms.conjugacy_chain": {"calls": 2, "chain_len": 2},
        "morphisms.fixed_point_prefix": {"calls": 2, "letters": 10064},
        "morphisms.square": {"calls": 1},
        "words.longest_antipalindrome": {"calls": 2, "letters": 10000},
        "words.smallest_period": {"calls": 1, "letters": 2000},
    }

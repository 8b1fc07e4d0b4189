"""Every lookup site the traced benchmark patches must exist in the package, and every
counter it keeps must read its arguments where the package puts them."""

import importlib.util
import inspect
from pathlib import Path

from latentreplay import engine

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_site_exists():
    spans = load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for sites, _ in spans.TRACED.values()
        for owner, attr in sites
        if attr not in owner.__dict__
    ]
    assert not missing


def test_evaluate_takes_the_positional_layout_its_counter_reads():
    # spans.TRACED["engine.evaluate"] counts len(args[2]): the labels, third and positional
    params = inspect.signature(engine.evaluate).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("state", "images", "labels")
    ]
    counter = load_spans().TRACED["engine.evaluate"][1]
    assert counter((None, None, [4, 1, 7]), {}, None) == {"engine.evaluated_samples": 3}

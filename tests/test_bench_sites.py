"""Every lookup site the traced benchmark patches must exist in the package."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_site_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for sites, _ in spans.TRACED.values()
        for owner, attr in sites
        if attr not in owner.__dict__
    ]
    assert not missing

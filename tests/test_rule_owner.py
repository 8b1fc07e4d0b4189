"""Each config rule is decided once, in `config.validate_config`.

An AST walk of the package finds every `raise ConfigError`. Outside `config.py` only the defs
named in ALLOWED_RAISERS may hold one, each for a limit that no config rule can decide before
the run: a CLI flag, the machine's memory or the data. A check that repeats a config rule
further down fails here; so does an allowlisted def that raises none, so the list cannot
outlive its reasons.
"""

import ast
from pathlib import Path

import latentreplay

PACKAGE = Path(latentreplay.__file__).resolve().parent

# dotted def name -> why it, and not validate_config, raises a ConfigError
ALLOWED_RAISERS = {
    "cli._cmd_stream": "--until-task is a CLI flag, not a config key",
    "cli._cmd_frozen_study": "--blocks is a CLI flag, not a config key",
    "cli._cmd_gradcheck": "--seeds is a CLI flag, not a config key",
    "reservoir.Reservoir.__init__": "whether reservoir.capacity fits in memory shows only when "
                                    "the arrays are allocated",
    "engine.initialize": "pq.k is checked against the position vectors of task 1's data",
    "engine.frozen_backbone_study": "the --blocks values are checked against net.num_blocks",
}


def _is_config_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError"


def config_error_raisers() -> set:
    """Dotted names of the defs outside `config.py` that hold a `raise ConfigError`."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and _is_config_error(child):
                found.add(prefix)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{prefix}.{child.name}" if named else prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        if module != "config":
            visit(ast.parse(path.read_text()), module)
    return found


def test_config_errors_are_raised_by_config_and_the_allowlist_only():
    raisers = config_error_raisers()
    assert sorted(raisers - ALLOWED_RAISERS.keys()) == [], "a config rule decided twice"
    assert sorted(ALLOWED_RAISERS.keys() - raisers) == [], "an allowlist entry raises nothing"

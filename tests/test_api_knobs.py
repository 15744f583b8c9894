"""The options of the detection pipeline's public functions, pinned.

Each defaulted parameter of a public function or method of ``events``,
``histories`` and ``centralizers`` is listed here, so a new option (or one
that no caller sets any more) shows up as an edit of this file.
"""

import ast
from pathlib import Path

import qevents

SRC = Path(qevents.__file__).resolve().parent

OPTIONS = {
    "events": {
        "HeisenbergFrame.build": ["propagators", "step_propagator", "restrictions"],
        "admissible_threshold": ["safety"],
        "detect_event": ["safety"],
        "earliest_event": ["safety"],
        "run_trajectory": ["safety", "record_policy", "rng_seed", "require_detection"],
        "sample_trajectories": ["seed", "safety", "record_policy", "require_detection"],
    },
    "histories": {
        "sampler_vs_measure": ["seed"],
    },
    "centralizers": {
        "expect_onto_centralizer": ["return_info"],
        "expect_onto_center": ["return_info"],
        "incoherence_defect": ["use_center"],
    },
}


def _defaulted(node: ast.FunctionDef) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _public_options(module: str) -> dict[str, list[str]]:
    found = {}
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            found[node.name] = _defaulted(node)
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    found[f"{node.name}.{f.name}"] = _defaulted(f)
    return {name: options for name, options in found.items() if options}


def test_public_options_are_the_pinned_ones():
    assert {module: _public_options(module) for module in OPTIONS} == OPTIONS
    assert sum(len(o) for per in OPTIONS.values() for o in per.values()) == 18


def test_expect_real_takes_no_tolerance():
    tree = ast.parse((SRC / "operators.py").read_text())
    (state,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DensityState"]
    (method,) = [f for f in state.body
                 if isinstance(f, ast.FunctionDef) and f.name == "expect_real"]
    assert _defaulted(method) == []

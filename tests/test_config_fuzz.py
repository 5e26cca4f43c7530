"""Config-contract fuzzer: mutants of valid run configs through ``cli.main``.

Each example takes one of the valid configs in ``BASES`` and replaces, drops
or adds one or two leaves, a replaced or added leaf taking a value from
``POOL``: range edges, huge numbers, the smallest subnormal ``5e-324`` and
``1.7e308`` near the float limit, expressions that fail or are not finite
(among them the integer arithmetic ``10**400`` and ``9**9**9``), strings,
lists, mappings, null and booleans.  Whatever the mutant,
``cli.main`` returns 0, 1 or 2 and raises nothing, exit 1 prints one JSON
error block, and a ``ConfigError`` names a key or section.  A mutant that
parses to a grid finer than hx = 0.25, wider than R = 8 or with R/hx above
24 is not run, so no example solves a large problem.

The random draws need luck to put an extreme value into one given leaf, so
one deterministic pass also puts each extreme value of ``POOL`` into each
expression leaf and each numeric ``grid`` leaf of each base on its own.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nlhjb.cli import main
from nlhjb.config import _FAMILIES, _SECTION_TYPES, ControlFieldConfig, parse_config

POWER_DRIFT = {"family": "power_drift", "gamma": 1.6, "theta": 0.1, "s": 0.9}
ALPHA = {"start": 0.5, "factor": 0.5, "max_levels": 25, "tol": 1e-6}
BASES = (
    # the README configs, ergodic on a coarser grid
    {"mode": "ergodic", "problem": POWER_DRIFT,
     "grid": {"d": 1, "hx": 0.5, "radii": [4.0, 8.0]},
     "solver": {"tol": 1e-9, "max_policy_iters": 60}, "alpha": ALPHA},
    {"mode": "discounted",
     "problem": {"family": "custom", "s": 0.75, "lambda_ell": 0.9, "Lambda_ell": 1.1,
                 "controls": [
                     {"drift": ["-x1"], "cost": "exp(-x1*x1)", "zeroth": "-0.5"},
                     {"drift": ["-2*x1"], "cost": "0.5*exp(-x1*x1)", "zeroth": "-0.5"}]},
     "grid": {"d": 1, "hx": 0.5, "radii": [4.0, 8.0]}, "solver": {"tol": 1e-9}},
    {"mode": "certify", "problem": dict(POWER_DRIFT, drift_sign=-1.0),
     "grid": {"d": 1, "hx": 0.25, "radii": [6.0], "r_far_margin": 2.0}},
    # the x-kernel 2-d custom family of the benchmark, on a smaller ball
    {"mode": "ergodic",
     "problem": {"family": "custom", "s": 0.75, "lambda_ell": 0.9, "Lambda_ell": 1.1,
                 "cost_shift": 0.5,
                 "controls": [
                     {"drift": ["-x1", "-x2"], "cost": "exp(-r*r)",
                      "kernel": "0.5+0.04*cos(x1)*cos(x2)"},
                     {"drift": ["-2*x1", "-0.5*x2"], "cost": "0.5*exp(-x1*x1)",
                      "kernel": "0.5-0.04*exp(-r*r)"}]},
     "grid": {"d": 2, "hx": 0.5, "radii": [2.0, 4.0]},
     "solver": {"tol": 1e-9}, "alpha": ALPHA},
    {"mode": "ergodic", "problem": {"family": "constant_cost", "kappa": 1.0, "s": 0.75},
     "grid": {"d": 1, "hx": 0.5, "radii": [2.0, 4.0], "inner_radius": 1.0},
     "solver": {"tol": 1e-10}, "alpha": {"values": [0.5, 0.25], "tol": 1e-10}},
    {"mode": "discounted",
     "problem": {"family": "constant_cost", "kappa": 1.0, "local_identity": True},
     "grid": {"d": 2, "hx": 0.5, "radii": [2.0, 3.0]}, "alpha": {"start": 0.5}},
)
POOL = (0, 1, -1, 0.5, 2, 1e300, -1e300, 5e-324, 1.7e308, "1/0", "sqrt(-1)",
        "1e308*1e308", "10**400", "9**9**9", "min(x1)", "x1", "", "ergodic", [], [0.5],
        {}, None, True, False)
EXTREME_NUMBERS = (5e-324, 1.7e308, 1e300)
EXTREME_EXPRESSIONS = ("10**400", "9**9**9", "1e308*1e308", "1/0", "sqrt(-1)")
# Keys an added leaf may take, per section ("" is the config root).
KEYS = {
    "": ("mode", "output_dir", "problem", "grid", "solver", "alpha"),
    **{name: tuple(f.name for f in fields(cls)) for name, cls in _SECTION_TYPES.items()},
    "problem": ("family",) + tuple(sorted({f.name for cls in _FAMILIES.values()
                                           for f in fields(cls)})),
}
NAMES = {k for keys in KEYS.values() for k in keys} | set(KEYS) - {""} | {
    f.name for f in fields(ControlFieldConfig)}


def leaves(node, path=()):
    """Paths to the scalars and empty containers under ``node``."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def mutate(raw: dict, choose) -> tuple:
    """Replace, drop or add one leaf of ``raw`` in place; returns its path.

    ``choose(options)`` picks one of a list of options.
    """
    op = choose(["replace", "drop", "add"])
    if op == "add":
        sections = [s for s in KEYS if s == "" or isinstance(raw.get(s), dict)]
        section = choose(sections)
        key = choose(list(KEYS[section]))
        path = (section, key) if section else (key,)
    else:
        path = choose(list(leaves(raw)))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(choose(list(POOL)))
    return path


def within_caps(raw: dict) -> bool:
    """False for a config that parses to a grid above the caps."""
    try:
        cfg = parse_config(raw)
    except Exception:
        return True   # cli.main must reject it; nothing is solved
    hx = cfg.grid.hx / (4 if cfg.mode == "convergence-study" else 1)
    R = cfg.grid.radii[-1]
    return hx >= 0.25 and R <= 8 and R / hx <= 24


def check_contract(raw: dict, paths: list) -> None:
    """Run ``raw`` through ``cli.main`` and check the exit contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            # the CLI prints numpy's and scipy's warnings and goes on
            warnings.simplefilter("ignore")
            code = main([str(path), "--output-dir", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    if code != 1:
        assert lines == []
        return
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert isinstance(error["kind"], str) and isinstance(error["message"], str)
    if error["kind"] == "ConfigError":
        named = NAMES | {k for p in paths for k in p if isinstance(k, str)}
        assert re.search(r"\b(%s)\b" % "|".join(map(re.escape, named)), error["message"]), \
            error["message"]


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_configs_keep_the_exit_contract(data):
    raw = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    choose = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
    paths = [mutate(raw, choose) for _ in range(data.draw(st.integers(1, 2)))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assume(within_caps(raw))
    check_contract(raw, paths)


def single_key_mutants():
    """Each extreme value in each expression leaf and numeric grid leaf of
    each base, one leaf at a time; mutants over the grid caps are left out."""
    for b, base in enumerate(BASES):
        for path in leaves(base):
            leaf = base
            for key in path:
                leaf = leaf[key]
            if path[:2] == ("problem", "controls") and isinstance(leaf, str):
                values = EXTREME_EXPRESSIONS
            elif path[0] == "grid" and type(leaf) in (int, float):
                values = EXTREME_NUMBERS
            else:
                continue
            for value in values:
                raw = copy.deepcopy(base)
                parent = raw
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    if within_caps(raw):
                        name = f"{b}-{'.'.join(map(str, path))}={value}"
                        yield pytest.param(raw, path, id=name)


@pytest.mark.parametrize("raw, path", single_key_mutants())
def test_extreme_value_in_one_leaf_keeps_the_exit_contract(raw, path):
    check_contract(raw, [path])

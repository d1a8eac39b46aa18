"""Schema-valid configs on a tiny grid end in exit 0, 2, 3 or 4, never in a
traceback.

The strategy is written by hand over the schema's enums and ranges.  Free
numbers are drawn from a few representative values, edge values included
(zero, negative, out of the documented constraints), and grids, times and
multi-indices are kept small so that every run is short.  `out_dir` is
left out because `--out` overrides it.
"""

import json

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framewave import cli, evolve

PROPS = cli.CONFIG_SCHEMA["properties"]


def pick(*values):
    return st.sampled_from(values)


def enum(*path):
    node = PROPS
    for key in path[:-1]:
        node = node[key]["properties"]
    return st.sampled_from(node[path[-1]]["enum"])


def obj(**fields):
    """A schema object whose fields are each present or absent."""
    return st.fixed_dictionaries({}, optional=fields)


_ENTRY = pick(0.0, 1.5, -2.0, 0.3)
# three entries most of the time, so that most configs get past parse_config
_THREE = st.lists(_ENTRY, min_size=3, max_size=3)
VEC = st.one_of(_THREE, _THREE, _THREE, st.lists(_ENTRY, max_size=4))

CONFIGS = st.fixed_dictionaries(
    {"mode": enum("mode"),
     "certify": st.fixed_dictionaries({"fast": st.just(True)},
                                      optional={"pairs": pick(1, 0)})},
    optional={
        "grid": obj(N=pick(8, 10, 12, 9, 6, 0), X=pick(4.0, 8.0, 0.5, 0.0, -4.0)),
        "times": obj(t1=pick(0.0, 0.5, -0.5), t2=pick(0.2, 0.4, 0.0),
                     dt=pick(None, 0.05, 0.0, -0.1),
                     cfl=pick(0.45, 0.2, 0.5, 0.0, -0.3, 0.9)),
        "weights": obj(gamma=pick(0.5, 1.0, 0.0), mu=pick(-0.25, -1.0, 0.1)),
        "region": obj(q0=pick(-2.0, 0.0, 3.0, "-inf", "-infinity", "bogus"),
                      origin_ball_radius=pick(None, 0.5, 0.0, -1.0, 100.0)),
        "background": obj(family=enum("background", "family"),
                          epsilon=pick(0.0, 0.1, -0.2, 0.3, 0.5),
                          center=VEC, radius=pick(2.0, 0.5, 0.0, -1.0), velocity=VEC),
        "source": obj(terms=st.lists(st.sampled_from(evolve.SCHEMATIC_TERMS), max_size=2),
                      bigO_degree=pick(2, 0, 1, 3, -1),
                      slots=st.lists(st.integers(0, 3), max_size=4)),
        "data": obj(family=enum("data", "family"), rank=pick(0, 1, 2, 3, -1),
                    channels=pick(1, 2, 0, -1), amplitude=pick(1.0, 0.0, -0.5),
                    center=VEC, sigma=pick(0.8, 0.0, -1.0), kvec=VEC,
                    q_center=pick(-2.0, 0.0, 1.0)),
        "multi_indices": st.lists(pick("", "S", "Z12", "P t", "Px2", "Z01", "Q", "Z21"),
                                  max_size=1),
        "components": st.lists(pick("scalar", "L", "e1", "e2", "Lbar", "slot0", "slot7",
                                      "slot01", "Lbar,L", "L,bogus", "bogus"), max_size=2),
        "boundary": enum("boundary"),
        "monitors": pick(2, 3, 5),
        "snapshots": st.booleans(),
        "seed": pick(0, 7, 12345, -1, 2 ** 64),
    })


def _valid(cfg):
    try:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    except jsonschema.ValidationError:
        return False
    return True


def run(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    extra = ["--refine", "2"] if cfg["mode"] == "conserve" else []
    return cli.main([cfg["mode"], "--config", str(path), "--out", str(tmp_path / "o"),
                     *extra])


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(cfg=CONFIGS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_schema_valid_config_exits_cleanly(tmp_path, cfg):
    assume(_valid(cfg))
    with np.errstate(all="ignore"):
        assert run(tmp_path, cfg) in (0, 2, 3, 4)


TINY = {"grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.1}, "monitors": 2}


# Configs that ended in a traceback before parse_config, the bump
# background and the component projection reported them as config errors.
@pytest.mark.parametrize("mode, body", [
    ("evolve", {"data": {"rank": 1}}),                        # no "scalar" of a vector
    ("evolve", {"components": ["e1"]}),                       # no frame part of a scalar
    ("evolve", {"data": {"rank": 1}, "components": ["slot7"]}),
    ("evolve", {"data": {"rank": 2}, "components": ["L,bogus"]}),
    ("evolve", {"background": {"family": "traveling-bump", "epsilon": 0.1,
                               "velocity": [0.0, 0.0, 1.5]}}),
    ("evolve", {"times": {"t1": 0.0, "t2": 0.1, "dt": 0.0}}),
    ("evolve", {"times": {"t1": 0.0, "t2": 0.1, "cfl": 0.0}}),
    ("evolve", {"grid": {"N": 8, "X": 0.0}}),
    ("conserve", {"grid": {"N": 8, "X": -4.0}}),
    ("conserve", {"components": []}),
    ("evolve", {"data": {"family": "zero", "channels": 0}}),
    ("evolve", {"data": {"channels": -1}}),
    ("evolve", {"data": {"rank": -1}}),
    ("evolve", {"data": {"rank": 3}}),
    ("evolve", {"data": {"center": [0.0]}}),
    ("certify", {"seed": -1}),
    ("evolve", {"data": {"rank": 1}, "source": {"terms": ["A3"], "bigO_degree": 0}}),
    ("commutator", {"multi_indices": ["Q"]}),
    ("estimate", {"multi_indices": ["Z21"]}),
])
def test_former_tracebacks_are_config_errors(tmp_path, capsys, mode, body):
    cfg = {"mode": mode, **TINY, **body}
    assert _valid(cfg)
    assert run(tmp_path, cfg) == 2
    assert capsys.readouterr().err.startswith("config error")

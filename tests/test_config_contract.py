"""Property test of the loader contract: any JSON value in any field of a
valid configuration is either accepted or rejected as a ConfigError."""

import contextlib
import copy
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from rischan.cli import PARAMS_ENV, main
from rischan.engine import _KNOWN_KEYS, RunConfig, load_config
from rischan.errors import ConfigError
from rischan.propagation import PathLossParams
from rischan.scattering import ScatteringParams
from rischan.sub6 import Sub6Params

BASE = {
    "environment": "InH_IndoorOffice",
    "frequency_ghz": 28.0,
    "tx": [0.0, 25.0, 2.0],
    "rx": [38.0, 48.0, 1.0],
    "ris": [40.0, 50.0, 2.0],
    "n": 4,
    "ris_facing": -1,
    "realizations": 2,
    "tx_array": {"n": 2, "shape": [2, 1]},
    "params": {"InH_IndoorOffice": {"exponent_los": 1.8}},
    "coverage": {"x": [36.0, 40.0], "y": [46.0, 48.0], "step": 2.0, "z": 1.0},
}

SECTIONS = {
    "scattering": list(ScatteringParams.__dataclass_fields__),
    "sub6": [*Sub6Params.__dataclass_fields__, "g_mode", "element_edge_m"],
    "los": ["tx_ris", "ris_rx", "tx_rx"],
    "shadowing": ["clustered", "los"],
    "control": ["strategy", "quant_bits"],
    "coverage": ["x", "y", "step", "z"],
    "tx_array": ["shape", "n", "wall", "facing", "spacing_wavelengths"],
}
FIELDS = (
    [(section, name) for section, names in SECTIONS.items() for name in names]
    + [
        ("params", env, name)
        for env in ("InH_IndoorOffice", "UMi_StreetCanyon")
        for name in PathLossParams.__dataclass_fields__
    ]
    + [(key,) for key in sorted(_KNOWN_KEYS)]
)

# Integers stay small: count fields have no upper bound yet.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def with_value(path, value) -> dict:
    cfg = copy.deepcopy(BASE)
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return cfg


def test_base_is_valid():
    """Each example changes one field of BASE, so BASE itself must load:
    otherwise every example fails at the same field and tests nothing."""
    assert isinstance(load_config(BASE), RunConfig)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(path=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_accepted_or_config_error(path, value):
    cfg = with_value(path, value)
    try:
        accepted = isinstance(load_config(cfg), RunConfig)
    except ConfigError:
        accepted = False

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(PARAMS_ENV, None)
        config_path = os.path.join(tmp, "run.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "-c", config_path])
    assert code == (0 if accepted else 2), err.getvalue()

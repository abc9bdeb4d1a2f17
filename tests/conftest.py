"""Shared scenes and helpers for the test suite."""

import numpy as np
import pytest

from rischan.arrays import ArrayGeometry
from rischan.geometry import Plane, Point3, SurfaceOrientation
from rischan.propagation import Environment
from rischan.scene import Scene


def make_indoor_scene(**overrides) -> Scene:
    """Office scene at 28 GHz: Tx on the x=0 wall, surface on the y=50 wall
    facing into the room, single-antenna terminals, 4x4 surface."""
    defaults = dict(
        environment=Environment.indoor_office(),
        frequency_hz=28e9,
        tx=Point3(0.0, 25.0, 2.0),
        ris=Point3(40.0, 50.0, 2.0),
        rx=Point3(38.0, 48.0, 1.0),
        ris_geometry=ArrayGeometry(4, 4, orientation=SurfaceOrientation(Plane.XZ, facing=-1)),
    )
    defaults.update(overrides)
    return Scene(**defaults)


def make_outdoor_scene(**overrides) -> Scene:
    defaults = dict(
        environment=Environment.street_canyon(),
        frequency_hz=28e9,
        tx=Point3(0.0, 100.0, 10.0),
        ris=Point3(80.0, 0.0, 12.0),
        rx=Point3(75.0, 40.0, 1.5),
        ris_geometry=ArrayGeometry(4, 4, orientation=SurfaceOrientation(Plane.XZ, facing=1)),
    )
    defaults.update(overrides)
    return Scene(**defaults)


def count_substreams(monkeypatch, module) -> list:
    """The paths of every substream ``module`` derives from now on."""
    calls, original = [], module.substream

    def counted(master_seed, *path):
        calls.append(path)
        return original(master_seed, *path)

    monkeypatch.setattr(module, "substream", counted)
    return calls


@pytest.fixture
def indoor_scene() -> Scene:
    return make_indoor_scene()


@pytest.fixture
def outdoor_scene() -> Scene:
    return make_outdoor_scene()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)

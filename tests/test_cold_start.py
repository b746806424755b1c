"""What importing the package builds, and the value classes that are not dataclasses.

Generating a dataclass's methods is most of the package's own import
time, so only the five section configs, whose API is
dataclasses.replace, are dataclasses.  Records are NamedTuples; the
validated values are plain classes with __slots__, and these tests pin
the behaviour they kept: checks on every construction path, no field
assignment, and == and hash by value.
"""

import copy
import dataclasses
import inspect
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import flowhand.cli  # noqa: F401  (imports every flowhand module)
from flowhand.core import PhysConstants, PiecewiseLinearCurve
from flowhand.scenario import Scenario, Segment
from flowhand.tasks import GraspScene

SRC = Path(__file__).resolve().parent.parent / "src"
SECTION_CONFIGS = ["FcsConfig", "FingerConfig", "HandConfig", "SystemConfig", "VenturiConfig"]

# wraps the function every @dataclass runs, then imports the CLI
COUNT_DATACLASSES = """\
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
made = []
process = dataclasses._process_class
def counted(cls, *args, **kwargs):
    made.append(cls.__qualname__)
    return process(cls, *args, **kwargs)
dataclasses._process_class = counted
import flowhand.cli
print(json.dumps(made))
"""


def test_importing_the_cli_makes_only_the_section_configs_dataclasses():
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", COUNT_DATACLASSES, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)) == SECTION_CONFIGS


def test_the_section_configs_are_the_only_dataclasses_in_the_package():
    found = {cls.__qualname__
             for name, module in list(sys.modules.items())
             if name == "flowhand" or name.startswith("flowhand.")
             for cls in vars(module).values()
             if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)}
    assert sorted(found) == SECTION_CONFIGS


VALUES = [
    PhysConstants(),
    PiecewiseLinearCurve(((0.0, 1.0), (2.0, 3.0))),
    Segment(1.0, 0.001, "grasp"),
    Scenario("s", (Segment(1.0, 0.001),), 0.01),
    GraspScene(0.05, 0.1),
]
IDS = [type(v).__name__ for v in VALUES]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_classes_refuse_assignment_and_deletion(value):
    assert not dataclasses.is_dataclass(value)
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        object.__setattr__(value, "other", 1)      # no __dict__ to hold it


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_classes_compare_and_hash_by_value(value):
    cls, args = value.__reduce__()
    twin = cls(*args)
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert len({twin, value}) == 1
    assert value != args and value != object()
    assert repr(twin) == repr(value) and repr(value).startswith(f"{cls.__name__}(")


def test_a_zero_command_of_either_sign_is_one_segment():
    plus, minus = Segment(1.0, 0.0), Segment(1.0, -0.0)
    assert minus == plus and hash(minus) == hash(plus)
    assert math.copysign(1.0, minus.q_src) == 1.0
    assert Segment(1.0, 0.0) != Segment(1.0, 0.0, "pivot")


class Forged:
    """Pickles as a call to `cls` with `args`, as a tampered pickle would."""

    def __init__(self, cls, args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return self.cls, self.args


INVALID = [
    (PhysConstants, (1.2, math.inf, 101325.0)),
    (PhysConstants, (0.0, 9.81, 101325.0)),
    (PiecewiseLinearCurve, (((0.0, 1.0), (0.0, 2.0)),)),
    (PiecewiseLinearCurve, (((0.0, math.nan),),)),
    (PiecewiseLinearCurve, ((),)),
    (Segment, (0.0, 0.001, None)),
    (Segment, (math.inf, 0.001, None)),
    (Segment, (1.0, -0.001, None)),
    (Segment, (1.0, math.nan, None)),
    (Segment, (1.0, 0.001, "jump")),
    (Scenario, ("s", (), 0.01)),
    (Scenario, ("s", (Segment(1.0, 0.001),), math.inf)),
    (Scenario, ("s", (Segment(1e9, 0.001),), 0.01)),
    (GraspScene, (0.0, 0.1)),
    (GraspScene, (0.05, -0.1)),
    (GraspScene, (math.inf, 0.1)),
    (GraspScene, (0.05, math.nan)),
]


@pytest.mark.parametrize("cls, args", INVALID, ids=[f"{c.__name__}{a!r}" for c, a in INVALID])
def test_no_construction_path_builds_an_invalid_value(cls, args):
    assert not hasattr(cls, "_replace")
    with pytest.raises(ValueError):
        cls(*args)
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(Forged(cls, args)))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value

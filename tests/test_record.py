import copy
import pickle
import subprocess
import sys

import pytest

from fbarcirc import replace
from fbarcirc.bvd import MotionalBranch
from fbarcirc.config import parse_config
from fbarcirc.netlist import (Capacitor, ModulatedSeriesRlc, ModulationSpec, NetlistError,
                              Port, Resistor, build_one_port)
from fbarcirc.record import Record


class Pair(Record):
    left: int
    right: str = "r"


class Twin(Record):
    left: int
    right: str = "r"


class Checked(Record):
    value: float

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("value must be >= 0")


class TestEquality:
    def test_element_kinds_with_identical_values_are_unequal(self):
        assert Resistor("x", "a", "b", 1.0) != Capacitor("x", "a", "b", 1.0)

    def test_records_with_identical_fields_differ_by_type(self):
        assert Pair(1, "r") != Twin(1, "r")
        assert Pair(1, "r") == Pair(1, "r")
        assert Pair(1, "r") != Pair(2, "r")
        assert Pair(1) != (1, "r")

    def test_equal_records_hash_equal(self):
        one = ModulatedSeriesRlc("x1", "p1", "0", MotionalBranch(1.0, 1e-6, 1e-12),
                                 ModulationSpec(0.1, 1e6, 0.5))
        two = ModulatedSeriesRlc("x1", "p1", "0", MotionalBranch(1.0, 1e-6, 1e-12),
                                 ModulationSpec(0.1, 1e6, 0.5))
        assert one == two and one is not two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_unhashable_field_makes_an_unhashable_record(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(parse_config(""))


class TestFrozen:
    @pytest.mark.parametrize("name", ["ohms", "other"])
    def test_assignment_raises(self, name):
        r = Resistor("r1", "p1", "0", 10.0)
        with pytest.raises(AttributeError, match="frozen"):
            setattr(r, name, 5.0)
        assert r.ohms == 10.0 and not hasattr(r, "other")

    def test_deletion_raises(self):
        r = Resistor("r1", "p1", "0", 10.0)
        with pytest.raises(AttributeError, match="frozen"):
            del r.ohms
        assert r.ohms == 10.0

    def test_config_is_frozen_too(self):
        cfg = parse_config("")
        with pytest.raises(AttributeError, match="frozen"):
            cfg.typed = {}


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Pair(1) == Pair(left=1) == Pair(1, "r") == Pair(right="r", left=1)
        assert ModulationSpec(0.1, 1e6).phase == 0.0

    @pytest.mark.parametrize("args, kwargs, match", [
        ((1,), {"middle": 2}, "unexpected keyword argument 'middle'"),
        ((1,), {"left": 2}, "multiple values for argument 'left'"),
        ((), {"right": "s"}, "missing required arguments: 'left'"),
        ((1, "s", 3), {}, "takes 2 arguments but 3 were given"),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs, match):
        with pytest.raises(TypeError, match=match):
            Pair(*args, **kwargs)

    def test_a_subclass_adds_its_fields_after_its_base_fields(self):
        class Triple(Pair):
            extra: float = 0.5

        assert repr(Triple(1)).endswith(".Triple(left=1, right='r', extra=0.5)")
        assert Triple(1, "s", 2.0).extra == 2.0 and Triple(1) != Pair(1)

    def test_post_init_runs(self):
        with pytest.raises(ValueError, match="value must be"):
            Checked(-1.0)
        with pytest.raises(NetlistError, match="depth"):
            ModulationSpec(depth=2.0, f_mod=1e6)


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        spec = ModulationSpec(0.1, 1e6, 0.5)
        changed = replace(spec, depth=0.2)
        assert changed == ModulationSpec(0.2, 1e6, 0.5)
        assert spec.depth == 0.1

    def test_replace_runs_post_init(self):
        with pytest.raises(NetlistError, match="depth"):
            replace(ModulationSpec(0.1, 1e6), depth=2.0)
        with pytest.raises(ValueError, match="value must be"):
            replace(Checked(1.0), value=-1.0)

    def test_replace_of_an_unknown_field_raises(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'ohm'"):
            replace(Resistor("r1", "p1", "0", 10.0), ohm=5.0)


class TestRepr:
    def test_repr_names_the_class_and_every_field(self):
        text = repr(ModulationSpec(0.1, 1e6))
        assert text == "ModulationSpec(depth=0.1, f_mod=1000000.0, phase=0.0)"
        assert repr(Port(1, "p1", 50.0)) == "Port(index=1, node='p1', z0=50.0)"


class TestCopies:
    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_records_survive_pickle_and_copy(self, clone):
        net = build_one_port(MotionalBranch(1.0, 1e-6, 1e-12), 1e-12, 50.0,
                             ModulationSpec(0.1, 1e6))
        for record in (net, net.elements[0], Pair(3)):
            again = clone(record)
            assert again == record and type(again) is type(record)
            with pytest.raises(AttributeError, match="frozen"):
                again.name = "other"
        cfg = clone(parse_config("sweep.points = 11\n"))
        assert cfg == parse_config("sweep.points = 11\n") and cfg.typed["sweep.points"] == 11


def test_the_package_loads_without_dataclasses():
    code = ("import importlib, pkgutil, sys, fbarcirc\n"
            "for m in pkgutil.iter_modules(fbarcirc.__path__):\n"
            "    importlib.import_module('fbarcirc.' + m.name)\n"
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

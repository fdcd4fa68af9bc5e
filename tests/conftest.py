import cmath
import math
import os

import numpy as np
import pytest

from fbarcirc import htm
from fbarcirc.bvd import ResonatorSpecs
from fbarcirc.netlist import (CirculatorDesign, ModulationSpec, Netlist, Topology,
                              build_one_port, build_toy_wye, bvd_from_specs)

GHZ_SPECS = ResonatorSpecs(f_s=2.65e9, q=700.0, k_sq=0.09, c0=1.0e-12)
DESK_SPECS = ResonatorSpecs(f_s=2.65e6, q=100.0, k_sq=0.09, c0=1.0e-9)
F_MOD_GHZ = 23.2e6
F_MOD_DESK = 23.2e3


@pytest.fixture
def umask():
    """``os.umask``, with the process umask restored after the test."""
    saved = os.umask(0o022)
    os.umask(saved)
    yield os.umask
    os.umask(saved)


def assert_no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_stamps(monkeypatch) -> list:
    """Record each netlist that ``htm.Stamped`` stamps, in the returned list.
    The constructor is wrapped: a function in place of the class would break
    the isinstance dispatch of ``htm.sparams``."""
    from fbarcirc.htm import Stamped

    stamped = []
    init = Stamped.__init__

    def counted(self, net):
        stamped.append(net)
        init(self, net)

    monkeypatch.setattr(Stamped, "__init__", counted)
    return stamped


def scalar_stamps(nets) -> np.ndarray:
    """The coupling stamps m of one point per netlist, as a fresh stamp of
    each wrote them one branch at a time: 0 - G from zeros, with G formed
    by Python's complex arithmetic."""
    st = htm.Stamped(nets[0])
    cur, chg = htm._coupling(st)
    m = np.zeros((len(nets),) + st.m.shape[1:], dtype=complex)
    for k, net in enumerate(nets):
        for i, el in enumerate(net.modulated):
            g0, mod = 1.0 / el.branch.c_m, el.modulation
            g1 = 0j if mod is None or mod.depth == 0.0 else (
                0.5 * mod.depth * g0 * cmath.exp(1j * mod.phase))
            m[k, :, cur.start + i, chg.start + i] -= np.array(
                [0j if g1 == 0j else g1.conjugate(), g0, g1])
    return m


@pytest.fixture
def cpus(monkeypatch):
    """``set_cpus(n)``: forked workers see n CPUs; returns the list that gets
    one entry per fork.  The workers pin their processes to those CPUs and
    restore the mask they saw, so the real mask is restored after the test."""
    forks = []
    fork = os.fork
    mask = os.sched_getaffinity(0)

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def set_cpus(n: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forks

    yield set_cpus
    os.sched_setaffinity(0, mask)


@pytest.fixture
def ghz_specs():
    return GHZ_SPECS


@pytest.fixture
def desk_specs():
    return DESK_SPECS


@pytest.fixture
def differential_design():
    return CirculatorDesign(Topology.DIFFERENTIAL, GHZ_SPECS, delta=0.01, f_mod=F_MOD_GHZ)


@pytest.fixture
def single_ended_design():
    return CirculatorDesign(Topology.SINGLE_ENDED, GHZ_SPECS, delta=0.01, f_mod=F_MOD_GHZ)


def one_port_net(specs: ResonatorSpecs, delta: float, f_mod: float,
                 phase: float = 0.0, z0: float = 50.0) -> Netlist:
    """Single resonator to ground behind one port: c0 in parallel with the branch."""
    return build_one_port(bvd_from_specs(specs).branches[0], specs.c0, z0,
                          ModulationSpec(delta, f_mod, phase))


def toy_wye_net(specs: ResonatorSpecs, delta: float, f_mod: float,
                phases=(0.0, math.pi / 2.0), z0: float = 50.0) -> Netlist:
    """Two modulated resonators joined at a floating common node, two ports."""
    return build_toy_wye(bvd_from_specs(specs).branches[0], specs.c0, z0,
                         tuple(ModulationSpec(delta, f_mod, ph) for ph in phases))

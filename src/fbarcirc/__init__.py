"""Simulator and design toolkit for mechanically modulated FBAR circulators."""

from .bvd import (BvdParams, LorentzianFit, MotionalBranch, ResonatorSpecs,
                  admittance, bvd_from_specs, fit_lorentzian, parallel_resonance,
                  specs_from_bvd)
from .htm import HarmonicBasis, SParamGrid, convergence_check, sparams
from .metrics import (CirculatorMetrics, Direction, bandwidth_at, metrics_at,
                      sideband_scan, summarize)
from .netlist import (CirculatorDesign, ModulationSpec, Netlist, PhaseSequence,
                      Topology, build_circulator, elastance_fourier, read_netlist,
                      scale_frequency, write_netlist)
from .transient import TransientResult, cross_validate, simulate
from .tuner import TuneProblem, TuneResult, tune

__version__ = "0.1.0"

__all__ = [
    "BvdParams", "LorentzianFit", "MotionalBranch", "ResonatorSpecs",
    "admittance", "bvd_from_specs", "fit_lorentzian", "parallel_resonance",
    "specs_from_bvd",
    "HarmonicBasis", "SParamGrid", "convergence_check", "sparams",
    "CirculatorMetrics", "Direction", "bandwidth_at", "metrics_at",
    "sideband_scan", "summarize",
    "CirculatorDesign", "ModulationSpec", "Netlist", "PhaseSequence", "Topology",
    "build_circulator", "elastance_fourier", "read_netlist", "scale_frequency", "write_netlist",
    "TransientResult", "cross_validate", "simulate",
    "TuneProblem", "TuneResult", "tune",
    "__version__",
]

"""Simulator and design toolkit for mechanically modulated FBAR circulators.

The names of ``__all__`` resolve on first access (PEP 562), each from the
module that defines it, so importing the package or one of its modules loads
no module it does not use: ``simulate`` never compiles the transient oracle.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("BvdParams", "LorentzianFit", "MotionalBranch", "ResonatorSpecs",
                     "admittance", "bvd_from_specs", "fit_lorentzian", "parallel_resonance",
                     "specs_from_bvd"), "bvd"),
    **dict.fromkeys(("HarmonicBasis", "SParamGrid", "convergence_check", "sparams"), "htm"),
    **dict.fromkeys(("CirculatorMetrics", "Direction", "bandwidth_at", "metrics_at",
                     "sideband_scan", "summarize"), "metrics"),
    **dict.fromkeys(("CirculatorDesign", "ModulationSpec", "Netlist", "PhaseSequence",
                     "Topology", "build_circulator", "read_netlist", "scale_frequency",
                     "write_netlist"), "netlist"),
    **dict.fromkeys(("TransientResult", "cross_validate", "simulate"), "transient"),
    "TuneProblem": "plan",
    **dict.fromkeys(("TuneResult", "tune"), "tuner"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

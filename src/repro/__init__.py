"""repro — reproduction of "SystemC-based Modelling, Seamless Refinement,
and Synthesis of a JPEG 2000 Decoder" (Gruettner et al., DATE 2008).

Subpackages:

* :mod:`repro.kernel` — SystemC-like discrete-event simulation kernel;
* :mod:`repro.core` — the OSSS Application Layer (Shared Objects, Software
  Tasks, guarded method calls, EET timing);
* :mod:`repro.vta` — Virtual Target Architecture building blocks
  (processors, OPB/P2P channels, RMI, the ML401 platform);
* :mod:`repro.jpeg2000` — a complete JPEG 2000 codec (the functional
  payload and profiling subject);
* :mod:`repro.design` — the declarative DesignSpec IR, its catalog of the
  nine versions and their elaboration;
* :mod:`repro.casestudy` — the behaviours of the Table 1 versions and the
  Fig. 1 profiling model;
* :mod:`repro.fossy` — the FOSSY synthesis flow (VHDL, platform files,
  Virtex-4 estimation — Table 2);
* :mod:`repro.experiments` — the experiment registry, result cache and
  sweep runner behind every paper artefact;
* :mod:`repro.reporting` — result-table rendering;
* :mod:`repro.telemetry` — the run ledger, events, traces and profiles.
"""

__version__ = "1.0.0"

__all__ = [
    "casestudy",
    "core",
    "design",
    "experiments",
    "fossy",
    "jpeg2000",
    "kernel",
    "reporting",
    "telemetry",
    "vta",
]

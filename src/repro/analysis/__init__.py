"""Static analysis over both sides of the simulator.

Two fronts share one report format (``repro.analysis-report`` v1):

* the **guest-program verifier** (:mod:`repro.analysis.verifier`)
  checks assembled ISA programs — control flow, window-depth balance,
  stale-register hazards — and, via the counter-exact abstract
  interpreter (:mod:`repro.analysis.absmachine`: the ISA ``Machine``
  with its registers kept in logical frames, running the program on
  the real :mod:`repro.core` window schemes), *predicts* the
  overflow/underflow trap counts and WIM wraparounds a launch
  configuration will observe;
  :mod:`repro.analysis.topology` does the same job for stream
  workloads (producer/consumer graph, guaranteed and candidate
  deadlocks);
* the **hot-path invariant linter** (:mod:`repro.analysis.linter`)
  keeps the simulator's own inner loops honest: guarded trace
  emission, None-gated telemetry buffers, ``__slots__`` on per-step
  classes, no wall-clock or global-RNG calls in the cycle domain.

Command line: ``python -m repro.analysis check|lint``.
"""

from repro.analysis.report import (
    ERROR,
    INFO,
    WARNING,
    AnalysisError,
    AnalysisReport,
    Finding,
    merge_reports,
)
from repro.analysis.cfg import ProgramCFG, build_cfg
from repro.analysis.depth import UNBOUNDED, DepthBounds, compute_bounds
from repro.analysis.absmachine import (
    AbstractMachine,
    ImpreciseError,
    ProgramError,
)
from repro.analysis.linter import lint_paths, lint_source
from repro.analysis.topology import (
    ProbeKernel,
    TopologyGraph,
    analyze_kernel,
    analyze_threads,
    analyze_workload_config,
)
from repro.analysis.verifier import (
    ProgramCase,
    ThreadSpec,
    check_program,
    corpus_cases,
    verify_corpus,
    verify_program,
)

__all__ = [
    "ERROR",
    "INFO",
    "WARNING",
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "merge_reports",
    "ProgramCFG",
    "build_cfg",
    "UNBOUNDED",
    "DepthBounds",
    "compute_bounds",
    "AbstractMachine",
    "ImpreciseError",
    "ProgramError",
    "lint_paths",
    "lint_source",
    "ProbeKernel",
    "TopologyGraph",
    "analyze_kernel",
    "analyze_threads",
    "analyze_workload_config",
    "ProgramCase",
    "ThreadSpec",
    "check_program",
    "corpus_cases",
    "verify_corpus",
    "verify_program",
]

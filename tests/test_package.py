"""The package exports the production API; the dense reference stays on its modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import grover_ev

PRODUCTION = [
    "MarkedSet", "grover_angle",
    "EnsembleModel", "measure_classes", "decide_sign", "sign_error_rate",
    "SearchFailure", "SearchResult", "extract_location",
    "TruncationPlan", "attenuation", "make_plan",
]

DENSE_REFERENCE = {
    "core": ["StateVector", "new_uniform", "apply_oracle", "apply_diffusion", "apply_grover",
             "closed_form_state", "class_amplitudes", "half_angle", "qubit_values",
             "MAX_QUBITS", "NORM_ATOL"],
    "filtering": ["apply_correlation"],
    "measurement": ["exact_ev", "measure_all", "sampled_ev"],
}


def test_package_exports_exactly_the_production_api():
    assert grover_ev.__all__ == PRODUCTION
    for name in PRODUCTION:
        assert hasattr(grover_ev, name), name
    for module, names in DENSE_REFERENCE.items():
        home = importlib.import_module(f"grover_ev.{module}")
        for name in names:
            assert hasattr(home, name), f"grover_ev.{module}.{name}"


def test_importing_the_command_line_loads_no_numpy_random():
    # numpy 2 loads numpy.random on first use, and a stream builds its key
    # type on first use too, so a process that draws nothing (a plan, an exact
    # search) never pays for importing it: importing the command line loads
    # it only where importing numpy does.
    src = str(Path(grover_ev.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, numpy; print('numpy.random' in sys.modules); "
            "import grover_ev.cli; print('numpy.random' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    with_numpy, with_cli = child.stdout.split()
    assert with_cli == with_numpy

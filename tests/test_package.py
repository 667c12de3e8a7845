"""The package exports the production API; the dense reference stays on its modules."""

import importlib

import grover_ev

PRODUCTION = [
    "MarkedSet", "grover_angle", "class_amplitudes",
    "EnsembleModel", "ClassState", "class_state", "measure_classes", "decide_sign",
    "sign_error_rate",
    "SearchFailure", "SearchResult", "extract_location",
    "TruncationPlan", "attenuation", "make_plan",
]

DENSE_REFERENCE = {
    "core": ["StateVector", "new_uniform", "apply_oracle", "apply_diffusion", "apply_grover",
             "closed_form_state", "qubit_values", "MAX_QUBITS", "NORM_ATOL"],
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

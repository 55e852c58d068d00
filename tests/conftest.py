"""Shared fixtures and the acceptance summary hook.

The hook prints one PASS/FAIL line per acceptance check at the end of the
run so the gate can be read off the terminal without digging through the
full pytest report.
"""

import warnings

import pytest

from cvschmidt import GaussianParams

# Hypothesis's pytest plugin imports hypothesis.extra._patching (and through
# libcst, mypy_extensions) only while it reports a falsifying example.  Under
# filterwarnings = ["error"] that import's DeprecationWarning would abort the
# run with INTERNALERROR instead of printing the example, so import it here,
# once, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Display order and labels for the acceptance tests in test_acceptance.py.
_ACCEPTANCE = {
    "test_closed_form_schmidt_number_and_weights":
        "[1] closed-form Schmidt number and leading weights",
    "test_numeric_weights_converge_with_grid_refinement":
        "[2] grid weights converge to closed form with refinement",
    "test_numeric_mutual_information_matches_log_schmidt_number":
        "[3] numeric mutual information matches log K",
    "test_entropy_series_matches_closed_form":
        "[4] entropy series matches closed form",
    "test_oscillator_entropy_matches_entanglement_entropy":
        "[5] oscillator entropy matches entanglement entropy",
    "test_mode_synthesis_reproduces_wavefunction":
        "[6] truncated mode synthesis reproduces the wavefunction",
    "test_monte_carlo_coincidence_rates":
        "[7] Monte Carlo coincidence rates match inverse powers of K",
    "test_randomized_property_suite":
        "[8] randomized spectrum and round-trip property suite",
}


@pytest.fixture
def reference_params():
    """The showcase correlated configuration used across the suite."""
    return GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=0.9)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for category, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(category, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name in _ACCEPTANCE and outcomes.get(name) != "FAIL":
                outcomes[name] = verdict
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, label in _ACCEPTANCE.items():
        if name in outcomes:
            terminalreporter.write_line(f"  {label}: {outcomes[name]}")

"""One weight contract shared by every function that takes a Schmidt spectrum."""

import math

import pytest

from cvschmidt import (
    DomainError,
    entanglement_entropy,
    run_coincidence_experiment,
    sample_stream,
    schmidt_number,
)

CONSUMERS = {
    "schmidt_number": schmidt_number,
    "entanglement_entropy": entanglement_entropy,
    "sample_stream": lambda w: sample_stream(w, 10, seed=0),
    "run_coincidence_experiment": lambda w: run_coincidence_experiment(w, 2, 10, seed=0),
}


@pytest.mark.parametrize("weights, accepted", [
    ([], False),
    ([math.nan, 1.0], False),
    ([1.1, -0.1], False),
    ([0.5, 0.5 + 5e-10], False),
    ([1.0, -5e-15], True),
    ([0.25, 0.75], True),
])
def test_consumers_accept_and_reject_alike(weights, accepted):
    outcomes = {}
    for name, consume in CONSUMERS.items():
        try:
            consume(weights)
            outcomes[name] = True
        except DomainError:
            outcomes[name] = False
    assert outcomes == dict.fromkeys(CONSUMERS, accepted)


def test_rounding_dust_is_clamped_before_sampling():
    stream = sample_stream([1.0, -5e-15], 1000, seed=1)
    assert set(stream.tolist()) == {0}
    report = run_coincidence_experiment([1.0, -5e-15], 3, 100, seed=1)
    assert report.hits == 100
    assert report.p_theory == 1.0

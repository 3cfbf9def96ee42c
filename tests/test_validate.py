"""Bad inputs fail loudly at the search entry points."""
import pytest

from repro.core import SEAParams, exact_cs, sea_search, sea_search_spark

# case -> overrides of a valid call; q=-1 is in no graph
CASES = {
    "q-missing": dict(q=-1),
    "k-zero": dict(k=0),
    "e-zero": dict(e=0.0),
    "e-negative": dict(e=-1.0),
    "gamma-above-1": dict(gamma=2.0),
    "gamma-below-0": dict(gamma=-1.0),
    # SEA only: its model and size bound
    "model-unknown": dict(model="cor", size_bound=(5, 30)),
    "size-bound-reversed": dict(size_bound=(30, 5)),
    "size-bound-zero": dict(size_bound=(0, 0)),
}
SEA_ONLY = ("e-", "model-", "size-bound-")


def _sea(request, q, k, gamma, e, **params):
    g = request.getfixturevalue("fb").graph
    sea_search(g, q, SEAParams(k=k, gamma=gamma, e=e, **params))


def _sea_spark(request, q, k, gamma, e, **params):
    ag = request.getfixturevalue("tiny_spark")
    sea_search_spark(ag, q, SEAParams(k=k, gamma=gamma, e=e, **params))


def _exact(request, q, k, gamma, e):
    g = request.getfixturevalue("fb").graph
    exact_cs(g, q, k, gamma=gamma)


ENTRY_POINTS = {"sea_search": _sea, "sea_search_spark": _sea_spark, "exact_cs": _exact}


@pytest.mark.parametrize(
    "entry,case",
    [
        (entry, case)
        for entry in ENTRY_POINTS
        for case in CASES
        # Exact takes no error bound, SEA model or size bound
        if not (entry == "exact_cs" and case.startswith(SEA_ONLY))
    ],
)
def test_bad_input_raises(request, entry, case):
    args = dict(q=0, k=4, gamma=0.5, e=0.1) | CASES[case]
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](request, **args)

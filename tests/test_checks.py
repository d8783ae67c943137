"""Certificate check registry: vocabulary, selection, and tolerance wiring."""
import pytest

from spintorus.chain import default_spec
from spintorus.checks import CHECK_NAMES, run_checks
from spintorus.errors import UnsupportedRankError

EXPECTED_NAMES = (
    "QYBE",
    "unitarity",
    "crossing",
    "fusion-rank",
    "twist-invariance",
    "commuting-transfer",
    "exchange-relations",
    "vacuum-actions",
    "orthogonality",
    "identity-resolution",
    "decompositions",
    "product-identity",
)


def test_vocabulary_is_fixed():
    assert CHECK_NAMES == EXPECTED_NAMES


def test_all_checks_pass_on_default_chain(spec2):
    results = run_checks(spec2, rng_seed=20240229)
    assert tuple(r.name for r in results) == EXPECTED_NAMES
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual} vs {r.tolerance}"
        assert r.residual <= r.tolerance
        assert r.detail


def test_subset_selection_preserves_registry_order(spec2):
    results = run_checks(spec2, names=("vacuum-actions", "QYBE"),
                         rng_seed=20240229)
    assert [r.name for r in results] == ["QYBE", "vacuum-actions"]


def test_unknown_check_name_rejected(spec2):
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(spec2, names=("QYBE", "bogus"))


def test_tolerance_override_can_force_failure(spec2):
    results = run_checks(spec2, names=("unitarity",),
                         tolerances={"unitarity": 1e-30}, rng_seed=20240229)
    assert len(results) == 1
    assert not results[0].passed
    assert results[0].tolerance == 1e-30


def test_results_are_frozen(spec2):
    results = run_checks(spec2, names=("QYBE",), rng_seed=20240229)
    with pytest.raises(AttributeError):
        results[0].passed = False


@pytest.mark.parametrize("n", [2, 4])
def test_other_ranks_refused_up_front(n):
    # refused before any check runs, also for a subset that would pass
    for names in (None, ("QYBE",)):
        with pytest.raises(UnsupportedRankError, match="n = 3"):
            run_checks(default_spec(n=n, N=2), names=names)

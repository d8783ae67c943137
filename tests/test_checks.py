"""Certificate check registry: vocabulary, tolerance wiring and the bra source."""
import numpy as np
import pytest

import spintorus.checks as checks
import spintorus.monodromy as monodromy
import spintorus.sov_basis as sov_basis
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


def test_tolerance_override_can_force_failure(spec2):
    results = run_checks(spec2, tolerances={"unitarity": 1e-30},
                         rng_seed=20240229)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["unitarity"]
    assert failed[0].tolerance == 1e-30


def test_results_are_frozen(spec2):
    results = run_checks(spec2, rng_seed=20240229)
    with pytest.raises(AttributeError):
        results[0].passed = False


@pytest.mark.parametrize("n", [2, 4])
def test_other_ranks_refused_up_front(n, monkeypatch):
    # refused before any check runs
    def ran(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(checks, "CHECKS", tuple(
        (name, ran, tol) for name, _, tol in checks.CHECKS))
    with pytest.raises(UnsupportedRankError, match="n = 3"):
        run_checks(default_spec(n=n, N=2))


def test_one_basis_build_per_run(monkeypatch):
    # orthogonality, identity-resolution and decompositions share one
    # basis_states build, a bra stack and a ket stack, made anew per call
    calls = []
    grown_rows = sov_basis._grown_rows

    def counted(labels, spec, bra):
        calls.append((spec.N, bra))
        return grown_rows(labels, spec, bra)

    monkeypatch.setattr(sov_basis, "_grown_rows", counted)
    for N in (2, 3, 2):
        assert all(r.passed for r in run_checks(default_spec(N=N)))
    assert calls == [(2, True), (2, False), (3, True), (3, False),
                     (2, True), (2, False)]


def test_checks_build_no_bra_label_by_label(monkeypatch):
    # the decompositions check reads its basis bras from the stacked rows
    calls = []
    left_state = sov_basis.left_state

    def counted(*args):
        calls.append(args)
        return left_state(*args)

    monkeypatch.setattr(sov_basis, "left_state", counted)
    assert all(r.passed for r in run_checks(default_spec(N=2)))
    assert calls == []


def _nan(value):
    return float("nan")


def _nan_product(product):
    return monodromy._Tiles({key: np.full_like(tile, np.nan)
                             for key, tile in product.tiles.items()},
                            product.sectors)


def _nan_tile_entry(tiled):
    # the last entry of the last tile
    *_, (key, tile) = tiled.tiles.items()
    tile = tile.copy()
    tile.flat[-1] = np.nan
    return monodromy._Tiles({**tiled.tiles, key: tile}, tiled.sectors)


def _nan_last_family(table):
    *_, last = table
    return {**table, last: float("nan")}


def _nan_block_entry(blocks):
    # D^2_2, a block that the twisted trace does not read
    keys, vals = blocks[1][1]
    vals = vals.copy()
    vals[-1] = np.nan
    blocks[1][1] = (keys, vals)
    return blocks


def _nan_second(values):
    values = values.copy()
    values[1] = np.nan
    return values


def _nan_offdiag(report):
    return {**report, "offdiag_resid": float("nan")}


# (check, module, callee, call number, how that call's result turns NaN):
# each row plants a NaN at a term that is not the first of the reduction the
# check's residual comes from
NAN_PLANTS = [
    ("QYBE", checks, "qybe_residual", 2, _nan),
    ("unitarity", checks, "unitarity_residual", 2, _nan),
    ("crossing", checks, "crossing_residual", 2, _nan),
    ("twist-invariance", checks, "twist_invariance_residual", 2, _nan),
    ("commuting-transfer", checks, "_rel_resid", 2, _nan),
    ("exchange-relations", checks, "exchange_relation_residuals", 2,
     _nan_last_family),
    # one relation's right-hand side, a later instance of its family: the six
    # tile products before it are commuting-transfer's, so the count starts
    # after them
    ("exchange-relations", monodromy._Tiles, "__matmul__", 6 + 2, _nan_product),
    # the blocks at v of the first spectral pair: the six builds before it
    # are commuting-transfer's transfers, so the count starts after them
    ("exchange-relations", monodromy, "_sparse_blocks", 6 + 2,
     _nan_block_entry),
    ("vacuum-actions", checks, "scalar_d", 2, _nan),
    # D^2_2 at the second point: the check reads its row and column of the
    # reference state, not this entry, so only the scale meets the NaN
    ("vacuum-actions", checks, "_sparse_blocks", 2, _nan_block_entry),
    ("orthogonality", checks, "verify_orthogonality", 1, _nan_offdiag),
    ("decompositions", checks, "decomposition_residual", 2, _nan),
    # the second label's norm; orthogonality takes the N=2 chain's norms first
    ("identity-resolution", sov_basis, "_norms", 1 + 1, _nan_second),
    # the second transfer of the product, read inside monodromy
    ("product-identity", monodromy, "_tiled_transfer", 2, _nan_tile_entry),
]


@pytest.mark.parametrize("name, owner, callee, call, plant", NAN_PLANTS,
                         ids=[f"{row[0]}-{row[2]}" for row in NAN_PLANTS])
def test_nan_at_a_later_term_fails_its_check(spec2, monkeypatch, name, owner,
                                              callee, call, plant):
    exact = getattr(owner, callee)
    calls = []

    def planted(*args, **kwargs):
        calls.append(None)
        out = exact(*args, **kwargs)
        return plant(out) if len(calls) == call else out

    monkeypatch.setattr(owner, callee, planted)
    with np.errstate(invalid="ignore"):
        results = run_checks(spec2)
    assert len(calls) >= call
    assert [r.name for r in results if not r.passed] == [name]

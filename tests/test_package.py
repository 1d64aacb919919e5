"""The package's public names."""

import inspect

import pytest

import twoweight
from twoweight import extremal, grid, harness, operators, prooflab


def test_every_exported_name_resolves_once():
    names = twoweight.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(twoweight, name)]
    assert missing == []


def test_norm_bounds_is_the_extremal_entry_point():
    assert twoweight.norm_bounds is extremal.norm_bounds
    assert not hasattr(twoweight, "ascent_bounds")
    # the norm stage takes the pool's seed, not an options object
    assert not hasattr(twoweight, "AscentOptions") and not hasattr(extremal, "AscentOptions")


def test_test_only_helpers_are_not_exported():
    # the strengthened constant's sup has only test callers and lives in
    # tests/test_constants.py; its per-cube values stay for the strong scores
    from twoweight import constants

    assert not hasattr(twoweight, "strengthened_local_testing")
    assert not hasattr(constants, "strengthened_local_testing")
    assert hasattr(constants, "strengthened_local_values")


# names that no row, audit, command or benchmark ran, with the module or class
# that defined them
REMOVED = [
    (operators, "bilinear_form"),
    (operators, "linearized_maximal"),
    (operators, "localized_two_weight_maximal"),
    (operators, "Selection"),
    (operators, "SelectionError"),
    (grid, "measure_avg"),
    (grid, "weighted_avg"),
    (grid, "parent"),
    (grid, "DEFAULT_MAX_LEAVES"),
    (prooflab, "halving_chain"),
    (prooflab, "superlevel_maximal_cubes"),
    (grid.DyadicGrid, "children_indices"),
    (grid.DyadicGrid, "root"),
    (grid.Measure, "scaled"),
    (grid.Measure, "mass"),
    (grid.CubeRef, "height"),
    (prooflab.WhitneyDecomposition, "layer"),
]


@pytest.mark.parametrize("owner,name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(twoweight, name)
    assert name not in twoweight.__all__


# settable values that only tests set, now constants or always on: the
# callable, the parameter it no longer takes, and what replaced it
REMOVED_OPTIONS = [
    (harness.SuiteConfig, "ratio_cap", "harness.RATIO_CAP"),
    (grid.DyadicGrid, "max_leaves", "grid.MAX_LEAVES"),
    (grid.build_grid, "max_leaves", "grid.MAX_LEAVES"),
    (grid._cached_grid, "max_leaves", "grid.MAX_LEAVES"),
    (extremal.dense_norm_22, "max_leaves", "extremal.DENSE_ORACLE_MAX_LEAVES"),
    (grid.DyadicGrid.ancestor_indices, "include_self", "the chain always starts at the cube"),
    (operators.CubeWeights.root_only, "value", "tau = 1 at the root"),
    (prooflab.audit_decomposition, "m", "prooflab.DEFAULT_M"),
]


@pytest.mark.parametrize(
    "owner,name,replacement",
    REMOVED_OPTIONS,
    ids=[f"{getattr(owner, '__name__', owner)}-{name}" for owner, name, _ in REMOVED_OPTIONS],
)
def test_removed_options_are_gone(owner, name, replacement):
    assert name not in inspect.signature(owner).parameters, replacement


@pytest.mark.parametrize("audit", [prooflab.neighbor_sets, prooflab._layer_neighbors])
def test_neighbor_audits_always_localize(audit):
    # the localization check needs tau and omega, so neither may be left out
    params = inspect.signature(audit).parameters
    for name in ("tau", "omega"):
        assert params[name].default is inspect.Parameter.empty

"""The package's public names."""

import twoweight
from twoweight import extremal


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

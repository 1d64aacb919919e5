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

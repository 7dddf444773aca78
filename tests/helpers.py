"""Helpers that several test modules share."""

from hearstream.fitting import CATALOGUE_CFS, Audiogram
from hearstream.weights import WeightStore


def flat_audiogram(level_db: float) -> Audiogram:
    """The same hearing level at every catalogue frequency."""
    return Audiogram(CATALOGUE_CFS, (float(level_db),) * len(CATALOGUE_CFS))


def same_store(a: WeightStore, b: WeightStore) -> bool:
    """The same names in the same order, each tensor of the same shape and bytes."""
    return list(a.keys()) == list(b.keys()) and all(
        a[n].shape == b[n].shape and a[n].tobytes() == b[n].tobytes() for n in a.keys()
    )

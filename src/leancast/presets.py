"""Bundled hyperparameter presets for the published experiments.

Four named bundles, one per (platform, metric) dataset.  Each carries the
per-leaning SARIMA orders and the neural training settings.  Leanings with
no published SARIMA order (the two Gab *_leaning series) are left out of
``sarima_specs``; callers fall back to grid search for those.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forecasters import default_network_config
from .ingest import LEANINGS
from .neural import NetworkConfig
from .sarima import GridSpec, SarimaSpec


@dataclass(frozen=True)
class PresetBundle:
    sarima_specs: dict
    lstm_epochs: int
    gru_epochs: int
    multistep_epochs: int

    def network_config(self, kind: str, seed: int = 0, **overrides) -> NetworkConfig:
        """Kind defaults (``default_network_config``) with this bundle's epochs."""
        epochs = {"gru_14day": self.gru_epochs,
                  "multistep_14_5": self.multistep_epochs}.get(kind, self.lstm_epochs)
        return default_network_config(kind, seed=seed, **{"epochs": epochs, **overrides})

    def sarima_spec(self, leaning: str):
        """Published order for the leaning, or None (grid-search fallback)."""
        return self.sarima_specs.get(leaning)


_TWITTER_POSTS_SPEC = SarimaSpec(9, 0, 10, 2, 1, 1, 12)
_TWITTER_LIKES_SPEC = SarimaSpec(11, 1, 3, 3, 1, 3, 12)

PRESETS = {
    "twitter-posts": PresetBundle(
        sarima_specs={leaning: _TWITTER_POSTS_SPEC for leaning in LEANINGS},
        lstm_epochs=100, gru_epochs=100, multistep_epochs=125),
    "twitter-likes": PresetBundle(
        sarima_specs={leaning: _TWITTER_LIKES_SPEC for leaning in LEANINGS},
        lstm_epochs=100, gru_epochs=100, multistep_epochs=100),
    "gab-posts": PresetBundle(
        sarima_specs={
            "left": SarimaSpec(7, 1, 10, 3, 1, 1, 14),
            "right": SarimaSpec(6, 2, 10, 4, 1, 1, 11),
            "center": SarimaSpec(11, 1, 10, 2, 1, 1, 14),
        },
        lstm_epochs=200, gru_epochs=100, multistep_epochs=150),
    "gab-likes": PresetBundle(
        sarima_specs={
            "left": SarimaSpec(11, 1, 6, 3, 0, 4, 12),
            "right": SarimaSpec(9, 1, 11, 1, 1, 3, 12),
            "center": SarimaSpec(8, 1, 11, 4, 0, 0, 12),
        },
        lstm_epochs=200, gru_epochs=100, multistep_epochs=100),
}

# fallback grid for leanings with no published SARIMA order
FALLBACK_GRID = GridSpec(p=(0, 1, 2, 3), d=(0, 1), q=(0, 1, 2),
                         P=(0, 1), D=(0, 1), Q=(0, 1), s=(0, 7))


def get_preset(name: str) -> PresetBundle:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None

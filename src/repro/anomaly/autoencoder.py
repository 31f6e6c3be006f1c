"""LSTM autoencoder for unsupervised anomaly detection.

Architecture per the paper: "an encoder-decoder structure with LSTM
layers (50→25 neurons in encoder, 25→50 neurons in decoder) and
incorporated dropout regularization (0.2)", trained exclusively on
normal data with MSE reconstruction loss, Adam, and early stopping
(patience 10).

Layout (Keras idiom, built on :mod:`repro.nn`)::

    LSTM(50, return_sequences=True) → Dropout(0.2) →
    LSTM(25)                         →  # latent bottleneck
    RepeatVector(T)                  →
    LSTM(25, return_sequences=True) → Dropout(0.2) →
    LSTM(50, return_sequences=True) →
    TimeDistributed(Dense(n_features))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import (
    LSTM,
    Adam,
    Dense,
    Dropout,
    EarlyStopping,
    History,
    RepeatVector,
    Sequential,
    TimeDistributed,
)
from repro.nn import backend as backends
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.validation import check_3d


@dataclass(frozen=True)
class AutoencoderConfig:
    """Hyperparameters of the paper's anomaly-detection autoencoder."""

    sequence_length: int = 24
    n_features: int = 1
    encoder_units: tuple[int, int] = (50, 25)
    decoder_units: tuple[int, int] = (25, 50)
    dropout: float = 0.2
    learning_rate: float = 0.001
    epochs: int = 50
    batch_size: int = 32
    patience: int = 10

    def __post_init__(self) -> None:
        if self.sequence_length < 2:
            raise ValueError(f"sequence_length must be >= 2, got {self.sequence_length}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def build_autoencoder(config: AutoencoderConfig, seed: SeedLike = None) -> Sequential:
    """Construct and build the (uncompiled) autoencoder model."""
    layers = [
        LSTM(config.encoder_units[0], return_sequences=True, name="encoder_lstm_1"),
        Dropout(config.dropout, name="encoder_dropout"),
        LSTM(config.encoder_units[1], name="encoder_lstm_2"),
        RepeatVector(config.sequence_length, name="bridge"),
        LSTM(config.decoder_units[0], return_sequences=True, name="decoder_lstm_1"),
        Dropout(config.dropout, name="decoder_dropout"),
        LSTM(config.decoder_units[1], return_sequences=True, name="decoder_lstm_2"),
        TimeDistributed(Dense(config.n_features), name="reconstruction"),
    ]
    model = Sequential(layers, name="lstm_autoencoder")
    model.build((config.sequence_length, config.n_features), seed=seed)
    return model


class LSTMAutoencoder:
    """Train-and-score wrapper around the autoencoder model.

    The wrapper owns compilation, early-stopped training, and the two
    reconstruction-error views the detector needs:

    * per-window MSE (the paper's thresholded quantity), and
    * per-point squared error folded over overlapping windows.
    """

    def __init__(self, config: AutoencoderConfig | None = None, seed: SeedLike = None) -> None:
        self.config = config or AutoencoderConfig()
        rng = as_generator(seed)
        self.model = build_autoencoder(self.config, seed=spawn(rng, "init"))
        self.model.compile(optimizer=Adam(self.config.learning_rate), loss="mse")
        self._fit_rng = spawn(rng, "fit")
        self.history: History | None = None

    @classmethod
    def from_model(
        cls,
        config: AutoencoderConfig,
        model: Sequential,
        seed: SeedLike = None,
    ) -> "LSTMAutoencoder":
        """Wrap an already-built model (e.g. deserialized weights).

        Skips :func:`build_autoencoder`'s weight initialization — a
        checkpoint restore would immediately discard it.  ``model`` must
        match ``config``'s sequence length and feature count.
        """
        wrapper = cls.__new__(cls)
        wrapper.config = config
        wrapper.model = model
        wrapper._fit_rng = spawn(as_generator(seed), "fit")
        wrapper.history = None
        return wrapper

    def fit(self, windows: np.ndarray, verbose: bool = False) -> History:
        """Train on normal windows (input == reconstruction target)."""
        windows = check_3d(windows, "windows")
        self._validate_windows(windows)
        early_stopping = EarlyStopping(
            monitor="loss", patience=self.config.patience, restore_best_weights=True
        )
        self.history = self.model.fit(
            windows,
            windows,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            callbacks=[early_stopping],
            seed=self._fit_rng,
            verbose=verbose,
        )
        return self.history

    #: Scoring chunk size.  ``LSTM.infer`` runs wide batches in column
    #: tiles with a fixed-size workspace, so the chunk bounds only what
    #: scales with it: the per-layer sequence outputs and the
    #: ``TimeDistributed`` gather of the last one — an offline
    #: calibration pass over a million windows must not run as one
    #: allocation.  Those tile workspaces stay in each layer's LRU
    #: unless the caller scores inside ``model.transient_workspaces()``,
    #: as ``StreamingDetector.calibrate`` does, where they live for one
    #: chunk.
    _SCORING_BATCH = 32768

    def reconstruct(self, windows: np.ndarray) -> np.ndarray:
        """Deterministic reconstructions, same shape as the input."""
        windows = check_3d(windows, "windows")
        self._validate_windows(windows)
        return self.model.predict(
            windows, batch_size=min(len(windows), self._SCORING_BATCH)
        )

    def window_errors(self, windows: np.ndarray) -> np.ndarray:
        """Per-window reconstruction MSE, shape ``(n_windows,)``.

        The reduction is dispatched through the model's compute backend
        (fused subtract-square-mean on accelerated backends; the numpy
        backend evaluates the plain vectorized expression).
        """
        reconstructed = self.reconstruct(windows)
        bk = backends.resolve_backend(self.model.backend)
        return bk.window_errors(np.asarray(windows), reconstructed)

    def pointwise_errors(self, windows: np.ndarray) -> np.ndarray:
        """Per-window per-step squared error, shape ``(n_windows, T)``.

        Feature dimensions are averaged; the caller folds the window axis
        back to the series timeline with
        :func:`repro.data.windowing.errors_per_point`.
        """
        reconstructed = self.reconstruct(windows)
        bk = backends.resolve_backend(self.model.backend)
        return bk.pointwise_errors(np.asarray(windows), reconstructed)

    def _validate_windows(self, windows: np.ndarray) -> None:
        expected = (self.config.sequence_length, self.config.n_features)
        if windows.shape[1:] != expected:
            raise ValueError(
                f"windows have per-sample shape {windows.shape[1:]}, "
                f"expected {expected}"
            )

"""Procedural class-structured image generation.

Each class owns a smooth random template (low-pass filtered Gaussian
noise); samples are jittered, shifted, contrast-varied noisy copies.  The
task difficulty is controlled by the noise level and shift range: with
the defaults, small CNNs reach high-but-not-perfect accuracy after a few
epochs — qualitatively matching the CIFAR-style accuracy regime the paper
operates in, and leaving headroom for restriction-induced accuracy drops
to be visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class SyntheticImageDataset:
    """A generated train/test split of class-structured images.

    Frozen: :func:`~repro.data.datasets.load_dataset` shares one
    instance (with read-only arrays) between all callers.

    Attributes:
        name: Dataset name (e.g. ``"cifar10-like"``).
        x_train / y_train / x_test / y_test: NCHW float images in
            [-1, 1] and integer labels.
        num_classes: Number of classes.
    """

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return self.x_train.shape[1:]

    def __repr__(self) -> str:
        return (f"SyntheticImageDataset({self.name}, "
                f"train={self.x_train.shape[0]}, "
                f"test={self.x_test.shape[0]}, "
                f"classes={self.num_classes})")


def _class_templates(num_classes: int, modes: int, channels: int,
                     hw: int, rng: np.random.Generator,
                     smoothness: float) -> np.ndarray:
    """Smooth random fields: ``modes`` sub-templates per class.

    Multi-modal classes keep the task honest for strong models (a single
    prototype per class is linearly separable and even a pruned ResNet
    saturates on it).
    """
    templates = rng.normal(
        0.0, 1.0, (num_classes, modes, channels, hw, hw))
    for i in range(num_classes):
        for m in range(modes):
            for c in range(channels):
                templates[i, m, c] = ndimage.gaussian_filter(
                    templates[i, m, c], sigma=smoothness)
    flat = templates.reshape(num_classes * modes, -1)
    flat /= np.linalg.norm(flat, axis=1, keepdims=True) + 1e-12
    return (flat.reshape(templates.shape)
            * np.sqrt(channels * hw * hw)).astype(np.float32)


def _render_split(templates: np.ndarray, labels: np.ndarray,
                  rng: np.random.Generator, noise: float,
                  max_shift: int) -> np.ndarray:
    """Noisy, shifted, contrast-jittered instances of the templates."""
    n = labels.size
    __, modes, channels, hw, _hw = templates.shape
    chosen_modes = rng.integers(0, modes, n)
    images = templates[labels, chosen_modes].copy()
    contrast = rng.uniform(0.7, 1.3, (n, 1, 1, 1)).astype(np.float32)
    images *= contrast
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, (n, 2))
        for i in range(n):
            images[i] = np.roll(images[i], tuple(shifts[i]), axis=(1, 2))
    images += rng.normal(0.0, noise, images.shape).astype(np.float32)
    peak = np.abs(images).max() + 1e-12
    return (images / peak).astype(np.float32)


def generate(name: str, num_classes: int, n_train: int, n_test: int,
             hw: int = 32, channels: int = 3, noise: float = 2.0,
             max_shift: int = 3, smoothness: float = 3.0,
             modes_per_class: int = 3,
             seed: int = 0) -> SyntheticImageDataset:
    """Generate a full dataset.

    Args:
        name: Dataset name for reporting.
        num_classes: Number of classes.
        n_train / n_test: Split sizes (balanced across classes).
        hw: Image height/width.
        channels: Image channels.
        noise: Additive Gaussian noise level (task difficulty).
        max_shift: Random circular shift range in pixels.
        smoothness: Template low-pass sigma.
        modes_per_class: Sub-templates per class (class multimodality;
            raises difficulty for high-capacity models).
        seed: Generation seed.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if n_train < num_classes or n_test < num_classes:
        raise ValueError("need at least one sample per class per split")
    if modes_per_class < 1:
        raise ValueError("need at least one mode per class")
    rng = np.random.default_rng(seed)
    templates = _class_templates(num_classes, modes_per_class, channels,
                                 hw, rng, smoothness)
    y_train = np.tile(np.arange(num_classes),
                      n_train // num_classes + 1)[:n_train]
    y_test = np.tile(np.arange(num_classes),
                     n_test // num_classes + 1)[:n_test]
    rng.shuffle(y_train)
    rng.shuffle(y_test)
    x_train = _render_split(templates, y_train, rng, noise, max_shift)
    x_test = _render_split(templates, y_test, rng, noise, max_shift)
    return SyntheticImageDataset(
        name=name,
        x_train=x_train, y_train=y_train.astype(np.int64),
        x_test=x_test, y_test=y_test.astype(np.int64),
        num_classes=num_classes,
    )

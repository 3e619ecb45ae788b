"""Named dataset builders mirroring the paper's benchmarks."""

from __future__ import annotations

import functools

from repro.data.synthetic import SyntheticImageDataset, generate


def cifar10_like(n_train: int = 2000, n_test: int = 500,
                 hw: int = 32, seed: int = 0) -> SyntheticImageDataset:
    """10-class, 32x32x3 stand-in for CIFAR-10."""
    return generate("cifar10-like", num_classes=10, n_train=n_train,
                    n_test=n_test, hw=hw, seed=seed)


def cifar100_like(n_train: int = 4000, n_test: int = 1000,
                  hw: int = 32, num_classes: int = 100,
                  seed: int = 1) -> SyntheticImageDataset:
    """100-class, 32x32x3 stand-in for CIFAR-100.

    The class count can be reduced for CI-scale runs (the paper-scale
    configuration keeps all 100).
    """
    return generate("cifar100-like", num_classes=num_classes,
                    n_train=n_train, n_test=n_test, hw=hw, noise=1.5,
                    seed=seed)


def imagenet_like(n_train: int = 4000, n_test: int = 1000, hw: int = 32,
                  num_classes: int = 50,
                  seed: int = 2) -> SyntheticImageDataset:
    """Reduced-resolution, reduced-class stand-in for ImageNet.

    Full 224x224x1000-class training is far outside an offline CPU
    budget; the substitution keeps what the experiments consume — a
    harder, many-class task feeding EfficientNet-B0-Lite — at a
    configurable scale (documented in DESIGN.md).
    """
    return generate("imagenet-like", num_classes=num_classes,
                    n_train=n_train, n_test=n_test, hw=hw, noise=1.5,
                    max_shift=3, seed=seed)


_BUILDERS = {
    "cifar10": cifar10_like,
    "cifar100": cifar100_like,
    "imagenet": imagenet_like,
}


@functools.lru_cache(maxsize=len(_BUILDERS))
def _build_shared(name: str, kwargs: tuple) -> SyntheticImageDataset:
    dataset = _BUILDERS[name](**dict(kwargs))
    for array in (dataset.x_train, dataset.y_train, dataset.x_test,
                  dataset.y_test):
        array.setflags(write=False)
    return dataset


def load_dataset(name: str, **kwargs) -> SyntheticImageDataset:
    """Build a dataset by paper name (``cifar10``/``cifar100``/
    ``imagenet``).

    Generation is a pure function of ``(name, kwargs)``, so each
    distinct request is generated once per process and the same object
    is returned to every later caller (at most one memoized dataset per
    registered name).  Its arrays are read-only: a caller that writes
    in place fails loudly instead of corrupting every later user.
    """
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(_BUILDERS)}")
    return _build_shared(name, tuple(sorted(kwargs.items())))

"""Synthetic MNIST-format (IDX) image and label files.

Each class has a template made of a few Gaussian blobs; an image is its
class template mixed with uniform pixel noise.  At ``TEMPLATE_SHARE`` =
0.4 the mnist-synth workload's mean test accuracy over the three hubnet
models is 0.60 to 0.80 across seeds 1-10 (chance is 0.1).  A 0.6 share
scored 1.0 for all three models, which leaves no room to see a change.
"""

from __future__ import annotations

import struct

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
SIDE = 28
CLASSES = 10
BLOBS_PER_CLASS = 4
TEMPLATE_SHARE = 0.4


def synth_images(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(images, labels)``: uint8 count x 28 x 28 and uint8 count."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    templates = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        for _ in range(BLOBS_PER_CLASS):
            cy, cx = rng.uniform(6.0, 22.0, size=2)
            width = rng.uniform(2.0, 5.0)
            templates[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width ** 2))
        templates[c] /= templates[c].max()
    labels = rng.integers(0, CLASSES, size=count)
    noise = rng.uniform(0.0, 1.0, size=(count, SIDE, SIDE))
    mixed = TEMPLATE_SHARE * templates[labels] + (1.0 - TEMPLATE_SHARE) * noise
    images = np.clip(np.rint(mixed * 255.0), 0, 255).astype(np.uint8)
    return images, labels.astype(np.uint8)


def write_synthetic_mnist(images_path, labels_path, count: int, seed: int) -> None:
    """Write big-endian IDX files: magic, dimensions, then the uint8 payload."""
    images, labels = synth_images(count, seed)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, count, SIDE, SIDE))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, count))
        fh.write(labels.tobytes())

import numpy as np

from hubnet.tasks import load_mnist
from perfbench.synth_idx import synth_images, write_synthetic_mnist


def test_round_trip_through_load_mnist(tmp_path):
    images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_synthetic_mnist(images_path, labels_path, count=50, seed=3)
    images, labels = synth_images(50, seed=3)
    data = load_mnist(images_path, labels_path)
    assert data.count == 50
    np.testing.assert_array_equal(data.images, images.astype(float) / 255.0)
    np.testing.assert_array_equal(data.labels, labels.astype(np.int64))


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    a, b, c = (synth_images(40, seed) for seed in (1, 1, 2))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_images_are_templates_plus_noise():
    images, labels = synth_images(2000, seed=0)
    assert set(np.unique(labels)) == set(range(10))
    # images of one class share a template: their mean is far from flat noise
    class_mean = images[labels == labels[0]].astype(float).mean(axis=0)
    assert class_mean.max() - class_mean.min() > 60
    # but no two images are identical
    assert len({img.tobytes() for img in images}) == len(images)

import gzip
import struct

import numpy as np
import pytest


@pytest.fixture
def write_idx(tmp_path):
    """Writer of an IDX image/label file pair into the test's tmp_path.

    ``write(images, labels)`` returns (images path, labels path); the
    keyword arguments corrupt the pair in the ways the loader must reject.
    """
    def write(images, labels, gz=False, image_magic=0x803, label_magic=0x801,
              truncate_images=False, label_count=None):
        images = np.asarray(images, dtype=np.uint8)
        labels = np.asarray(labels, dtype=np.uint8)
        count, rows, cols = images.shape
        img_bytes = struct.pack(">IIII", image_magic, count, rows, cols) + images.tobytes()
        if truncate_images:
            img_bytes = img_bytes[:-5]
        lab_bytes = struct.pack(">II", label_magic,
                                label_count if label_count is not None else len(labels))
        lab_bytes += labels.tobytes()
        suffix = ".gz" if gz else ""
        img_path = tmp_path / f"images.idx{suffix}"
        lab_path = tmp_path / f"labels.idx{suffix}"
        opener = gzip.open if gz else open
        with opener(img_path, "wb") as fh:
            fh.write(img_bytes)
        with opener(lab_path, "wb") as fh:
            fh.write(lab_bytes)
        return img_path, lab_path
    return write


@pytest.fixture
def near_lstsq():
    """Checker that a readout w is ``lstsq(S, Y, rcond=1e-10)``'s, up to rounding.

    Both solves are backward stable, so each is within a small multiple of
    kappa(S) * eps of the exact solution, relative to its norm (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., ch. 19-20),
    where kappa(S) is the ratio of S's largest singular value to its
    smallest one above the cutoff.  The multiple is taken as n + k, the
    number of Householder reflections in a QR factorization of [S | Y].
    """
    def check(w, s, y):
        ref = np.linalg.lstsq(s, y, rcond=1e-10)[0]
        sv = np.linalg.svd(s, compute_uv=False)
        kept = sv[sv > 1e-10 * sv[0]]
        c = s.shape[1] + (1 if y.ndim == 1 else y.shape[1])
        bound = c * kept[0] / kept[-1] * np.finfo(float).eps * np.max(np.abs(ref))
        assert np.max(np.abs(w - ref)) <= bound
    return check

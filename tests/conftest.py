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

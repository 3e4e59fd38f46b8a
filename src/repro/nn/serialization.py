"""Named arrays as ``.npz`` archives: the file format of model checkpoints."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np


def save_arrays(path: Union[str, Path], arrays: Dict[str, np.ndarray]) -> None:
    """Write named arrays to a compressed npz file."""
    np.savez_compressed(path, **arrays)


def load_arrays(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read named arrays back from an npz file."""
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}

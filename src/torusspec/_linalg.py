"""Small shared linear-algebra helpers."""

from __future__ import annotations

import numpy as np


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm (largest singular value); 0.0 for an empty matrix."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def unitarity_defect(mat: np.ndarray) -> float:
    """max |U* U - I|, entrywise."""
    mat = np.asarray(mat)
    eye = np.eye(mat.shape[0], dtype=complex)
    return float(np.max(np.abs(mat.conj().T @ mat - eye)))

"""Evaluation metrics: Gaussian feature statistics and the Frechet distance.

The Frechet distance between Gaussian fits is

    ||mu_r - mu_g||^2 + Tr(S_r + S_g - 2 (S_r S_g)^{1/2})

computed through a symmetric eigendecomposition square root with a small
diagonal regularizer added before taking the root. EvalReport holds one
eval's scores; the pipeline counts the classifier-based ones (UA, IRA,
per-class accuracy) from a single vector of predicted labels.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch

Array = np.ndarray

_FD_EPS = 1e-6      # added to both covariances' diagonals before the root
_SYM_TOL = 1e-8     # largest asymmetry accepted, relative to the largest entry


@dataclass
class FeatureStats:
    mean: Array
    cov: Array
    n: int


def feature_stats(X: Array) -> FeatureStats:
    """Mean and unbiased covariance of feature rows; needs n >= 2."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if len(X) < 2:
        raise ValueError(f"need at least 2 rows for covariance, got {len(X)}")
    mean = X.mean(axis=0)
    diff = X - mean
    cov = diff.T @ diff / (len(X) - 1)
    cov = 0.5 * (cov + cov.T)
    return FeatureStats(mean=mean, cov=cov, n=len(X))


def matrix_sqrt_psd(M: Array) -> Array:
    """Symmetric PSD square root via eigendecomposition.

    Slightly negative eigenvalues from rounding are clamped to zero;
    clearly asymmetric input is rejected.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"need a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


def frechet_distance(real: FeatureStats, gen: FeatureStats) -> float:
    """Frechet distance between the two Gaussian fits.

    _FD_EPS * I is added to both covariances before the matrix square root;
    the product root is evaluated symmetrically as
    (S_r^{1/2} S_g S_r^{1/2})^{1/2}, and the result is clamped at zero
    against negative rounding.
    """
    if real.mean.shape != gen.mean.shape:
        raise ShapeMismatch(
            f"feature dims differ: {real.mean.shape} vs {gen.mean.shape}")
    d = len(real.mean)
    cr = real.cov + _FD_EPS * np.eye(d)
    cg = gen.cov + _FD_EPS * np.eye(d)
    sr = matrix_sqrt_psd(cr)
    inner = sr @ cg @ sr
    tr_root = float(np.trace(matrix_sqrt_psd(0.5 * (inner + inner.T))))
    diff = real.mean - gen.mean
    fd = float(diff @ diff) + float(np.trace(real.cov) + np.trace(gen.cov)) \
        - 2.0 * tr_root
    return max(0.0, fd)


@dataclass
class EvalReport:
    ua: float
    ira: float
    fd: float
    per_class_acc: dict = field(default_factory=dict)

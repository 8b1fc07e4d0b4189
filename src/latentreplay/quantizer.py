"""Product quantization over compressed feature maps.

The unit of quantization is the channel vector at one spatial position,
split into s contiguous sub-vectors of length d' = C'/s. Each subspace
gets its own k-means codebook; a quantized feature map stores one 8-bit
index per subspace per position. k-means runs in float64 end to end so
the per-iteration objective assertion is not disturbed by rounding; the
finished centroids are cast to float32.

Float order. Nothing here goes through BLAS. A squared distance is
summed one coordinate at a time into a (block, k) buffer, which is the
order numpy's own last-axis sum uses below eight terms (its pairwise
sum is sequential there); every shipped workload has d' of 1 or 2. For
d' >= 8 the order may differ from numpy's, but an exact centroid is at
distance 0 under any order, so decode -> re-encode still returns the
same codes. A centroid update takes `.mean(axis=0)` over the cluster's
rows in row order, the same reduction as over `vectors[assign == c]`.
`np.bincount(weights=...)` sums sequentially instead and would move the
centroids. Lloyd stops at a fixed point: once an iteration ends in the
(centroids, assignment) it began with, the rest would only repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass(frozen=True)
class Codebooks:
    """Per-subspace centroid tables of shape (s, k, d')."""

    centroids: np.ndarray  # float32 (s, k, d')

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.k > 256:
            raise ConfigError("k above 256 does not fit the one-byte code format")
        if not np.all(np.isfinite(self.centroids)):
            raise DataError("non-finite centroid")

    @property
    def s(self) -> int:
        return self.centroids.shape[0]

    @property
    def k(self) -> int:
        return self.centroids.shape[1]

    @property
    def subdim(self) -> int:
        return self.centroids.shape[2]

    @property
    def latent_channels(self) -> int:
        return self.s * self.subdim


def _kmeans_plus_plus(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed k centroids: first uniform, the rest D^2-weighted."""
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = vectors[first]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass collapsed onto chosen centroids
            centroids[i] = vectors[int(rng.integers(n))]
        else:
            idx = int(rng.choice(n, p=d2 / total))
            centroids[i] = vectors[idx]
        d2 = np.minimum(d2, ((vectors - centroids[i]) ** 2).sum(axis=1))
    return centroids


_ASSIGN_ROWS = 256


def _assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per vector; ties go to the lowest index.

    Runs over blocks of _ASSIGN_ROWS vectors so the distance buffer
    stays in cache; blocking does not change any sum.
    """
    n, d = vectors.shape
    out = np.empty(n, dtype=np.intp)
    shape = (min(n, _ASSIGN_ROWS), centroids.shape[0])
    d2 = np.empty(shape, dtype=np.result_type(vectors, centroids))
    diff = np.empty_like(d2)
    for start in range(0, n, _ASSIGN_ROWS):
        block = vectors[start : start + _ASSIGN_ROWS]
        acc, tmp = d2[: len(block)], diff[: len(block)]
        np.subtract(block[:, 0, None], centroids[None, :, 0], out=acc)
        acc *= acc
        for j in range(1, d):
            np.subtract(block[:, j, None], centroids[None, :, j], out=tmp)
            tmp *= tmp
            acc += tmp
        out[start : start + len(block)] = acc.argmin(axis=1)
    return out


def kmeans_fit(
    vectors: np.ndarray, k: int, iters: int, rng: np.random.Generator
) -> np.ndarray:
    """Lloyd's algorithm from k-means++ seeds; returns (k, d) float64 centroids.

    The within-cluster objective is asserted non-increasing after every
    iteration. Empty clusters are repaired by promoting the point
    farthest from its assigned centroid.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n < k:
        raise DataError(f"k-means needs at least k={k} vectors, got {n}")
    centroids = _kmeans_plus_plus(vectors, k, rng)
    assign = _assign(vectors, centroids)
    objective = ((vectors - centroids[assign]) ** 2).sum()
    previous = None  # the state the previous iteration began with
    for it in range(iters):
        start = (centroids.copy(), assign.copy())
        # the rows of cluster c, in row order, are grouped[ends[c] : ends[c + 1]]
        grouped = vectors[np.argsort(assign, kind="stable")]
        ends = np.concatenate([[0], np.cumsum(np.bincount(assign, minlength=k))])
        robbed = set()  # clusters a repair has taken a row from since grouping
        for c in range(k):
            members = vectors[assign == c] if c in robbed else grouped[ends[c] : ends[c + 1]]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                dist = ((vectors - centroids[assign]) ** 2).sum(axis=1)
                far = int(dist.argmax())
                centroids[c] = vectors[far]
                robbed.add(int(assign[far]))
                assign[far] = c
        new_assign = _assign(vectors, centroids)
        new_objective = ((vectors - centroids[new_assign]) ** 2).sum()
        assert new_objective <= objective + 1e-9, "k-means objective increased"
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        if np.array_equal(new_assign, start[1]) and np.array_equal(centroids, start[0]):
            break  # a fixed point: the deterministic body would repeat this iteration
        if (
            previous is not None
            and np.array_equal(new_assign, previous[1])
            and np.array_equal(centroids, previous[0])
        ):
            # a 2-cycle: the remaining iterations alternate between the two states
            if (iters - it - 1) % 2:
                centroids = start[0]
            break
        previous = start
        assign, objective = new_assign, new_objective
    return centroids


def _positions(latents: np.ndarray) -> np.ndarray:
    """(N, C', H, W) -> (N*H*W, C') position-vector matrix."""
    if latents.ndim != 4:
        raise ShapeError(f"latents must be (N, C', H, W), got {latents.shape}")
    n, c, h, w = latents.shape
    return latents.transpose(0, 2, 3, 1).reshape(n * h * w, c)


def train_pq(
    latents: np.ndarray, s: int, k: int, iters: int = 25, seed: int = 0
) -> Codebooks:
    """Fit one k-means codebook per channel subspace.

    Subquantizer i runs with seed + i, so results do not depend on the
    order the subspaces are processed in.
    """
    vectors = _positions(latents)
    c = vectors.shape[1]
    if c % s != 0:
        raise ConfigError(f"channel count {c} is not divisible by s={s}")
    subdim = c // s
    centroids = np.empty((s, k, subdim), dtype=np.float64)
    for i in range(s):
        sub = vectors[:, i * subdim : (i + 1) * subdim]
        centroids[i] = kmeans_fit(sub, k, iters, np.random.default_rng(seed + i))
    return Codebooks(centroids.astype(np.float32))


def pq_encode_batch(latents: np.ndarray, books: Codebooks) -> np.ndarray:
    """(N, C', H, W) latents -> (N, s, H, W) uint8 codes."""
    if latents.ndim != 4 or latents.shape[1] != books.latent_channels:
        raise ShapeError(
            f"latents shape {latents.shape} does not match C'={books.latent_channels}"
        )
    n, _, h, w = latents.shape
    vectors = _positions(latents).astype(np.float32)
    codes = np.empty((books.s, n * h * w), dtype=np.uint8)
    for i in range(books.s):
        sub = vectors[:, i * books.subdim : (i + 1) * books.subdim]
        codes[i] = _assign(sub, books.centroids[i]).astype(np.uint8)
    return codes.reshape(books.s, n, h, w).transpose(1, 0, 2, 3)


def pq_decode_batch(codes: np.ndarray, books: Codebooks) -> np.ndarray:
    """(N, s, H, W) codes -> (N, C', H, W) float32 centroid lookups."""
    if codes.ndim != 4 or codes.shape[1] != books.s:
        raise ShapeError(f"codes shape {codes.shape} does not match s={books.s}")
    if codes.size and codes.max() >= books.k:
        raise DataError(f"code {int(codes.max())} out of range for k={books.k}")
    n, s, h, w = codes.shape
    out = np.empty((n, books.latent_channels, h, w), dtype=np.float32)
    flat = codes.transpose(1, 0, 2, 3).reshape(s, n * h * w)
    for i in range(s):
        sub = books.centroids[i][flat[i]]  # (N*H*W, d')
        out[:, i * books.subdim : (i + 1) * books.subdim] = sub.T.reshape(
            books.subdim, n, h, w
        ).transpose(1, 0, 2, 3)
    return out


def reconstruction_mse(latents: np.ndarray, books: Codebooks) -> float:
    """Mean over position vectors of squared L2 error of encode-then-decode."""
    if latents.shape[0] == 0:
        raise DataError("reconstruction_mse over an empty set")
    decoded = pq_decode_batch(pq_encode_batch(latents, books), books)
    diff = latents.astype(np.float64) - decoded.astype(np.float64)
    n, _, h, w = latents.shape
    return float((diff**2).sum() / (n * h * w))

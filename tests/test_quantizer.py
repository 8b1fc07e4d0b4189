"""Product quantizer: k-means, encode/decode, reconstruction error."""

import itertools

import numpy as np
import pytest

from latentreplay import quantizer
from latentreplay.config import parse_config
from latentreplay.errors import ConfigError, DataError, ShapeError
from latentreplay.quantizer import (
    Codebooks,
    kmeans_fit,
    pq_decode_batch,
    pq_encode_batch,
    reconstruction_mse,
    train_pq,
)


def best_two_partition_sse(points: np.ndarray) -> float:
    """Exhaustive k=2 oracle: try every assignment of points to 2 groups."""
    best = np.inf
    n = len(points)
    for labels in itertools.product((0, 1), repeat=n):
        labels = np.array(labels)
        sse = 0.0
        for c in (0, 1):
            members = points[labels == c]
            if len(members):
                sse += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, sse)
    return best


class TestKmeans:
    def test_single_vector_k1(self):
        v = np.array([[3.0, -1.0]])
        centroids = kmeans_fit(v, k=1, iters=5, rng=np.random.default_rng(0))
        assert np.allclose(centroids, v)

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(50, 3))
        centroids = kmeans_fit(v, k=1, iters=5, rng=np.random.default_rng(0))
        assert np.allclose(centroids[0], v.mean(axis=0))

    def test_fewer_vectors_than_k_rejected(self):
        with pytest.raises(DataError):
            kmeans_fit(np.zeros((3, 2)), k=4, iters=5, rng=np.random.default_rng(0))

    def test_sse_never_beats_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(8, 1))
        centroids = kmeans_fit(v, k=2, iters=25, rng=np.random.default_rng(3))
        assign = ((v[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
        sse = ((v - centroids[assign]) ** 2).sum()
        assert sse >= best_two_partition_sse(v) - 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_heavy_data_stays_valid(self, seed):
        # k near n with repeated points exercises empty-cluster repair
        v = np.array([[0.0], [0.0], [0.0], [5.0]])
        centroids = kmeans_fit(v, k=3, iters=10, rng=np.random.default_rng(seed))
        assert centroids.shape == (3, 1)
        assert np.all(np.isfinite(centroids))


class TestTrainPq:
    def test_four_point_example_reaches_zero(self):
        # position vectors (0,0), (0,2), (10,0), (10,2); one dim per subspace
        latents = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]], dtype=np.float32)
        latents = latents.reshape(4, 2, 1, 1)
        books = train_pq(latents, s=2, k=2, iters=10, seed=0)
        assert sorted(books.centroids[0].ravel().tolist()) == [0.0, 10.0]
        assert sorted(books.centroids[1].ravel().tolist()) == [0.0, 2.0]
        assert reconstruction_mse(latents, books) == 0.0
        # exhaustive oracle agrees that 0 is optimal for both subspaces
        assert best_two_partition_sse(latents[:, 0, 0, 0:1]) == 0.0
        assert best_two_partition_sse(latents[:, 1, 0, 0:1]) == 0.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(20, 4, 3, 3)).astype(np.float32)
        a = train_pq(latents, s=2, k=8, iters=25, seed=9)
        b = train_pq(latents, s=2, k=8, iters=25, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigError, match=r"^acae\.latent_channels = 6 \(line 1\) is not "
                                              r"divisible by pq\.s = 4 \(line 2\)"):
            parse_config("acae.latent_channels = 6\npq.s = 4\n")

    def test_too_few_vectors_rejected(self):
        with pytest.raises(DataError):
            train_pq(np.zeros((1, 4, 1, 1), dtype=np.float32), s=2, k=2)

    def test_k_above_byte_range_rejected(self):
        with pytest.raises(ConfigError, match=r"^pq\.k = 257 \(line 1\) must be in \[1, 256\]"):
            parse_config("pq.k = 257\n")


def per_subspace_encode(latents: np.ndarray, books: Codebooks) -> np.ndarray:
    """The per-subspace loop that one-pass encoding replaced: subspace i's (positions, k)
    float32 squared distances, summed one coordinate at a time, ties to the lowest index."""
    n, c, h, w = latents.shape
    vectors, d = latents.transpose(0, 2, 3, 1).reshape(-1, c).astype(np.float32), books.subdim
    codes = np.empty((books.s, len(vectors)), dtype=np.uint8)
    for i, cents in enumerate(books.centroids):
        sub = vectors[:, i * d : (i + 1) * d]
        d2 = (sub[:, 0, None] - cents[None, :, 0]) ** 2
        for j in range(1, d):
            d2 = d2 + (sub[:, j, None] - cents[None, :, j]) ** 2
        codes[i] = d2.argmin(axis=1)
    return codes.reshape(books.s, n, h, w).transpose(1, 0, 2, 3)


def per_subspace_decode(codes: np.ndarray, books: Codebooks) -> np.ndarray:
    """The per-subspace lookup loop that one gather replaced."""
    n, s, h, w = codes.shape
    out, d = np.empty((n, books.latent_channels, h, w), dtype=np.float32), books.subdim
    for i, cents in enumerate(books.centroids):
        out[:, i * d : (i + 1) * d] = cents[codes[:, i]].transpose(0, 3, 1, 2)
    return out


class TestOnePass:
    @pytest.mark.parametrize("subdim", [1, 2])
    @pytest.mark.parametrize("s", [1, 3, 4])
    def test_one_pass_matches_the_per_subspace_loop_with_ties_across_blocks(self, s, subdim):
        # values on a 1/2 grid, duplicated centroids and latents halfway between two centroids
        # give exact distance ties; 13 x 5 x 5 = 325 positions cross a block boundary at
        # _ASSIGN_ROWS // s rows for every s here
        rng = np.random.default_rng(10 * s + subdim)
        cents = rng.integers(-4, 5, size=(s, 16, subdim)).astype(np.float32) / 2
        cents[:, 9] = cents[:, 2]
        books = Codebooks(cents)
        latents = rng.integers(-9, 10, size=(13, s * subdim, 5, 5)).astype(np.float32) / 4
        positions = 13 * 5 * 5
        rows = quantizer._ASSIGN_ROWS // s
        assert positions > rows and positions % rows
        codes = pq_encode_batch(latents, books)
        assert codes.dtype == np.uint8 and codes.shape == (13, s, 5, 5)
        assert np.array_equal(codes, per_subspace_encode(latents, books))
        vectors = latents.transpose(0, 2, 3, 1).reshape(positions, s, subdim)
        d2 = ((vectors[:, :, None] - cents[None]) ** 2).sum(axis=3)
        ties = (d2 == d2.min(axis=2, keepdims=True)).sum(axis=2) > 1
        assert ties.sum() > 20, "the set was meant to force exact ties"
        decoded = pq_decode_batch(codes, books)
        assert decoded.dtype == np.float32 and decoded.flags.c_contiguous
        assert decoded.tobytes() == per_subspace_decode(codes, books).tobytes()
        again = pq_decode_batch(pq_encode_batch(decoded, books), books)
        assert again.tobytes() == decoded.tobytes()


class TestEncodeDecode:
    def _books(self):
        centroids = np.array(
            [
                [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
                [[0.0, 1.0], [3.0, 3.0], [-1.0, 0.0]],
            ],
            dtype=np.float32,
        )
        return Codebooks(centroids)

    def test_centroid_valued_latent_is_fixed_point(self):
        books = self._books()
        latent = np.zeros((4, 2, 2), dtype=np.float32)
        latent[0:2, 0, 0] = books.centroids[0][1]
        latent[2:4, 0, 0] = books.centroids[1][2]
        latent[0:2, 1, 1] = books.centroids[0][2]
        latent[2:4, 1, 1] = books.centroids[1][0]
        decoded = pq_decode_batch(pq_encode_batch(latent[None], books), books)[0]
        # positions (0,1) and (1,0) hold zeros, which also match centroids
        assert np.array_equal(decoded[:, 0, 0], latent[:, 0, 0])
        assert np.array_equal(decoded[:, 1, 1], latent[:, 1, 1])

    def test_sizes_come_from_the_table_shape(self):
        books = self._books()
        assert (books.s, books.k, books.subdim, books.latent_channels) == (2, 3, 2, 4)
        with pytest.raises(DataError):
            Codebooks(np.full((2, 3, 2), np.nan, dtype=np.float32))

    def test_k1_codes_all_zero(self):
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(10, 4, 2, 2)).astype(np.float32)
        books = train_pq(latents, s=2, k=1, iters=5, seed=0)
        codes = pq_encode_batch(latents[:1], books)[0]
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, np.zeros_like(codes))

    @pytest.mark.parametrize("seed", range(10))
    def test_assignment_matches_linear_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        latents = rng.normal(size=(30, 4, 3, 3)).astype(np.float32)
        books = train_pq(latents, s=2, k=7, iters=10, seed=seed)
        latent = rng.normal(size=(4, 3, 3)).astype(np.float32)
        codes = pq_encode_batch(latent[None], books)[0]
        for y in range(3):
            for x in range(3):
                for i in range(2):
                    sub = latent[i * 2 : (i + 1) * 2, y, x]
                    dists = [
                        float(((sub - books.centroids[i][j]) ** 2).sum()) for j in range(7)
                    ]
                    want = int(np.argmin(dists))
                    assert codes[i, y, x] == want

    def test_decode_rejects_out_of_range_code(self):
        books = self._books()
        codes = np.full((2, 2, 2), 3, dtype=np.uint8)
        with pytest.raises(DataError):
            pq_decode_batch(codes[None], books)
        # k in the first subspace, which one gather over the s*k table would read as row 0 of
        # the second subspace's codebook
        codes = np.zeros((1, 2, 1, 1), dtype=np.uint8)
        codes[0, 0] = books.k
        with pytest.raises(DataError, match="code 3 out of range for k=3"):
            pq_decode_batch(codes, books)

    def test_encode_rejects_wrong_channel_count(self):
        books = self._books()
        with pytest.raises(ShapeError):
            pq_encode_batch(np.zeros((1, 6, 2, 2), dtype=np.float32), books)

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotence_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        latents = rng.normal(size=(40, 8, 3, 3)).astype(np.float32)
        books = train_pq(latents, s=4, k=16, iters=10, seed=seed)
        u = rng.normal(size=(8, 3, 3)).astype(np.float32)
        once = pq_decode_batch(pq_encode_batch(u[None], books), books)
        twice = pq_decode_batch(pq_encode_batch(once, books), books)
        assert np.array_equal(once, twice)

    def test_code_array_byte_size(self):
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(30, 8, 5, 4)).astype(np.float32)
        books = train_pq(latents, s=4, k=8, iters=5, seed=0)
        codes = pq_encode_batch(latents[:1], books)[0]
        assert codes.shape == (4, 5, 4)
        assert codes.nbytes == 4 * 5 * 4
        assert codes.max() < 8


class TestReconstructionMse:
    def test_centroid_valued_data_gives_zero(self):
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(20, 4, 2, 2)).astype(np.float32)
        books = train_pq(latents, s=2, k=4, iters=10, seed=0)
        decoded = pq_decode_batch(pq_encode_batch(latents, books), books)
        assert reconstruction_mse(decoded, books) == 0.0

    def test_k1_equals_per_subspace_variance_sum(self):
        rng = np.random.default_rng(4)
        latents = rng.normal(size=(50, 6, 2, 2)).astype(np.float32)
        books = train_pq(latents, s=3, k=1, iters=5, seed=0)
        got = reconstruction_mse(latents, books)
        vectors = latents.transpose(0, 2, 3, 1).reshape(-1, 6).astype(np.float64)
        want = vectors.var(axis=0).sum()  # centroid = mean per subspace
        assert abs(got - want) < 1e-4

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        latents = rng.normal(size=(100, 4, 4, 4)).astype(np.float32)
        errs = [
            reconstruction_mse(latents, train_pq(latents, s=2, k=k, iters=25, seed=0))
            for k in (1, 4, 16, 64)
        ]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_empty_set_rejected(self):
        books = Codebooks(np.zeros((1, 1, 2), dtype=np.float32))
        with pytest.raises(DataError):
            reconstruction_mse(np.zeros((0, 2, 1, 1), dtype=np.float32), books)

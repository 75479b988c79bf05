"""K-means clustering, implemented from scratch.

The LVF2 EM fit (paper §3.2) is initialised by partitioning the observed
samples into two groups with k-means [13, Hartigan & Wong 1979] and
deriving per-group moment estimates.  Timing samples are scalar, so the
implementation is 1-D only.

:func:`kmeans_1d_batch` clusters a stack of sample rows at once (a
single sample set is a batch of one): k-means++-style seeding followed
by Lloyd iterations, which converge in a handful of passes for the
bimodal shapes this library cares about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FittingError

__all__ = [
    "KMeansResult",
    "kmeans_1d_batch",
    "split_by_labels",
]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes:
        centers: ``(k,)`` cluster centres, sorted for determinism.
        labels: Cluster index per sample, aligned with ``centers``.
        inertia: Sum of squared distances to assigned centres.
        iterations: Number of Lloyd iterations performed.
        converged: Whether assignments stabilised before the cap.
    """

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        return int(self.centers.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Number of samples assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.n_clusters)


def _seed_plus_plus(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding on 1-D ``data``: spread initial centres apart."""
    centers = np.empty(k, dtype=float)
    centers[0] = data[rng.integers(data.size)]
    for index in range(1, k):
        distances = np.min(
            np.abs(data[:, None] - centers[None, :index]), axis=1
        )
        weights = distances**2
        total = weights.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centres; any
            # point works, the degenerate cluster is handled later.
            centers[index] = data[rng.integers(data.size)]
        else:
            centers[index] = data[
                rng.choice(data.size, p=weights / total)
            ]
    return centers


def kmeans_1d_batch(
    samples: np.ndarray,
    n_clusters: int = 2,
    *,
    max_iter: int = 100,
    n_restarts: int = 4,
    seed: int | None = 0,
) -> list[KMeansResult | FittingError]:
    """Cluster each row of a ``(n_points, n_samples)`` stack of scalars.

    Each row's result is bit-identical to clustering that row alone
    with the same ``seed`` (the serial per-row loop lives on as the
    test reference): every row gets its own freshly seeded generator
    (exactly what a serial loop constructs per call), seeding itself
    stays per-row so RNG consumption matches draw for draw, and the
    Lloyd assignment step — the hot part — runs as one vectorized
    ``argmin`` over the stacked rows.  Centre updates reduce over
    boolean-compacted per-row subsets (fresh contiguous copies), which
    keeps numpy's pairwise summation order identical to the serial
    path.  Rows whose assignments stabilise are frozen and compacted
    out while stragglers keep iterating.

    Args:
        samples: 2-D stack, one row of observations per grid point.
        n_clusters: Number of clusters ``k`` per row.
        max_iter: Lloyd-iteration cap per restart.
        n_restarts: Independent seedings per row; lowest inertia wins.
        seed: RNG seed; every row's generator is seeded with it.

    Returns:
        One entry per row: its :class:`KMeansResult`, or the
        :class:`FittingError` saying why the row cannot be clustered.
    """
    stack = np.asarray(samples, dtype=float)
    if stack.ndim != 2:
        raise FittingError(
            "batched samples must be a 2-D (n_points, n_samples) "
            f"array, got ndim={stack.ndim}"
        )
    stack = np.ascontiguousarray(stack)
    n_points, n_samples = stack.shape
    results: list[KMeansResult | FittingError | None] = [None] * n_points
    valid_rows: list[int] = []
    for p in range(n_points):
        error: FittingError | None = None
        if n_samples < n_clusters:
            error = FittingError(
                f"need at least {n_clusters} samples for "
                f"{n_clusters} clusters"
            )
        elif np.unique(stack[p]).size < n_clusters:
            error = FittingError(
                f"need at least {n_clusters} distinct values for k-means"
            )
        if error is None:
            valid_rows.append(p)
        else:
            results[p] = error
    # One generator per row, seeded identically — a serial loop calls
    # ``default_rng(seed)`` afresh for every row, so this matches its
    # draw sequence exactly.
    rngs = {p: np.random.default_rng(seed) for p in valid_rows}
    best: dict[int, KMeansResult] = {}
    for _ in range(max(1, n_restarts)):
        n_active = len(valid_rows)
        if n_active == 0:
            break
        data_c = stack[np.asarray(valid_rows, dtype=np.intp)]
        centers_c = np.empty((n_active, n_clusters), dtype=float)
        for a, p in enumerate(valid_rows):
            centers_c[a] = np.sort(
                _seed_plus_plus(stack[p], n_clusters, rngs[p])
            )
        labels_c = np.zeros((n_active, n_samples), dtype=np.intp)
        idx_c = np.arange(n_active)
        iters = np.zeros(n_active, dtype=np.intp)
        conv_flags = np.zeros(n_active, dtype=bool)
        final_labels: list[np.ndarray | None] = [None] * n_active
        final_centers: list[np.ndarray | None] = [None] * n_active
        iteration = 0
        for iteration in range(1, max_iter + 1):
            new_labels = np.argmin(
                np.abs(data_c[:, :, None] - centers_c[:, None, :]),
                axis=2,
            )
            # Centre updates stay per-row Python: the serial path's
            # empty-cluster re-seeding reads partially updated centres
            # sequentially, and masked-subset means must reduce over
            # compacted copies to keep pairwise summation identical.
            for a in range(data_c.shape[0]):
                row = data_c[a]
                row_labels = new_labels[a]
                for cluster in range(n_clusters):
                    mask = row_labels == cluster
                    if np.any(mask):
                        centers_c[a, cluster] = row[mask].mean()
                    else:
                        distances = np.abs(
                            row - centers_c[a][row_labels]
                        )
                        centers_c[a, cluster] = row[
                            int(np.argmax(distances))
                        ]
            done = np.all(new_labels == labels_c, axis=1) & (
                iteration > 1
            )
            for a in np.nonzero(done)[0]:
                i = int(idx_c[a])
                conv_flags[i] = True
                iters[i] = iteration
                final_labels[i] = new_labels[a].copy()
                final_centers[i] = centers_c[a].copy()
            labels_c = new_labels
            keep = ~done
            if not np.all(keep):
                data_c = data_c[keep]
                centers_c = centers_c[keep]
                labels_c = labels_c[keep]
                idx_c = idx_c[keep]
            if data_c.shape[0] == 0:
                break
        for a in range(data_c.shape[0]):
            i = int(idx_c[a])
            iters[i] = iteration
            final_labels[i] = labels_c[a].copy()
            final_centers[i] = centers_c[a].copy()
        for i, p in enumerate(valid_rows):
            centers = final_centers[i]
            labels = final_labels[i]
            assert centers is not None and labels is not None
            order = np.argsort(centers)
            centers = centers[order]
            remap = np.empty_like(order)
            remap[order] = np.arange(n_clusters)
            labels = remap[labels]
            inertia = float(np.sum((stack[p] - centers[labels]) ** 2))
            candidate = KMeansResult(
                centers, labels, inertia, int(iters[i]), bool(conv_flags[i])
            )
            previous = best.get(p)
            if previous is None or candidate.inertia < previous.inertia:
                best[p] = candidate
    for p in valid_rows:
        results[p] = best[p]
    return results  # type: ignore[return-value]


def split_by_labels(
    samples: np.ndarray, labels: np.ndarray
) -> list[np.ndarray]:
    """Split ``samples`` into per-cluster arrays ordered by label."""
    data = np.asarray(samples, dtype=float).ravel()
    marks = np.asarray(labels).ravel()
    return [data[marks == value] for value in range(int(marks.max()) + 1)]

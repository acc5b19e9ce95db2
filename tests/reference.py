"""Independent reference implementations used as test oracles.

Everything here recomputes results by brute force (explicit loops, per-split
block sums, high-resolution quadrature) and deliberately shares no code with
the package internals it checks.  Three exceptions reuse package code on
purpose.  chunked_rho_values is the row-cumsum sweep that rho_values'
running column sums replaced, ending in the same mmd helpers, so the two
must agree bit for bit.  The gathered permutation loop sweeps rho_curve over
an np.ix_ reordered copy per draw; it is the route the rank-mask engine
replaced (and the one its near-tie recheck still takes), and
tests/test_mmd.py holds rho_curve itself to the naive recomputations.  reference_detect runs the
package's detectors with that loop in place of every permutation test.  The
CUSUM oracles at the end take their samples from the package's generators,
so that they see the very draws the Monte Carlo harness hands to the
detectors.
"""

from math import ceil
from unittest.mock import patch

import numpy as np
from scipy.spatial.distance import pdist, squareform

import mmdseg.mmd
import mmdseg.segment
from mmdseg import AmocResult, ModelSpec, generate, rho_curve
from mmdseg.rng import TAG_DATA, derive_seed, permutation_stream


def naive_mmd_groups(gram, idx_a, idx_b):
    """Triple-loop V-statistic between two index sets."""
    a = list(idx_a)
    b = list(idx_b)
    kaa = sum(gram[i, j] for i in a for j in a)
    kbb = sum(gram[i, j] for i in b for j in b)
    kab = sum(gram[i, j] for i in a for j in b)
    return kaa / len(a) ** 2 + kbb / len(b) ** 2 - 2.0 * kab / (len(a) * len(b))


def naive_rho_values(gram):
    """Triple-loop recomputation of the scaled statistic for t = 1..n-1."""
    n = gram.shape[0]
    return np.array(
        [t * (n - t) / n**2 * naive_mmd_groups(gram, range(t), range(t, n)) for t in range(1, n)]
    )


def naive_rho_values_blockwise(gram):
    """Same values via fresh numpy block sums per split (fast naive route)."""
    n = gram.shape[0]
    out = np.empty(n - 1)
    for t in range(1, n):
        wl = gram[:t, :t].sum()
        wr = gram[t:, t:].sum()
        cr = gram[:t, t:].sum()
        d = wl / t**2 + wr / (n - t) ** 2 - 2.0 * cr / (t * (n - t))
        out[t - 1] = t * (n - t) / n**2 * d
    return out


def chunked_rho_values(gram):
    """rho_values by row prefix sums: np.cumsum over blocks of rows in one
    buffer of mmd._SCRATCH_BYTES (or of one row, if larger), reading each
    row's sum through the diagonal and its total from its cumsum."""
    n = gram.shape[0]
    row_prefix_diag = np.empty(n)
    rows = np.empty(n)
    step = min(max(1, mmdseg.mmd._SCRATCH_BYTES // (8 * n)), n)
    buffer = np.empty((step, n))
    for lo in range(0, n, step):
        block = gram[lo : lo + step]
        cs = np.cumsum(block, axis=1, out=buffer[: block.shape[0]])
        row_prefix_diag[lo : lo + step] = np.diagonal(cs, offset=lo)
        rows[lo : lo + step] = cs[:, -1]
    wl = np.cumsum(2.0 * row_prefix_diag - np.diagonal(gram))
    return mmdseg.mmd._clamp_nonnegative(mmdseg.mmd._rho_from_sums(wl, np.cumsum(rows)))


def kernel_scatter(gram, a, b):
    """Within-segment kernel scatter C(a, b) = sum_{i in [a, b)} G_ii
    - sum(G[a:b, a:b]) / (b - a): the least-squares cost of kernel
    change-point detection (Harchaoui & Cappe 2007; Arlot, Celisse &
    Harchaoui 2019)."""
    block = gram[a:b, a:b]
    return float(np.trace(block) - block.sum() / (b - a))


def gathered_permutation_maxima(gram, perms, delta):
    """Per-draw maximum of the split curve of gram[np.ix_(p, p)] for each p."""
    return np.array([rho_curve(gram[np.ix_(p, p)], delta)[1] for p in perms])


def gathered_permutation_test(gram, config, stop_on_accept=False, psd=False):
    """permutation_test(gram, config) from the gathered per-draw loop over all
    R draws of permutation_stream, with the same statistic, exceedance rules
    and rejection rule: no chunks, no screen, no low-rank tier whatever psd
    says, and no early stop whatever stop_on_accept says."""
    m = gram.shape[0]
    tau_hat, T = rho_curve(gram, config.delta)
    perms = [permutation_stream(config.seed, r).permutation(m) for r in range(1, config.R + 1)]
    stats = gathered_permutation_maxima(gram, perms, config.delta)
    if config.add_one:
        p = (1 + int(np.count_nonzero(stats >= T))) / (config.R + 1)
    else:
        p = int(np.count_nonzero(stats > T)) / config.R
    return AmocResult(T, tau_hat, p, p < config.alpha and T > 0.0, stats)


def certificate_error(p):
    """eps(p) = gamma_{p+4} / (e (1 - gamma_{p+4})) + 4u, the bound that
    kernel.gram_of_rows' docstring derives on each Gram entry's distance
    from the exact Gaussian Gram, with u = 2^-53 and gamma_n = n u / (1 - n u)."""
    u = 2.0**-53
    gamma = (p + 4) * u / (1 - (p + 4) * u)
    return gamma / (np.e * (1 - gamma)) + 4 * u


def stop_count(cfg):
    """Smallest exceedance count h whose p-value over all R draws is >= alpha."""
    h = 0
    while (((1 + h) / (cfg.R + 1)) if cfg.add_one else h / cfg.R) < cfg.alpha:
        h += 1
    return h


def reference_detect(algorithm, data, config, h=None, **budget):
    """segment.detect(algorithm, data, config, h, **budget) with every
    permutation test made by gathered_permutation_test: each decision the
    full R-draw run makes, from draws that never pass through
    rng.permutation_chunks."""
    with patch.object(mmdseg.segment, "permutation_test", gathered_permutation_test):
        return mmdseg.segment.detect(algorithm, data, config, h, **budget)


def condensed_prepare(X, h=None):
    """(bandwidth, Gram matrix) by the condensed route: pdist's condensed
    squared distances over p, the median from np.partition of that vector,
    then squareform and exp.  segment.prepare builds both in one n x n
    buffer instead; it applies the same operations to the same values, so
    the two must agree bit for bit.  h is None when the median's square
    root is not in the kernel's range."""
    sq = pdist(X, "sqeuclidean")
    sq /= X.shape[1]
    if h is None:
        half = sq.size // 2
        kth = [half] if sq.size % 2 else [half - 1, half]
        h = float(np.mean(np.sqrt(np.partition(sq, kth)[kth])))
        if not (h > 0.0 and 0.0 < 2.0 * h * h < np.inf):
            return None, None
    G = squareform(sq)
    np.negative(G, out=G)
    G /= 2.0 * h * h
    np.exp(G, out=G)
    return h, G


def l2_distance(a, b):
    """Scaled L2 distance sqrt((1/p) sum_j (a_j - b_j)^2) between two curves,
    one pair at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.sum((a - b) ** 2) / a.size))


def gaussian_kernel(a, b, h):
    """k(a, b) = exp(-l2_distance(a, b)^2 / (2 h^2)) for one pair of curves."""
    d = l2_distance(a, b)
    return float(np.exp(-(d * d) / (2.0 * h * h)))


def mixture_mmd(gram, pool_a, pool_b, alpha, beta):
    """Squared MMD between the weighted mixtures alpha P_A + (1 - alpha) P_B
    and beta P_A + (1 - beta) P_B of two pool empiricals, by the explicit
    three-term double sums over the Gram matrix.  Equals (alpha - beta)^2
    times the pure-pool MMD, which is what the identity tests verify."""
    a = np.asarray(pool_a, dtype=np.intp)
    b = np.asarray(pool_b, dtype=np.intp)
    w = np.zeros(gram.shape[0])
    v = np.zeros(gram.shape[0])
    w[a] += alpha / a.size
    w[b] += (1.0 - alpha) / b.size
    v[a] += beta / a.size
    v[b] += (1.0 - beta) / b.size
    return float(w @ gram @ w + v @ gram @ v - 2.0 * (w @ gram @ v))


def labeled_curve(gram, sizes):
    """Labeled split curve r (n - r) / n^2 * w' G w for r = 1..n-1 of the
    contiguous pools `sizes`, one split at a time.  w gives each observation
    its pool's share of the left side minus its share of the right side,
    divided by the pool size, so w' G w is the squared MMD between the two
    sides' pool mixtures by the explicit double sum over the Gram matrix."""
    n = gram.shape[0]
    sizes = np.asarray(sizes)
    label = np.repeat(np.arange(sizes.size), sizes)
    out = np.empty(n - 1)
    for r in range(1, n):
        left = np.bincount(label[:r], minlength=sizes.size) / r
        right = np.bincount(label[r:], minlength=sizes.size) / (n - r)
        w = ((left - right) / sizes)[label]
        out[r - 1] = r * (n - r) / n**2 * float(w @ gram @ w)
    return out


def quadrature_l2(f, g, points=10**6):
    """Right-endpoint Riemann quadrature of the L2[0,1] distance of f - g."""
    t = np.arange(1, points + 1) / points
    diff = f(t) - g(t)
    return float(np.sqrt(np.mean(diff * diff)))


def single_boundary_curve(d, n, n1):
    """Closed-form labeled curve values for one boundary, r = 1..n-1."""
    n2 = n - n1
    vals = []
    for r in range(1, n):
        if r <= n1:
            vals.append(r * n2**2 * d / (n**2 * (n - r)))
        else:
            vals.append(n1**2 * (n - r) * d / (r * n**2))
    return np.array(vals)


def two_boundary_branches(d12, d13, d23, n, n1, n2):
    """The three branch formulas for two boundaries, each callable at any r."""
    n3 = n - n1 - n2

    def branch1(r):
        return (
            r
            * (n2 * (n2 + n3) * d12 + n3 * (n2 + n3) * d13 - n2 * n3 * d23)
            / (n**2 * (n - r))
        )

    def branch2(r):
        return (n * n1 - r * (n1 + n3)) / n**2 * (
            n1 * d12 / r - n3 * d23 / (n - r)
        ) + n1 * n3 * d13 / n**2

    def branch3(r):
        return (
            (n - r)
            * (n2 * (n1 + n2) * d23 + n1 * (n1 + n2) * d13 - n1 * n2 * d12)
            / (r * n**2)
        )

    return branch1, branch2, branch3


def separated_pools(rng, sizes, p=8, gap=4.0):
    """Stacked Gaussian pools with well-separated means (distinct populations)."""
    parts = [
        rng.normal(loc=gap * k, scale=1.0, size=(m, p)) for k, m in enumerate(sizes)
    ]
    return np.vstack(parts)


# ---------------------------------------------------------------------------
# same-draw CUSUM oracles for the localization criteria
# ---------------------------------------------------------------------------


def cusum_argmax(x, delta=0.05, min_side=2):
    """Smallest maximizer of the mean-change CUSUM n (S_t - t S_n / n)^2 / (t (n - t))
    over the splits trim <= t <= n - trim, trim = max(ceil(n delta), min_side).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    t = np.arange(1, n)
    s = np.cumsum(x)
    stat = n * (s[:-1] - t * s[-1] / n) ** 2 / (t * (n - t))
    trim = max(ceil(n * delta), min_side)
    return trim + int(np.argmax(stat[trim - 1 : n - trim]))


def model1_shift_projection(data):
    """Each curve's L2[0, 1] inner product with model 1's true mean shift
    6t(1 - t) - 2t (post-change mean minus pre-change mean)."""
    p = data.shape[1]
    t = np.arange(1, p + 1) / p
    return data @ (6.0 * t * (1.0 - t) - 2.0 * t) / p


def squared_l2_norm(data):
    """Each curve's squared scaled-L2 norm (1/p) sum_j x_j^2."""
    return np.mean(data * data, axis=1)


def cusum_oracle_match(feature, model_id, lengths, seed, cell, replications):
    """Share of the draws run_benchmark(seed=seed) makes for its cell number
    `cell`, a single-change model, on which the CUSUM of `feature` (one scalar
    per curve) lands within one index of the truth.

    The oracle is told the nature of the change through `feature`; it scores
    the same draws, admissible range and +-1 rule as the detector it is set
    beside.
    """
    hits = 0
    for rep in range(replications):
        data_seed = derive_seed(derive_seed(seed, cell, rep), TAG_DATA)
        sample = generate(ModelSpec(model_id, lengths, seed=data_seed))
        (boundary,) = sample.truth.boundaries
        hits += abs(cusum_argmax(feature(sample.data)) - boundary) <= 1
    return hits / replications

"""Both ECVQ fits: pinned histories, assignments and codebooks.

The digests below pin every byte of ``ecvq_fit``'s
``(history, assign, centroids, lengths)`` and, for ``bica_ecvq_fit``, of
those plus the returned index permutation, at the shape of the benchmark's
ECVQ sweep (n=1000 six-dimensional mixture samples, 64 initial clusters)
and at both ends of the lambda grid. A change to the assignment kernel
that moves a single tie or rounding shows here. Two more lambdas pin the
other cases of the sweep: lambda = 0, where the bias is 0 on every live
cluster (lambda times an infinite length would be NaN), and lambda = 1.0,
where the bit-wise fit runs 47-57 sweeps.

One more pair pins both fits on one-dimensional samples, where a
cluster's mean is summed by ``bincount`` in sample order while
``x[assign == c].mean(axis=0)`` would sum its single column pairwise.

One more digest pins ``bica_ecvq_fit`` at 40 initial clusters, whose
indices are embedded in 6 bits: the 24 indices no cluster owns carry zero
probability in every sweep's length step.

Two more pairs pin both fits on 8- and 12-dimensional samples, where each
sample's distortion is NumPy's row reduction with its 8 partial sums, not
the left-to-right column sum that narrower samples use.
"""

import hashlib

import numpy as np
import pytest

from bicacomp.sources import SourceSpec, sample
from bicacomp.vq import bica_ecvq_fit, ecvq_fit

N, DIM, M_INIT = 1000, 6, 64

ECVQ_DIGESTS = {
    (0, 0.01): "94e7ee3ed828a26ddd76526055c1a7efbceb57da5e7c91fb750342d008bb4222",
    (0, 10.0): "145c5d21c5979bfe1d3357cd5b330c19d2c9d394a7d9a5119ac0f68da7b915e5",
    (1, 0.01): "408cbabfe9b1f95619fa36dab17ab1eae6d0040464363485c88dc62ee26b3251",
    (1, 10.0): "4f4166ea28026a31439fa62644d9f0ae15dd6d6e360e415594058a01dc95c9aa",
    (0, 0.0): "f973f2f68dc81c53c7cf883f5f4e95cc43afb45984c83349a07d9838fceff2d8",
    (0, 1.0): "0a5bff15cf87caeca45693fac05e11c8b02796d9b8d13f86f9163ddeb6010acf",
    (1, 0.0): "be183025181978510bcb04836f0a599cd356c62a82101c150f3b2260efebc435",
    (1, 1.0): "acecfb58da5a9218a662106fcb78b2c48e7035ed0144c484908e258d1acbc3b3",
}

BICA_DIGESTS = {
    (0, 0.01): "2e81db8660d65ba3218a5cd6e636f6ae98e9c8b6c011edaa4f9df187b6e0f305",
    (0, 10.0): "b8934e96c2f88fb8a9c285cb0c51cf4cd02e2b299ba850b837298e684e2ea528",
    (1, 0.01): "df273bf9e61683a1cb85c9f34ea036dceb465410f63ae6f3e162896d9e440ffd",
    (1, 10.0): "88874d6746818a5f8c07fc16dc5188ecbb5c3baf20aa3021f0c1cbdc97b5f7d9",
    (0, 0.0): "a587803de189867d914f6a7385e2dd2e3f2c279ccf9293720b493390b6881d8e",
    (0, 1.0): "0a51ec0b3d9f45683be0c564373dceb961972946815ecf6e9cfb8bb39eca8b07",
    (1, 0.0): "57cc4fa5eda5c984e3c77f22c025d0dd28c0b72a856f20b7e751606e81614030",
    (1, 1.0): "eef03c38fa63e459bb5c9a87d739c21441af11e63af67f0881fcdd90a9e4a23d",
}

# (n, m_init, lambda, seed) of the one-dimensional fits
DIM1_CASE = (2000, 32, 0.01, 0)
DIM1_DIGESTS = {
    "ecvq": "dce3a3431eb55284d7a336f56ef41f4add980f0eb146315b0c2a07cc16e17d3e",
    "bica": "8f96d2ac4ac521fd5a20794ba28fdbcaf6581dec55fa2510642a0a598c719f45",
}

# (m_init, seed, lambda) of the fit whose index embedding has an empty tail
PADDED_CASE = (40, 1, 0.01)
PADDED_DIGEST = "d934c664d4ce29436e426b737c4d3a15cf0a5ed147fc47614b0ba5ac49eaaef2"

# (ecvq, bica) digests of the seed-0 fits at n = 1000, 64 clusters and
# lambda = 0.01, by sample dimension
WIDE_LAMBDA = 0.01
WIDE_DIGESTS = {
    8: ("b2cf323ec530be277d8f435a27b06cd728f024a1512597ef983f0df72182db2b",
        "4fd874666744545c2a7eba30f1321633a2852ce26510d567329aba85e09cbc57"),
    12: ("ade55bee5360aecb1a420949a130ef314cb4e80786c3ed7e4948c2207b287bf1",
         "eec2651eea8efee17496d7a691d7067d80cd1dbf895d26c39a4e6e3e28f0e407"),
}


def _samples(seed):
    return sample(SourceSpec.gaussian_mixture(DIM, seed=seed), N)


def _digest(state, *extra):
    h = hashlib.sha256()
    for a in (state.history, state.assign, state.centroids, state.lengths, *extra):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed, lam", sorted(ECVQ_DIGESTS))
def test_ecvq_fit_pinned(seed, lam):
    state = ecvq_fit(_samples(seed), M_INIT, lam, seed=seed)
    assert _digest(state) == ECVQ_DIGESTS[seed, lam]


@pytest.mark.parametrize("seed, lam", sorted(BICA_DIGESTS))
def test_bica_ecvq_fit_pinned(seed, lam):
    state, g = bica_ecvq_fit(_samples(seed), M_INIT, lam, seed=seed)
    assert _digest(state, g.map) == BICA_DIGESTS[seed, lam]


def test_one_dimensional_fits_pinned():
    n, m_init, lam, seed = DIM1_CASE
    x = sample(SourceSpec.gaussian_mixture(1, seed=seed), n)
    assert _digest(ecvq_fit(x, m_init, lam, seed=seed)) == DIM1_DIGESTS["ecvq"]
    state, g = bica_ecvq_fit(x, m_init, lam, seed=seed)
    assert _digest(state, g.map) == DIM1_DIGESTS["bica"]


def test_bica_ecvq_fit_padded_index_tail_pinned():
    m_init, seed, lam = PADDED_CASE
    state, g = bica_ecvq_fit(_samples(seed), m_init, lam, seed=seed)
    assert _digest(state, g.map) == PADDED_DIGEST


@pytest.mark.parametrize("dim", sorted(WIDE_DIGESTS))
def test_wide_sample_fits_pinned(dim):
    x = sample(SourceSpec.gaussian_mixture(dim, seed=0), N)
    ecvq, bica = WIDE_DIGESTS[dim]
    assert _digest(ecvq_fit(x, M_INIT, WIDE_LAMBDA, seed=0)) == ecvq
    state, g = bica_ecvq_fit(x, M_INIT, WIDE_LAMBDA, seed=0)
    assert _digest(state, g.map) == bica

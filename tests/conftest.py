"""Shared brute-force oracles, independent of the implementation under test.

Everything here recomputes expected values from first principles: explicit
operator matrices, direct enumeration of filtered marked subsets, and
straight bit arithmetic on labels.  The planner's original linear scan
over the attenuation curve is kept here as the reference for its inversion,
as is the search loop as first written.  Sampled readouts are checked in
distribution: count moments and sign-error probabilities are recomputed
here from Born weights enumerated over every label.
"""

import math

import numpy as np

from grover_ev import (
    SearchFailure,
    SearchResult,
    attenuation,
    decide_sign,
    make_plan,
)
from grover_ev import cli, core, measurement

# Tolerance for cases that are exact up to floating-point rounding
# (involutions, analytically exact expectation values).
EXACT_ATOL = 1e-12


def oracle_matrix(qubit_count, locations):
    """Diagonal sign-flip operator as an explicit dense matrix."""
    n = 1 << qubit_count
    diag = np.ones(n)
    diag[list(locations)] = -1.0
    return np.diag(diag).astype(complex)


def diffusion_matrix(qubit_count):
    """Inversion about the mean as an explicit dense matrix: 2J/N - I."""
    n = 1 << qubit_count
    return (2.0 / n) * np.ones((n, n), dtype=complex) - np.eye(n, dtype=complex)


def grover_matrix(qubit_count, locations):
    """One amplification step as a matrix product (diffusion after oracle)."""
    return diffusion_matrix(qubit_count) @ oracle_matrix(qubit_count, locations)


def bit_of(label, k):
    """Bit k of a basis label, 1-indexed from the least significant end."""
    return (label >> (k - 1)) & 1


def low_bits(label, count):
    """The lowest ``count`` bits of a label, least significant first."""
    return tuple(bit_of(label, k) for k in range(1, count + 1))


def filtered_subset(locations, prefix_bits):
    """Marked locations whose low bits match the determined prefix."""
    k = len(prefix_bits)
    return [x for x in locations if low_bits(x, k) == tuple(prefix_bits)]


def filtered_ev_formula(locations, prefix_bits, target, scale):
    """Expected averaged EV: (scale / M) * sum over the filtered subset
    of (-1)**(bit ``target``)."""
    subset = filtered_subset(locations, prefix_bits)
    signed = sum(1 - 2 * bit_of(x, target) for x in subset)
    return scale * signed / len(locations)


def random_marked_locations(rng, universe_size, count):
    """Distinct random locations drawn without replacement."""
    return tuple(int(x) for x in rng.choice(universe_size, size=count, replace=False))


def basis_state_vector(qubit_count, label):
    """Amplitude array for the computational basis state |label>."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    amps[label] = 1.0
    return amps


def uniform_over(qubit_count, locations):
    """Amplitude array of the ideal final state: equal weight on the
    given locations, zero elsewhere."""
    amps = np.zeros(1 << qubit_count, dtype=complex)
    amps[list(locations)] = 1.0 / np.sqrt(len(locations))
    return amps


def reference_truncation_scan(universe_size, marked_count, a_th):
    """The planner's original O(m_stand) linear scan, kept as the reference
    for its closed-form inversion: the smallest m whose attenuation exceeds
    a_th, or (m_stand, True) when none up to the standard count does.

    It walks the package's own ``attenuation`` so that float rounding in the
    curve is the same on both sides of the comparison.
    """
    m_stand = make_plan(universe_size, marked_count, 0.0).m_stand
    for m in range(m_stand + 1):
        if attenuation(universe_size, marked_count, m) > a_th:
            return m, False
    return m_stand, True


def reference_extract_location(marked, iterations, model, a_th):
    """The bit-extraction search as first written, with the prefix kept as a
    tuple of bits: the plain run is read on every qubit, each correlated run
    on its target qubit from that qubit's ones over the moved labels, and a
    stage averages the target qubit's two EVs.  Every run reads in turn from
    one generator, the search's stream ``(seed, READ, 0)``, and the search
    gives up rather than make run ``4 L + 1``."""
    a_m = attenuation(marked.universe_size, marked.count, iterations)
    qubit_count = marked.universe_size.bit_length() - 1
    locations = np.array(marked.locations, dtype=np.int64)
    sampled = model.shots or model.gaussian_noise_sigma
    rng = core.stream(model.seed, core.READ, 0) if sampled else None
    label_bits = (locations[:, None] >> np.arange(qubit_count)) & 1
    plain = measurement._read(a_m, model, label_bits.sum(axis=0).tolist(), label_bits, rng)
    total_runs, branch_events, verifications = 1, 0, 0
    pending, bits = [], ()
    while True:
        while len(bits) < qubit_count:
            target = len(bits) + 1
            if not bits:
                ev = plain[0]
            else:
                if total_runs == 4 * qubit_count:
                    raise SearchFailure(
                        "run budget spent",
                        reason="budget",
                        total_runs=total_runs,
                        branch_events=branch_events,
                    )
                prefix = sum(b << i for i, b in enumerate(bits))
                low = locations & ((1 << len(bits)) - 1)
                moved = np.where(low == prefix, locations, locations ^ (1 << (target - 1)))
                ones = int(((moved >> (target - 1)) & 1).sum())
                correlated = measurement._read_one(a_m, marked.count, model, ones, rng)
                total_runs += 1
                ev = (plain[target - 1] + correlated) / 2.0
            bit = decide_sign(ev, a_th)
            if bit is None:
                branch_events += 1
                pending.append(bits + (1,))
                bit = 0
            bits += (bit,)
        candidate = sum(b << i for i, b in enumerate(bits))
        verifications += 1
        if candidate in marked.locations:
            return SearchResult(
                location=candidate,
                total_runs=total_runs,
                total_oracle_invocations=iterations * total_runs + verifications,
                branch_events=branch_events,
                verification_queries=verifications,
            )
        if not pending:
            raise SearchFailure(
                "all branch candidates failed verification",
                reason="exhausted",
                total_runs=total_runs,
                branch_events=branch_events,
            )
        bits = pending.pop()


# ------------------------------------------------ sampled readout, in distribution

def class_born_weights(qubit_count, heavy, weights):
    """Born weight of every label of a two-amplitude state, enumerated and
    scaled to sum to 1: ``weights[0]`` on each heavy label, ``weights[1]``
    on every other."""
    born = np.full(1 << qubit_count, float(weights[1]))
    born[np.asarray(heavy, dtype=np.int64)] = weights[0]
    return born / born.sum()


def ones_probabilities(born, qubits):
    """P(bit k = 1) of one shot, for each k in ``qubits``."""
    labels = np.arange(born.size)
    return np.array([born[(labels >> (k - 1)) & 1 == 1].sum() for k in qubits])


def count_moments(born, qubits, shots):
    """Closed form of one run's per-qubit ones over ``shots`` i.i.d. shots
    from Born weights ``born``: the mean vector, the covariance matrix, and
    E[(X_j - mu_j)^2 (X_k - mu_k)^2] for every pair (the fourth moment behind
    a sample covariance's standard error)."""
    labels = np.arange(born.size)
    bits = ((labels[None, :] >> (np.asarray(qubits)[:, None] - 1)) & 1).astype(float)
    p = bits @ born
    dev = bits - p[:, None]
    one_cov = (dev * born) @ dev.T
    one_var = np.diag(one_cov)
    fourth = shots * ((dev**2 * born) @ (dev**2).T) + shots * (shots - 1) * (
        np.outer(one_var, one_var) + 2 * one_cov**2
    )
    return shots * p, shots * one_cov, fourth


def count_z_scores(ones, born, qubits, shots):
    """How far the per-qubit counts of independent runs (the rows of
    ``ones``) stray from :func:`count_moments`, in standard errors: the
    z-score of each qubit's mean count, and of each entry of the sample
    count covariance (variances on the diagonal).

    Each gap first gives up three events' worth (3 / reads), so that a
    qubit whose ones are rare, and whose count sum is far from normal, is
    not judged by a normal tail.  A statistic whose standard error is 0
    scores 0 when exact and inf otherwise.
    """
    ones = np.asarray(ones, dtype=float)
    reads = ones.shape[0]
    mean, cov, fourth = count_moments(born, qubits, shots)

    def z(observed, expected, variance):
        error = np.sqrt(np.maximum(variance, 0.0) / reads)
        gap = np.maximum(np.abs(observed - expected) - 3.0 / reads, 0.0)
        scaled = gap / np.where(error > 0, error, 1.0)
        return np.where(error > 0, scaled, np.where(gap == 0, 0.0, np.inf))

    sample_cov = np.atleast_2d(np.cov(ones, rowvar=False))
    return z(ones.mean(axis=0), mean, np.diag(cov)), z(sample_cov, cov, fourth - cov**2)


def assert_counts_match(ones, born, qubits, shots, bound=5.0):
    """Every mean and covariance z-score of :func:`count_z_scores` within ``bound``."""
    mean_z, cov_z = count_z_scores(ones, born, qubits, shots)
    assert np.all(mean_z <= bound), ("mean", mean_z)
    assert np.all(cov_z <= bound), ("covariance", cov_z)


def count_check_power(born, qubits, shots, reads, uniform_weight):
    """The z-scores :func:`count_z_scores` would give the two defects a
    sampler check must catch, at least: every p_k off by 1/sqrt(shots) (a
    mean off by sqrt(shots)), and the qubits of the mixture's uniform part,
    which holds ``uniform_weight`` of the shots, sharing one count (each
    pair's covariance up by uniform_weight * shots / 4).  Returns the
    smaller over qubits, and over pairs."""
    _, cov, fourth = count_moments(born, qubits, shots)
    slack = 3.0 / reads
    mean_power = (np.sqrt(shots) - slack) / np.sqrt(np.diag(cov) / reads)
    pair_error = np.sqrt((fourth - cov**2) / reads)[~np.eye(len(qubits), dtype=bool)]
    pair_power = (uniform_weight * shots / 4 - slack) / pair_error
    return float(mean_power.min()), float(pair_power.min()) if pair_power.size else math.inf


def binomial_pmf(n, p):
    """P(X = x) for x = 0..n, X ~ Binomial(n, p), through log-gamma."""
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[0 if p <= 0.0 else n] = 1.0
        return pmf
    x = np.arange(n + 1)
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                         for i in x])
    return np.exp(log_comb + x * math.log(p) + (n - x) * math.log1p(-p))


def _clipped_normal_cdf(t, sigma, strict):
    """P(e <= t), or P(e < t) when ``strict``, for e a N(0, sigma^2) draw
    clipped to [-3 sigma, 3 sigma]: the clip puts atoms at both ends."""
    if t < -3 * sigma or (strict and t == -3 * sigma):
        return 0.0
    if t > 3 * sigma or (not strict and t == 3 * sigma):
        return 1.0
    return 0.5 * (1.0 + math.erf(t / (sigma * math.sqrt(2.0))))


def sign_error_probability(shots, p, exact, sigma):
    """Chance that one trial reads the sign of an EV wrong: the EV is
    ``(shots - 2 X) / shots`` with X ~ Binomial(shots, p) (the exact EV when
    shots = 0), plus clipped Gaussian noise of width sigma; the reference is
    the sign of ``exact``, and a zero readout of a decidable qubit errs."""
    truth = np.sign(exact)
    if shots:
        weights = binomial_pmf(shots, p)
        evs = (shots - 2 * np.arange(shots + 1)) / shots
    else:
        weights, evs = np.ones(1), np.array([exact])
    if sigma == 0:
        return min(1.0, float(weights @ (np.sign(evs) != truth)))
    if truth > 0:
        wrong = [_clipped_normal_cdf(-ev, sigma, strict=False) for ev in evs]
    elif truth < 0:
        wrong = [1.0 - _clipped_normal_cdf(-ev, sigma, strict=True) for ev in evs]
    else:
        wrong = np.ones(evs.size)
    return min(1.0, float(weights @ np.asarray(wrong)))


def assert_rate_matches(errors, trials, probability, bound=5.0):
    """``errors`` of ``trials`` independent trials within ``bound`` binomial
    standard errors, plus three errors, of ``trials * probability``: the
    three keep a rare error from being judged by a normal tail."""
    spread = math.sqrt(trials * probability * (1.0 - probability))
    assert abs(errors - trials * probability) <= bound * spread + 3, (
        errors, trials, probability)


class RecordingGenerator:
    """A numpy ``Generator`` that keeps every array it hands out, by method,
    in ``draws``: a stand-in for the stream ``core.stream`` names by ``key``,
    (seed, purpose, index), with the key's seed in ``seed``.  Each name
    ``core.rekey`` moves it to is appended to ``rekeys``."""

    def __init__(self, key, real):
        self.key = key
        self.seed = key[0]
        self._rng = real(*key)
        self.draws = []
        self.rekeys = []

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, np.array(out)))
            return out

        return recorded


def generator_state(rng):
    """``rng``'s bit-generator state with every array as a list, so that two
    states compare by ``==``: a Philox state holds its counter, key and
    buffer as arrays."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def record_generators(monkeypatch):
    """Replace the one stream function, ``core.stream``, with
    :class:`RecordingGenerator` at every name it is looked up by (``core``
    for a marked-set draw, ``measurement`` for every read, ``cli`` for a
    sweep's one generator), and wrap ``core.rekey`` at both of its names so
    that each move is recorded in the generator's ``rekeys``; return the
    list every generator built from then on is appended to."""
    built = []
    real, real_rekey = core.stream, core.rekey

    def build(seed, purpose, index):
        rng = RecordingGenerator((seed, purpose, index), real)
        built.append(rng)
        return rng

    def rekey(rng, seed, purpose, index):
        moved = real_rekey(rng, seed, purpose, index)
        rng.rekeys.append((seed, purpose, index))
        return moved

    for module in (core, measurement, cli):
        monkeypatch.setattr(module, "stream", build)
    for module in (core, measurement):
        monkeypatch.setattr(module, "rekey", rekey)
    return built

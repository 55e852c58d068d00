"""Monte Carlo check of the accidental-coincidence law.

Two independent sources each emit strings of n symbols, every symbol drawn
from the same categorical distribution {lambda_k}.  The probability that
two independent strings agree at every position is (sum lambda_k^2)^n,
i.e. K^(-n) in terms of the Schmidt number.  This module estimates that
probability empirically with a seedable generator so every report is
bit-reproducible.

Sampling is inverse-CDF on the cumulative weights cum: a uniform u gets
the symbol searchsorted(cum, u, side="right").  A guide table (Chen & Asau
1974; Devroye, Non-Uniform Random Variate Generation, III.2.4) finds that
symbol without a binary search for most draws.  It splits [0, 1) into T
cells, T a power of two (the next one >= 16 m for m weights, at most
2**16), and keeps for each cell t the symbol of its left edge,
guide[t] = searchsorted(cum, t/T, side="right").  A cell is clean when no
bucket boundary lies inside it, cum[guide[t]] >= (t+1)/T; only the draws
that land in the other cells, at most m - 1 of them, are searched.  Since
T is a power of two, u * T is exact and its floor is the cell holding u,
so the table gives searchsorted's symbol bit for bit, also for a u equal
to a cumulative weight and for zero weights.  The table takes 9 bytes a
cell (an index and a flag): 74 KB at m = 437, never more than 0.6 MB.

The experiment draws its trials in fixed blocks and filters them position
by position (a few positions per pass when K is near 1): the table places
the first source's symbol, an interval test on the cumulative weights
checks the second, and only trials that still match go on to the next
position.  Memory is bounded by the block, not by trials * n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .information import coincidence_probability
from .schmidt import _schmidt_number
from .util import validate_weights

# Most symbol pairs (trials * n, two draws each) one experiment may draw:
# 100 times a 10^6-trial run at n = 4.  Draws are made in blocks, so this
# bounds the run time, not the memory.
MAX_SYMBOL_PAIRS = 400_000_000

# Symbol pairs drawn per block: whole trials of n symbols while n fits,
# otherwise one trial in pieces of this many positions.
_CHUNK_SYMBOLS = 2**16

# Most cells of the guide table; below the cap a table has 16 to 32 cells
# per weight.
_MAX_GUIDE_CELLS = 2**16


@dataclass(frozen=True)
class CoincidenceReport:
    """Outcome of one coincidence experiment.

    p_hat estimates p_theory = K^(-n_symbols); std_err is the binomial
    standard error sqrt(p_hat(1-p_hat)/trials).
    """

    n_symbols: int
    trials: int
    hits: int
    p_hat: float
    p_theory: float
    std_err: float
    seed: int


def _cumulative(w: np.ndarray) -> np.ndarray:
    cum = np.cumsum(w)
    # Guard the u ~ 1 edge against rounding in the cumulative sum.
    cum[-1] = 1.0
    return cum


def _guide_table(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guide table of cum: each cell's first symbol and whether it is clean."""
    cells = min(1 << (16 * cum.size - 1).bit_length(), _MAX_GUIDE_CELLS)
    edges = np.arange(cells + 1) / cells
    guide = np.searchsorted(cum, edges[:-1], side="right")
    return guide, cum[guide] >= edges[1:]


def _symbols(cum: np.ndarray, table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, side="right"), read from the guide table where it can be."""
    guide, clean = table
    cell = (u * guide.size).astype(np.intp)
    k = guide[cell]
    dirty = ~clean[cell]
    k[dirty] = np.searchsorted(cum, u[dirty], side="right")
    return k


def _draw(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on [0, 1): every draw of this module goes through here."""
    return rng.random(shape)


def _require_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generators do not accept."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def sample_stream(weights, n: int, seed: int) -> np.ndarray:
    """Draw n independent symbols from the categorical distribution.

    Deterministic for a fixed seed (>= 0); returns an integer index array.
    """
    if n < 1:
        raise DomainError(f"stream length must be >= 1, got {n}")
    cum = _cumulative(validate_weights(weights))
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    return _symbols(cum, _guide_table(cum), _draw(rng, n))


def _count_hits(cum: np.ndarray, K: float, n: int, trials: int, seed: int) -> int:
    """Trials whose two n-strings agree everywhere, drawn block by block.

    The first source reads default_rng(seed) and the second a PCG64(seed)
    advanced past the first source's trials * n draws, so both see exactly
    the stream a one-shot draw of (trials, n) then (trials, n) would: the
    hit count does not depend on the block size.  The first source's
    symbols come from the guide table; a symbol k matches the second draw u
    iff cum[k-1] <= u < cum[k], the bucket searchsorted(cum, u, side="right")
    would put u in.
    """
    first = np.random.default_rng(seed)
    second = np.random.Generator(np.random.PCG64(seed))
    second.bit_generator.advance(trials * n)
    lower = np.concatenate(([0.0], cum[:-1]))
    table = _guide_table(cum)
    rows = max(1, _CHUNK_SYMBOLS // n)
    width = min(n, _CHUNK_SYMBOLS)
    # Positions tested per pass, chosen so that about half of the live
    # trials survive a pass: one position whenever K >= 2, more as K nears 1.
    group = max(1, int(math.log(2.0) / math.log(K))) if K > 1.0 else width
    hits = 0
    for start in range(0, trials, rows):
        count = min(rows, trials - start)
        alive = np.arange(count)
        # A block has more than one piece only when it holds one split trial.
        for offset in range(0, n, width):
            step = min(width, n - offset)
            u1 = _draw(first, (count, step))
            u2 = _draw(second, (count, step))
            for j in range(0, step, group):
                cols = slice(j, j + group)
                if alive.size == count:
                    # Every trial is live: read the columns without a gather.
                    a, b = u1[:, cols], u2[:, cols]
                else:
                    a, b = u1[alive, cols], u2[alive, cols]
                k = _symbols(cum, table, a)
                alive = alive[np.all((lower[k] <= b) & (b < cum[k]), axis=1)]
                if alive.size == 0:
                    break
            if alive.size == 0:
                # Skip the rest of a split trial in both streams.
                rest = n - offset - step
                first.bit_generator.advance(rest)
                second.bit_generator.advance(rest)
                break
        hits += int(alive.size)
    return hits


def run_coincidence_experiment(weights, n: int, trials: int, seed: int) -> CoincidenceReport:
    """Estimate the probability that two independent n-strings fully match.

    Each trial draws an n-string for each source; a hit requires agreement
    at every position.  p_theory is K^(-n) with K from the weights.
    Identical arguments produce a bit-identical report.  Draws are made in
    blocks of about _CHUNK_SYMBOLS symbol pairs, so memory stays bounded;
    trials * n is capped at MAX_SYMBOL_PAIRS to bound the run time.
    """
    if n < 1:
        raise DomainError(f"stream length must be >= 1, got {n}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    pairs = int(trials) * int(n)
    if pairs > MAX_SYMBOL_PAIRS:
        raise DomainError(f"trials * n = {pairs} exceeds the budget of "
                          f"{MAX_SYMBOL_PAIRS} symbol pairs")
    w = validate_weights(weights)
    _require_seed(seed)
    K = _schmidt_number(w)
    hits = _count_hits(_cumulative(w), K, int(n), int(trials), seed)
    p_hat = hits / trials
    return CoincidenceReport(
        n_symbols=int(n),
        trials=int(trials),
        hits=hits,
        p_hat=p_hat,
        p_theory=coincidence_probability(K, n),
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        seed=int(seed),
    )

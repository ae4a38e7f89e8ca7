"""Collective-vs-sequential estimation fidelities, exactly and by simulation.

For N identical spin-1/2 copies (total spin s = N/2) the optimal collective
fidelity is F_col(N) = (N+1)/(N+2) and the best sequential protocol loses
gap(N) = 1/(N(N+1)) for N >= 2.  At N = 1 the tabulated gap is 0: a single
copy admits no collective advantage, and the closed-form gap expression
(which would give 1/2) does not apply there.  The table keeps everything as
exact rationals; the conflict at N = 1 is carried in the report instead of
being silently resolved.

The Monte-Carlo routine is a single-copy oracle: it simulates the simplest
measure-and-guess protocol (projective measurement along a fixed axis, guess
the post-measurement basis state) for a uniformly random qubit and converges
to 2/3 = F_col(1).  For a Haar-random state the overlap u = |<0|psi>|^2 is
uniform on [0, 1], so the average score is
E[u^2 + (1-u)^2] = integral of (2u^2 - 2u + 1) du = 2/3; guessing a fixed
state instead scores E[u] = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .roundtrip import CHUNK_SIZE, _Accumulator, _chunks

__all__ = [
    "GapReport",
    "FidelityEstimate",
    "gap_report",
    "gap_table",
    "mc_single_copy_fidelity",
    "CHUNK_SIZE",
]

N1_CONFLICT_NOTE = (
    "tabulated gap at N=1 is 0 (sequential and collective coincide for a "
    "single copy); the closed form 1/(N(N+1)) would give 1/2 and applies "
    "only for N >= 2"
)


@dataclass(frozen=True)
class GapReport:
    n_copies: int
    spin: Fraction
    f_col: Fraction
    f_seq: Fraction
    gap: Fraction
    special_cased: bool
    note: str | None = None


def gap_report(n: int) -> GapReport:
    """Exact fidelities and gap for N copies."""
    n = int(n)
    if n < 1:
        raise ValueError("copy count must be >= 1")
    f_col = Fraction(n + 1, n + 2)
    if n == 1:
        gap = Fraction(0)
        return GapReport(
            n_copies=1,
            spin=Fraction(1, 2),
            f_col=f_col,
            f_seq=f_col,
            gap=gap,
            special_cased=True,
            note=N1_CONFLICT_NOTE,
        )
    gap = Fraction(1, n * (n + 1))
    return GapReport(
        n_copies=n,
        spin=Fraction(n, 2),
        f_col=f_col,
        f_seq=f_col - gap,
        gap=gap,
        special_cased=False,
    )


def gap_table(n_max: int) -> list[GapReport]:
    if n_max < 1:
        raise ValueError("table needs n_max >= 1")
    return [gap_report(n) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class FidelityEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int
    guess: str


def mc_single_copy_fidelity(
    trials: int, seed: int, guess: str = "outcome"
) -> FidelityEstimate:
    """Simulate single-copy estimation of a Haar-random qubit.

    guess="outcome" scores the post-measurement basis state (converges to
    2/3); guess="fixed" always guesses |0> (converges to 1/2, a sanity floor).

    Trials are processed in fixed-size chunks whose generators derive from
    (seed, chunk index), so the result depends only on (trials, seed, guess)
    and not on any execution schedule.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a meaningful estimate")
    if guess not in ("outcome", "fixed"):
        raise ValueError("guess must be 'outcome' or 'fixed'")
    acc = _Accumulator()
    for rng, n in _chunks(trials, seed):
        z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        weight = np.abs(z) ** 2
        u = weight[:, 0] / weight.sum(axis=1)  # |<0|psi>|^2, uniform on [0,1]
        if guess == "outcome":
            outcome_zero = rng.random(n) < u
            score = np.where(outcome_zero, u, 1.0 - u)
        else:
            score = u
        acc.add(score)
    return FidelityEstimate(
        mean=acc.mean,
        std_error=acc.std_error,
        trials=trials,
        seed=seed,
        guess=guess,
    )

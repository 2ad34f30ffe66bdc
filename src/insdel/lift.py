"""Lift constant-weight L1 codes to insdel codes via the sorted-word map."""

from __future__ import annotations

import math
import os

from .errors import DomainError, ScaleCapExceeded
from .words import CWL1, INSDEL, Code, code_min_distance, psi

DEFAULT_PAIR_CAP = 10**7
SYMBOL_CAP = 10**7  # symbols of the lifted code, size times n
PAIR_CAP_ENV = "INSDEL_MAX_PAIRS"
CELLS_PER_PAIR = 9  # LCS cells of one pair of length-3 words


def pair_cap() -> int:
    """The verification pair cap: INSDEL_MAX_PAIRS if set, else the default."""
    raw = os.environ.get(PAIR_CAP_ENV)
    if not raw:
        return DEFAULT_PAIR_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"{PAIR_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise DomainError(f"{PAIR_CAP_ENV} must be >= 0, got {cap}")
    return cap


def verification_refusal(pairs: int, n: int, cap: int) -> str | None:
    """Why a pairwise LCS verification of ``pairs`` pairs of length-n words
    does not fit, or None when it does: at most ``cap`` pairs, and at most
    CELLS_PER_PAIR LCS cells for each of them, n^2 a pair. At n <= 3 the
    pair cap alone decides, so a sweep that runs no LCS passes n = 0."""
    if pairs > cap:
        return f"{pairs} verification pairs exceed the cap {cap} ({PAIR_CAP_ENV})"
    if pairs * n * n > cap * CELLS_PER_PAIR:
        return (
            f"{pairs} verification pairs of length-{n} words take {pairs * n * n} LCS cells, past the"
            f" budget {cap * CELLS_PER_PAIR} ({CELLS_PER_PAIR} for each of the {cap} pairs of {PAIR_CAP_ENV})"
        )
    return None


def lift(code: Code) -> tuple[Code, dict]:
    """Apply the sorted-word map memberwise.

    The map is injective and distance-preserving (L1 in, insdel out), so
    the lifted code inherits the source's minimum distance. The inherited
    distance is re-verified by an exhaustive pairwise sweep whenever the
    code has two members and the sweep fits ``verification_refusal``;
    otherwise the report flags it as inherited but unverified. A lifted
    code past SYMBOL_CAP symbols is refused before any word is built.
    """
    if code.kind != CWL1:
        raise DomainError("lift expects a CWL1 code")
    cap = pair_cap()
    if len(code) * code.n > SYMBOL_CAP:
        raise ScaleCapExceeded(
            f"{len(code)} lifted words of length {code.n} exceed the cap of {SYMBOL_CAP} symbols"
        )
    lifted = Code(code.q, code.n, tuple([psi(a) for a in code.members]), kind=INSDEL)
    npairs = len(lifted) * (len(lifted) - 1) // 2
    report: dict = {"size": len(lifted), "pairs": npairs}
    if len(lifted) >= 2 and verification_refusal(npairs, code.n, cap) is None:
        d, witness = code_min_distance(lifted, INSDEL)
        report["min_insdel"] = d
        report["witness"] = [list(w.symbols) for w in witness]
        report["verified"] = True
    else:
        report["min_insdel"] = None
        report["verified"] = False
        report["note"] = "inherited, unverified"
    return lifted, report


def guarantee_report(q: int, n: int, delta: int) -> dict:
    """Size guarantee of the lifted construction against the insdel
    Singleton ceiling, exact big-integer arithmetic throughout."""
    if q < 2 or delta < 2 or n < delta:
        raise DomainError(f"need q >= 2 and n >= delta >= 2, got q={q} n={n} delta={delta}")
    total = math.comb(n + q - 1, n)
    denom = (2 * q + 2) ** (delta - 2) * (2 * q + 1)
    guarantee = -(-total // denom)
    ceiling = q ** (n - delta + 1)
    return {
        "q": q,
        "n": n,
        "delta": delta,
        "guaranteed_size": guarantee,
        "singleton_ceiling": ceiling,
        "log_q_guarantee": math.log(guarantee, q) if guarantee > 0 else None,
        "singleton_exponent": n - delta + 1,
    }

"""Shared exception types, the argument rules and the cap rule.

Four rules on the degree n, on d (as in d-good, d pieces) and on the tail
index k are stated here once, each with its one message, and every library
function that takes n, d or k calls the check for its rule: check_degree
(n >= 1), check_d (d >= 2), check_d_within (2 <= d <= n) and check_k_within
(0 <= k <= n).  A bad argument raises ValueError.

Every operation whose cost grows without limit in its argument carries a
hard cap on it: the exhaustive ones (the Cayley BFS and its layers,
closures, brute-force counting) and the others (a full Mahonian row, a ball
count, a bounds table, the crossover, a single step).  Three closed forms
have no cap yet: mahonian.mahonian_knuth (about 3.6 s at n = k = 20,000),
bounds.complement_lower_bound (n! takes about 0.14 s at n = 10^5) and
bounds.classic_bound ((d - 1)^(2n) takes about 2.0 s at n = 10^6, d = 100).
check_cap states the cap rule once and raises ScaleError, before any work;
check_scale applies the degree rule first, then the cap on n.
"""
from __future__ import annotations


class ScaleError(ValueError):
    """An operation was requested beyond its enforced cap (check_cap)."""


class FalsificationError(RuntimeError):
    """A constructive verification found a counterexample to a claimed property."""


class InvalidInversionSetError(ValueError):
    """A pair set violates one of the two inversion-set axioms.

    Carries the failing axiom name ("transitivity" or "interpolation") and a
    witness triple of positions (i, j, k).
    """

    def __init__(self, axiom: str, witness: tuple[int, int, int]):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at positions {witness}")


def check_degree(n: int) -> None:
    """The degree rule, n >= 1."""
    if n < 1:
        raise ValueError("degree must be at least 1")


def check_d(d: int) -> None:
    """The rule d >= 2."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")


def check_d_within(d: int, n: int) -> None:
    """The rule 2 <= d <= n, for operations that need d positions."""
    if not (2 <= d <= n):
        raise ValueError(f"need 2 <= d <= n, got d = {d}, n = {n}")


def check_k_within(k: int, n: int) -> None:
    """The degree rule, then the rule 0 <= k <= n, for a tail index k."""
    check_degree(n)
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k = {k}, n = {n}")


def check_cap(value: int, cap: int, operation: str, name: str = "n") -> None:
    """The cap rule: ScaleError if the argument called name exceeds the operation's cap."""
    if value > cap:
        raise ScaleError(f"{operation} is capped at {name} <= {cap}, got {name} = {value}")


def check_scale(n: int, cap: int, operation: str) -> None:
    """The degree rule, then the cap rule on n."""
    check_degree(n)
    check_cap(n, cap, operation)

"""Shared exception types, the argument rules and the scale check.

Three rules on the degree n and on d (as in d-good, d pieces) are stated
here once, each with its one message, and every library function that
takes n or d calls the check for its rule: check_degree (n >= 1), check_d
(d >= 2) and check_d_within (2 <= d <= n).  A bad argument raises
ValueError.

Exhaustive operations (Cayley BFS, closures, brute-force counting) carry a
hard per-operation cap on n; check_scale applies the degree rule first, then
the cap.
"""
from __future__ import annotations


class ScaleError(ValueError):
    """An exhaustive operation was requested beyond its enforced cap."""


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


def check_scale(n: int, cap: int, operation: str) -> None:
    """The degree rule, then ScaleError if n exceeds the operation's cap."""
    check_degree(n)
    if n > cap:
        raise ScaleError(f"{operation} is capped at n <= {cap}, got n = {n}")

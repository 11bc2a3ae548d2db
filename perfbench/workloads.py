"""The benchmark's workloads: the `codim` command lines of one pass, and a check per output.

Each workload is a list of ops.  An op is one `codim` argument vector, run
in-process through `codimgeo.cli.main` with `--format json`, plus a check of
its exit code and output.  The checks use only this file's own arithmetic
(inversion counts, truncated Mahonian rows, exact factorials and powers) and
values recorded from the exhaustive sweeps, never the library under test.

Only `step_stream` depends on the seed; the other two are fixed sweeps.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# (exit code or None, captured stdout) -> reason for failure, or None if correct
Check = Callable[[int | None, str], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check
    timeout_s: float


SWEEP_TIMEOUT_S = 60.0
STEP_TIMEOUT_S = 10.0

# `checked` reported by each verify suite at its hard cap, recorded from an
# exhaustive run; a later change that checks a different number of cases is
# checking something else.
VERIFY_CAPS = {
    "metric": (6, 873),
    "roundtrip": (7, 5913),
    "badsize": (8, 46233),
    "dilworth": (8, 28),
    "lgf": (7, 5913),
    "chunks": (7, 5913),
    "growth": (6, 583),
    "classic": (7, 34406),
    "main": (8, 8290),
}

# (n, d, mode) -> recorded closure summary and source count
CLOSURES = {
    (8, 3, "main"): (
        {"visited": 200, "max_depth": 2, "terminal_size": 165, "complement_size": 40285},
        35,
    ),
    (7, 3, "classic"): ({"visited": 5040, "max_depth": 45, "terminal_size": 429}, 4611),
}

STREAM_REQUESTS = 400
STREAM_DEGREES = (12, 32)
STREAM_MIX = (("greedy", 0.3), ("classic", 0.2), ("main", 0.5))
STREAM_CLASSIC_D = 4
STREAM_MAIN_DS = (3, 4, 5)
# The request order is one fixed interleaving of the kinds and sizes, so that
# peak RSS, which depends on the order of allocations, does not vary by seed.
STREAM_ORDER_SEED = 0


# ---- the benchmark's own arithmetic ------------------------------------------


def inversions(word) -> int:
    return sum(1 for i, a in enumerate(word) for b in word[i + 1:] if b < a)


def longest_decreasing(word) -> int:
    best = [1] * len(word)
    for j, b in enumerate(word):
        for i in range(j):
            if word[i] > b and best[i] + 1 > best[j]:
                best[j] = best[i] + 1
    return max(best, default=0)


def mahonian_heads(n_max: int, k_max: int) -> dict[int, list[int]]:
    """I_n(0..k_max) for n = 1..n_max by I_n(k) = sum_{j<n} I_{n-1}(k - j)."""
    row = [1] + [0] * k_max
    heads = {1: row}
    for n in range(2, n_max + 1):
        nxt, window = [], 0
        for k in range(k_max + 1):
            window += row[k]
            if k >= n:
                window -= row[k - n]
            nxt.append(window)
        heads[n] = row = nxt
    return heads


def _parse(code, out: str):
    """The JSON payload of a finished op, or a failure reason as a str."""
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON ({exc})"


def _word(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


# ---- checks ------------------------------------------------------------------


def _check_verify(suite: str, checked: int) -> Check:
    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        (result,) = payload["suites"]
        if result["name"] != suite or not result["passed"]:
            return f"suite {result['name']} did not pass: {result['failures'][:3]}"
        if result["checked"] == 0:
            return f"suite {suite} passed having checked nothing"
        if result["checked"] != checked:
            return f"suite {suite} checked {result['checked']}, recorded {checked}"
        return None

    return check


def _check_closure(n: int, d: int, mode: str) -> Check:
    summary, sources = CLOSURES[(n, d, mode)]

    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        if payload["summary"] != summary:
            return f"summary {payload['summary']}, recorded {summary}"
        if len(payload["sources"]) != sources:
            return f"{len(payload['sources'])} sources, recorded {sources}"
        if mode == "main":
            radius = math.ceil((n - d) / 2)
            inside = sum(mahonian_heads(n, radius)[n][:radius])
            if inside != sources or summary["complement_size"] != math.factorial(n) - inside:
                return "ball count disagrees with the inversion-count recurrence"
        return None

    return check


def _check_mahonian(n: int) -> Check:
    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        row = [int(c) for c in payload["coefficients"]]
        if payload.get("check") != "ok":
            return "row was not cross-checked"
        if len(row) != n * (n - 1) // 2 + 1:
            return f"row has {len(row)} entries"
        if sum(row) != math.factorial(n):
            return f"row of degree {n} does not sum to {n}!"
        if row != row[::-1]:
            return "row is not symmetric"
        head = min(n, 30)
        if row[: head + 1] != mahonian_heads(n, head)[n]:
            return "row head disagrees with the inversion-count recurrence"
        return None

    return check


def _check_bounds(d: int, n_max: int) -> Check:
    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        rows = payload["rows"]
        if [r["n"] for r in rows] != list(range(d, n_max + 1)):
            return "rows do not cover d..n_max"
        heads = mahonian_heads(n_max, math.ceil((n_max - d) / 2))
        for r in rows:
            n = r["n"]
            classic, theorem = int(r["classic"]), int(r["theorem"])
            factorial = math.factorial(n)
            radius = math.ceil((n - d) / 2)
            ball = sum(heads[n][:radius])
            if classic != (d - 1) ** (2 * n) or int(r["factorial"]) != factorial:
                return f"n={n}: classic bound or factorial is wrong"
            if theorem + ball != factorial:
                return f"n={n}: theorem bound + ball count != n!"
            cutoff = (n - d) // 2
            if int(r["phi"]) != factorial - ((1 << (2 * n - cutoff)) - (1 << (n - 1))):
                return f"n={n}: closed-form lower bound is wrong"
            winner = "theorem" if theorem < classic else "classic" if classic < theorem else "tie"
            if r["winner"] != winner:
                return f"n={n}: winner {r['winner']}, expected {winner}"
        return None

    return check


def _check_crossover(d_max: int) -> Check:
    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        rows = payload["rows"]
        if [r["d"] for r in rows] != list(range(2, d_max + 1)):
            return "rows do not cover 2..d_max"
        for r in rows:
            d, n = r["d"], r["n"]
            base = (d - 1) ** 2
            if not base**n < math.factorial(n):
                return f"d={d}: n={n} is not a crossover"
            if n > 1 and base ** (n - 1) < math.factorial(n - 1):
                return f"d={d}: n={n} is not the least crossover"
        return None

    return check


def _check_greedy(word: tuple[int, ...]) -> Check:
    n = len(word)

    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        if _word(payload["perm"]) != word:
            return "greedy form is of another word"
        chunks, gaps = payload["chunks"], payload["gaps"]
        spans = [gaps[0]]
        for chunk, gap in zip(chunks, gaps[1:]):
            spans += [chunk, gap]
        covered = [p for s in spans if s is not None for p in range(s[0], s[1] + 1)]
        if covered != list(range(1, n + 1)):
            return "chunks and gaps do not tile 1..n"
        chunk_of = {p: t for t, (a, b) in enumerate(chunks) for p in range(a, b + 1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if word[j - 1] < word[i - 1] and (
                    i not in chunk_of or chunk_of.get(j) != chunk_of[i]
                ):
                    return f"inversion ({i},{j}) is not inside one chunk"
        stats = payload["stats"]
        if stats["chunk_count"] != len(chunks) or stats["word_length"] != inversions(word):
            return "chunk count or word length is wrong"
        return None

    return check


def _check_step(word: tuple[int, ...], d: int, mode: str) -> Check:
    n, base = len(word), inversions(word)

    def check(code, out):
        payload = _parse(code, out)
        if isinstance(payload, str):
            return payload
        children = [(_word(c["perm"]), c["word_length"]) for c in payload["children"]]
        if len(children) != math.factorial(d) - 1 or len(set(children)) != len(children):
            return f"{len(children)} distinct children, expected {math.factorial(d) - 1}"
        for child, length in children:
            if sorted(child) != list(range(1, n + 1)) or length != inversions(child):
                return f"child {child} is not a permutation of its stated length"
            if mode == "main" and length <= base:
                return f"main child {child} is not longer than its parent"
            if mode == "classic" and not child < word:
                return f"classic child {child} is not dictionary-smaller"
        return None

    return check


# ---- workloads -----------------------------------------------------------------


def verify_caps(seed: int) -> list[Op]:
    """Every verify suite at its hard cap, then one closure per mode."""
    ops = [
        Op(
            ("verify", "--suites", suite, "--n-max", str(cap), "--format", "json"),
            _check_verify(suite, checked),
            SWEEP_TIMEOUT_S,
        )
        for suite, (cap, checked) in VERIFY_CAPS.items()
    ]
    for n, d, mode in CLOSURES:
        argv = ("reduce", "--n", str(n), "--d", str(d), "--mode", mode, "--closure")
        ops.append(Op(argv + ("--format", "json"), _check_closure(n, d, mode), SWEEP_TIMEOUT_S))
    return ops


def bounds_scan(seed: int) -> list[Op]:
    """One full Mahonian row, a small brute-forced row, many row heads, crossovers."""
    return [
        Op(("mahonian", "--n", "200", "--check", "--format", "json"), _check_mahonian(200), SWEEP_TIMEOUT_S),
        Op(("mahonian", "--n", "8", "--check", "--format", "json"), _check_mahonian(8), SWEEP_TIMEOUT_S),
        Op(("bounds", "--d", "3", "--n-max", "80", "--format", "json"), _check_bounds(3, 80), SWEEP_TIMEOUT_S),
        Op(("bounds", "--d", "5", "--n-max", "90", "--format", "json"), _check_bounds(5, 90), SWEEP_TIMEOUT_S),
        Op(("crossover", "--d-max", "60", "--format", "json"), _check_crossover(60), SWEEP_TIMEOUT_S),
    ]


def _ball_word(rng: random.Random, n: int, length: int) -> list[int]:
    """A word of exactly `length` inversions: random ascent swaps from the identity."""
    word = list(range(1, n + 1))
    for _ in range(length):
        i = rng.choice([i for i in range(n - 1) if word[i] < word[i + 1]])
        word[i], word[i + 1] = word[i + 1], word[i]
    return word


def _requests() -> list[tuple[str, int, int, int]]:
    """(kind, n, d, inversions) of every request, before the seed shuffles them.

    Each kind cycles through its (n, d) grid, and the k-th of m main requests
    at one grid point asks for a word of k/m of the ball radius, so every
    grid point includes the identity.  A main step scans C(n - 1, d - 1) cut
    sets and keeps those that no chunk forbids, so its time grows with n and
    d and its memory shrinks as chunks appear.  Random sizes swung a seed's
    total work by tens of percent; with sizes and their order fixed, the
    seed chooses only the words.  Greedy and classic words are uniform
    (inversions -1).
    """
    low, high = STREAM_DEGREES
    degrees = range(low, high + 1)
    grids = {
        "greedy": [(n, 0) for n in degrees],  # a greedy request takes no d
        "classic": [(n, STREAM_CLASSIC_D) for n in degrees],
        "main": [(n, d) for d in STREAM_MAIN_DS for n in degrees],
    }
    requests = []
    for kind, share in STREAM_MIX:
        grid, count = grids[kind], round(share * STREAM_REQUESTS)
        for i in range(count):
            point = i % len(grid)
            n, d = grid[point]
            length = -1
            if kind == "main":
                visits = len(range(point, count, len(grid)))
                length = i // len(grid) * math.ceil((n - d) / 2) // visits
            requests.append((kind, n, d, length))
    return requests


def step_stream(seed: int) -> list[Op]:
    """Seeded single-word requests at degrees beyond every exhaustive cap."""
    requests = _requests()
    random.Random(STREAM_ORDER_SEED).shuffle(requests)
    rng = random.Random(seed)
    ops = []
    for kind, n, d, length in requests:
        if kind == "main":
            word = _ball_word(rng, n, length)
        else:
            word = rng.sample(range(1, n + 1), n)
            while kind == "classic" and longest_decreasing(word) < d:
                word = rng.sample(range(1, n + 1), n)
        text = ",".join(map(str, word))
        if kind == "greedy":
            ops.append(Op(("greedy", "--perm", text, "--format", "json"), _check_greedy(tuple(word)), STEP_TIMEOUT_S))
        else:
            argv = ("reduce", "--perm", text, "--d", str(d), "--mode", kind, "--format", "json")
            ops.append(Op(argv, _check_step(tuple(word), d, kind), STEP_TIMEOUT_S))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "verify_caps": verify_caps,
    "bounds_scan": bounds_scan,
    "step_stream": step_stream,
}

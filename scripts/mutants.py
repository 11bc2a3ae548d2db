"""Rerun the pinned mutants: each recorded edit to the package must meet its recorded fate.

Each entry of MUTANTS is (file, old, new, status, first_failing_test): a
file under src/ or tests/, a text that must occur in it exactly once, its
replacement, and "killed" (a tier-1 test fails) or "survives" (a known gap:
every test passes, and the comment above it says why), with the test that
fails first ("" for a survivor).  For each entry the script copies src/,
tests/, scripts/, README.md and pyproject.toml (what tier-1 reads) to a
temporary directory and applies the edit there.  It runs the recorded test,
and only if that passes, tier-1 with -x, less the check of this list.
One pytest process runs at a time, each under TIMEOUT seconds; a run that
times out counts as killed, since a test caught the mutant by hanging.
Exits 1 when a text does not occur exactly once, a recorded test does not
exist, or a mutant's outcome differs from its status.  Takes no options:

    python scripts/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300
PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider")
# the tier-1 check of this list, which a mutated copy fails by construction
SELF_CHECK = "--deselect=tests/test_scripts.py::test_mutant_list_matches_the_tree"

MUTANTS = (
    # the cap compared with >=: every capped operation refuses its own cap
    (
        "src/codimgeo/errors.py",
        "    if value > cap:\n",
        "    if value >= cap:\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # the cap raising a plain ValueError, not ScaleError
    (
        "src/codimgeo/errors.py",
        '        raise ScaleError(f"{operation} is capped',
        '        raise ValueError(f"{operation} is capped',
        "killed",
        "tests/test_bounds.py::test_crossover_cap",
    ),
    # check_scale without the degree rule: n = 0 passes every cap
    (
        "src/codimgeo/errors.py",
        "    check_degree(n)\n    check_cap(n, cap, operation)\n",
        "    check_cap(n, cap, operation)\n",
        "killed",
        "tests/test_errors.py::test_precondition_table[mahonian_row n=0]",
    ),
    # a hand cap guard back in mahonian_row, with its own ValueError
    (
        "src/codimgeo/mahonian.py",
        '    check_scale(n, ROW_MAX_N, "a full row")\n',
        "    check_degree(n)\n"
        "    if n > ROW_MAX_N:\n"
        '        raise ValueError(f"a full row is capped at n <= {ROW_MAX_N}, got n = {n}")\n',
        "killed",
        "tests/test_errors.py::test_cap_table[mahonian_row]",
    ),
    # compare_bounds' cap checked at its last degree, after every smaller row is built
    (
        "src/codimgeo/bounds.py",
        '    check_cap(n_max, BOUNDS_MAX_N, "a bounds table", "n_max")\n'
        "    radius = ball_radius(n_max, d)\n"
        "    heads = itertools.islice(_heads(radius), d - 1, None)\n"
        "    factorial = math.factorial(d - 1)\n"
        "    rows = []\n"
        "    for n, head in zip(range(d, n_max + 1), heads):\n",
        "    radius = ball_radius(n_max, d)\n"
        "    heads = itertools.islice(_heads(radius), d - 1, None)\n"
        "    factorial = math.factorial(d - 1)\n"
        "    rows = []\n"
        "    for n, head in zip(range(d, n_max + 1), heads):\n"
        "        if n == n_max:\n"
        '            check_cap(n_max, BOUNDS_MAX_N, "a bounds table", "n_max")\n',
        "killed",
        "tests/test_cli.py::test_bounds_degree_limit",
    ),
    # classic_bound without the degree rule
    (
        "src/codimgeo/bounds.py",
        "    check_degree(n)\n    return (d - 1) ** (2 * n)\n",
        "    return (d - 1) ** (2 * n)\n",
        "killed",
        "tests/test_errors.py::test_precondition_table[classic_bound n=0]",
    ),
    # the ball radius floor((n - d)/2), not ceil: the ball loses its outer layer when n - d is odd
    (
        "src/codimgeo/bounds.py",
        "    return (n - d + 1) // 2\n",
        "    return (n - d) // 2\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_08_ball_escape_closure_and_strict_bound",
    ),
    # run_suite skipping degree 1
    (
        "src/codimgeo/verify.py",
        "range(1, n_max + 1)",
        "range(2, n_max + 1)",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # run_suite starting at the suite's first degree: main's runner no longer runs at n = 2
    (
        "src/codimgeo/verify.py",
        "range(1, n_max + 1)",
        "range(SUITES[name].min_n, n_max + 1)",
        "killed",
        "tests/test_cli.py::test_main_reports_its_empty_ball_at_degree_two",
    ),
    # the (n, d) runner starting at d = 3: dilworth, classic and main skip d = 2
    (
        "src/codimgeo/verify.py",
        "for d in range(2, n + 1)",
        "for d in range(3, n + 1)",
        "killed",
        "tests/test_acceptance.py::test_criterion_05_good_counts_under_ceiling",
    ),
    # classic counting its terminal words but not its steps
    (
        "src/codimgeo/verify.py",
        '        failures.append(f"n={n} d={d}: terminal support exceeds good count")\n'
        "    return len(trace.terminal_support) + len(trace.steps), failures, info\n",
        '        failures.append(f"n={n} d={d}: terminal support exceeds good count")\n'
        "    return len(trace.terminal_support), failures, info\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_07_dictionary_descent_closure",
    ),
    # decreasing_table without its cap: n = 0 passes and n = 10 sweeps 10! words
    (
        "src/codimgeo/perm.py",
        '    check_scale(n, COUNT_GOOD_MAX_N, "decreasing_table")\n',
        "",
        "killed",
        "tests/test_errors.py::test_precondition_table[decreasing_table n=0]",
    ),
    # verify's default degree read as the suite's cap: classic runs at 7, main at 8
    (
        "src/codimgeo/verify.py",
        "        n_max = suite.default_n\n",
        "        n_max = suite.cap\n",
        "killed",
        "tests/test_cli.py::test_checked_counts_below_each_cap[classic]",
    ),
    # the length table's recurrence shifting block c by c + 1
    (
        "src/codimgeo/perm.py",
        "rest.translate(bytes(range(c, 256)) + bytes(c))",
        "rest.translate(bytes(range(c + 1, 256)) + bytes(c + 1))",
        "killed",
        "tests/test_perm.py::test_length_table_is_the_per_word_sweep",
    ),
    # the length table's blocks in reverse order
    (
        "src/codimgeo/perm.py",
        "for c in range(n))",
        "for c in reversed(range(n)))",
        "killed",
        "tests/test_perm.py::test_length_table_is_the_per_word_sweep",
    ),
    # badsize's floor weakened to C(L - 1, 2): the increasing row's shortened
    # runs now break it at L = 0, and the floor row fails too
    (
        "src/codimgeo/verify.py",
        "if length < longest * (longest - 1) // 2:",
        "if length < (longest - 1) * (longest - 2) // 2:",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[badsize-increasing]",
    ),
    # badsize's increasing bound weakened by one
    (
        "src/codimgeo/verify.py",
        "if increasing < n - length:",
        "if increasing < n - length - 1:",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[badsize-increasing]",
    ),
    # a step's length kernel without the complement |B_a| |B_b|
    (
        "src/codimgeo/greedy.py",
        "        weight[a][x] = size - 2 * cross\n",
        "        weight[a][x] = -2 * cross\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_08_ball_escape_closure_and_strict_bound",
    ),
    # the kernel's pair orientation swapped: the weight counted for pairs kept in order
    (
        "src/codimgeo/greedy.py",
        "        weight[a][x] = size - 2 * cross\n",
        "        weight[x][a] = size - 2 * cross\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_08_ball_escape_closure_and_strict_bound",
    ),
    # every child's length shifted by one
    (
        "src/codimgeo/greedy.py",
        "lengths = [[length]]",
        "lengths = [[length + 1]]",
        "killed",
        "tests/test_cli.py::test_main_step_measures_each_child_once",
    ),
    # a step's child text without the comma after a nonempty head
    (
        "src/codimgeo/greedy.py",
        'lead = one_line(head) + "," if head else ""',
        'lead = one_line(head) if head else ""',
        "killed",
        "tests/test_cli.py::test_reduce_step_children_match_the_library",
    ),
    # the child text's orders with the identity kept
    (
        "src/codimgeo/greedy.py",
        "_orders(list(map(one_line, blocks)))",
        "itertools.permutations(list(map(one_line, blocks)))",
        "killed",
        "tests/test_cli.py::test_main_step_measures_each_child_once",
    ),
    # the blocks' text taken in reverse
    (
        "src/codimgeo/greedy.py",
        "list(map(one_line, blocks))",
        "list(map(one_line, reversed(blocks)))",
        "killed",
        "tests/test_cli.py::test_main_step_measures_each_child_once",
    ),
    # a JSON table's int column admits bool, which it then writes as 1 and 0
    (
        "src/codimgeo/cli.py",
        "elif kinds == {int}:",
        "elif kinds <= {int, bool}:",
        "killed",
        "tests/test_cli.py::test_table_writer_refuses_a_column_of_other_cells[bool]",
    ),
    # a JSON table's row template without the comma between keys
    (
        "src/codimgeo/cli.py",
        '"{" + ",".join(fields)',
        '"{" + "".join(fields)',
        "killed",
        "tests/test_cli.py::test_table_writer_matches_json_dumps_of_its_dicts",
    ),
    # dilworth's good < theorem_bound weakened to good <= theorem_bound
    (
        "src/codimgeo/verify.py",
        "if count >= bound:",
        "if count > bound:",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[dilworth-theorem]",
    ),
    # the closed form's pentagonal sign flipped: every term negated
    (
        "src/codimgeo/mahonian.py",
        "            total += -term if j % 2 else term\n",
        "            total += term if j % 2 else -term\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_02_closed_form_matches_product",
    ),
    # the closed form's binomial top one too high: C(n + k - g, n - 1)
    (
        "src/codimgeo/mahonian.py",
        "math.comb(n - 1 + k - g, n - 1)",
        "math.comb(n + k - g, n - 1)",
        "killed",
        "tests/test_acceptance.py::test_criterion_02_closed_form_matches_product",
    ),
    # the closed form's j range without its last j, whose g = j(3j - 1)/2 is <= k
    (
        "src/codimgeo/mahonian.py",
        "for j in range(-m, m + 1):",
        "for j in range(-m, m):",
        "killed",
        "tests/test_acceptance.py::test_criterion_02_closed_form_matches_product",
    ),
    # a hand degree guard back in the CLI, restating mahonian_row's rule; the
    # stderr pin fails first, and HAND_GUARD in test_errors also kills it
    (
        "src/codimgeo/cli.py",
        "def _cmd_mahonian(args) -> Result:\n",
        "def _cmd_mahonian(args) -> Result:\n"
        "    if args.n < 1:\n"
        '        raise ValueError("--n must be at least 1")\n',
        "killed",
        "tests/test_cli.py::test_guard_paths_pin_stderr[mahonian --n 0-degree must be at least 1]",
    ),
    # the s_4 certificate with one coefficient raised: it no longer vanishes on every consequence
    (
        "tests/test_identity.py",
        "    (5, 4, 3, 2, 1): 3,\n",
        "    (5, 4, 3, 2, 1): 4,\n",
        "killed",
        "tests/test_identity.py::test_good_words_outside_the_ball_need_not_span_modulo_one_identity",
    ),
    # the Cayley search without its test against earlier layers: a word's
    # neighbours one step back come again, and the layers never empty
    (
        "src/codimgeo/perm.py",
        "        } - seen)\n",
        "        })\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # the BFS oracle's distances counted from 1
    (
        "src/codimgeo/perm.py",
        "enumerate(layers)",
        "enumerate(layers, 1)",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # the tail rule as 0 <= k < n: the closed form refuses k = n
    (
        "src/codimgeo/errors.py",
        "    if not (0 <= k <= n):\n",
        "    if not (0 <= k < n):\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_02_closed_form_matches_product",
    ),
    # the rearrangements cap on the cuts, not the pieces: 9 pieces pass
    (
        "src/codimgeo/greedy.py",
        "check_cap(len(cuts) + 1,",
        "check_cap(len(cuts),",
        "killed",
        "tests/test_errors.py::test_cap_table[rearrangements]",
    ),
    # the main closure recording the theorem bound of the next degree
    (
        "src/codimgeo/reduction.py",
        "main_step, theorem_bound(n, d))",
        "main_step, theorem_bound(n, d + 1))",
        "killed",
        "tests/test_acceptance.py::test_criterion_08_ball_escape_closure_and_strict_bound",
    ),
    # the crossover bisection stepping past mid on a false verdict
    (
        "src/codimgeo/bounds.py",
        "            lo = mid\n",
        "            lo = mid + 1\n",
        "killed",
        "tests/test_bounds.py::test_crossover_equals_incremental_oracle",
    ),
    # the crossover's exact fallback dropped: an undecided verdict counts as false
    (
        "src/codimgeo/bounds.py",
        "        if below is None:\n            below = base**mid < math.factorial(mid)\n",
        "",
        "killed",
        "tests/test_bounds.py::test_crossover_falls_back_to_exact_integers",
    ),
    # a ball count without its cap: the degree rule kept, the cap raised to n itself
    (
        "src/codimgeo/mahonian.py",
        '    check_scale(n, ROW_MAX_N, "a ball count")\n',
        '    check_scale(n, n, "a ball count")\n',
        "killed",
        "tests/test_errors.py::test_cap_table[ball_count]",
    ),
    # the Cayley search without its cap: the degree rule kept, the cap raised to n itself
    (
        "src/codimgeo/perm.py",
        '    check_scale(n, COUNT_GOOD_MAX_N, "ball_layers")\n',
        '    check_scale(n, n, "ball_layers")\n',
        "killed",
        "tests/test_errors.py::test_cap_table[ball_layers]",
    ),
    # the pentagonal numbers as j(3j + 1)/2: j -> -j maps them onto j(3j - 1)/2
    # and keeps (-1)^j, and the j range is symmetric, so the terms are the same;
    # an equivalent mutant, which no test can kill
    (
        "src/codimgeo/mahonian.py",
        "g = j * (3 * j - 1) // 2",
        "g = j * (3 * j + 1) // 2",
        "survives",
        "",
    ),
    # main counting one check for a closure that raised: the failure-branch
    # row pins the checked count that the suite's table row prints
    (
        "src/codimgeo/verify.py",
        'return 0, [f"n={n} d={d}: closure raised {exc}"], []',
        'return 1, [f"n={n} d={d}: closure raised {exc}"], []',
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[main-raised]",
    ),
    # the cut search admits one atom too many: it enters branches that yield
    # nothing, which changes no cut tuple, only the work; the test that counts
    # the search's frames against the yielded prefixes sees them
    (
        "src/codimgeo/greedy.py",
        "return r <= atoms[s] and",
        "return r <= atoms[s] + 1 and",
        "killed",
        "tests/test_greedy.py::test_every_branch_of_the_cut_search_yields",
    ),
    # the classic closure's position maps memoised on the first witness
    # position only: a later witness with the same start reuses wrong maps
    (
        "src/codimgeo/reduction.py",
        "        if witness not in getters:\n"
        "            getters[witness] = [itemgetter(*idx) for idx in _reorder(*_cut(positions, witness))]\n"
        "        return [child(p) for child in getters[witness]]\n",
        "        if witness[0] not in getters:\n"
        "            getters[witness[0]] = [itemgetter(*idx) for idx in _reorder(*_cut(positions, witness))]\n"
        "        return [child(p) for child in getters[witness[0]]]\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_07_dictionary_descent_closure",
    ),
    # the classic closure's position maps cut one position late
    (
        "src/codimgeo/reduction.py",
        "_reorder(*_cut(positions, witness))",
        "_reorder(*_cut(positions, tuple(i + 1 for i in witness)))",
        "killed",
        "tests/test_acceptance.py::test_criterion_07_dictionary_descent_closure",
    ),
    # the classic suite's terminal check missing a run of exactly d: the
    # failure-branch test fakes a longest run of exactly d
    (
        "src/codimgeo/verify.py",
        "        if longest_decreasing(p) >= d\n",
        "        if longest_decreasing(p) > d\n",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[classic-bad]",
    ),
    # the one sink not flushed: a full stdout then fails at shutdown, past the handler
    (
        "src/codimgeo/cli.py",
        "            sink.flush()\n",
        "",
        "killed",
        "tests/test_cli.py::test_a_failed_write_is_a_usage_error[stdout-5]",
    ),
    # the stdout branch of the one handler taken for --output, and not for stdout
    (
        "src/codimgeo/cli.py",
        "        if not args.output:\n",
        "        if args.output:\n",
        "killed",
        "tests/test_cli.py::test_unwritable_output_is_a_usage_error",
    ),
    # the witness search's tails exit limited to d <= n: past the degree it
    # returns a short tuple, where that exit alone must return None
    (
        "src/codimgeo/perm.py",
        "    if len(tails) < d:",
        "    if len(tails) < d <= n:",
        "killed",
        "tests/test_errors.py::test_d_past_n_is_accepted_where_no_rule_needs_d_within_n",
    ),
    # the transitivity mask swapped for the interpolation one
    (
        "src/codimgeo/perm.py",
        '"transitivity", rows[j] & ~row',
        '"transitivity", row & ~rows[j]',
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # the axiom mask shifted one short, so the witness k reads one too high
    (
        "src/codimgeo/perm.py",
        "bad >>= j + 1",
        "bad >>= j",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[roundtrip-axioms]",
    ),
    # the pairs ending at j counted at their start
    (
        "src/codimgeo/perm.py",
        "below[j] += 1",
        "below[i] += 1",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # the range check admitting a pair (i, i)
    (
        "src/codimgeo/perm.py",
        "if not (1 <= i < j <= n):",
        "if not (1 <= i <= j <= n):",
        "killed",
        "tests/test_perm.py::test_inversion_set_rejects_out_of_range_pairs",
    ),
    # the classic sources missing the words whose longest run is exactly d
    (
        "src/codimgeo/reduction.py",
        "if longest >= d]",
        "if longest > d]",
        "killed",
        "tests/test_acceptance.py::test_criterion_07_dictionary_descent_closure",
    ),
    # a terminal child counted as a chain of 1, so every depth reads one high
    (
        "src/codimgeo/reduction.py",
        "children, repeat(0)))",
        "children, repeat(1)))",
        "killed",
        "tests/test_cli.py::test_main_reports_its_empty_ball_at_degree_two",
    ),
    # the growth check passing a child of the parent's own length
    (
        "src/codimgeo/reduction.py",
        "    if min(lengths) <= base:\n",
        "    if min(lengths) < base:\n",
        "killed",
        "tests/test_cli.py::test_reduce_main_step_reports_a_child_that_does_not_grow",
    ),
    # JSON indented by 3
    (
        "src/codimgeo/cli.py",
        '    inner = newline + "  "\n    if isinstance(obj, dict):',
        '    inner = newline + "   "\n    if isinstance(obj, dict):',
        "killed",
        "tests/test_cli.py::test_streamed_output_is_the_same_bytes[mahonian --n 200 --check-json]",
    ),
    # a JSON list's items separated by ", "
    (
        "src/codimgeo/cli.py",
        '            sep = "," + inner\n            if len(out) > _JSON_BATCH:',
        '            sep = ", " + inner\n            if len(out) > _JSON_BATCH:',
        "killed",
        "tests/test_cli.py::test_streamed_output_is_the_same_bytes[mahonian --n 200 --check-json]",
    ),
    # --meta's command keeping --format
    (
        "src/codimgeo/cli.py",
        '_UNRECORDED = ("command", "handler", "format", "output", "meta")',
        '_UNRECORDED = ("command", "handler", "output", "meta")',
        "killed",
        "tests/test_cli.py::test_meta_adds_comment_headers",
    ),
    # the bisection's branches swapped
    (
        "src/codimgeo/bounds.py",
        "        if below:\n            hi = mid\n        else:\n            lo = mid\n",
        "        if below:\n            lo = mid\n        else:\n            hi = mid\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_09_crossover_reproduction",
    ),
    # a round trip that compares lengths only: a wrong rebuild of the right length passes
    (
        "src/codimgeo/verify.py",
        "    if rebuilt != p:\n",
        "    if len(rebuilt) != len(p):\n",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[roundtrip-mismatch]",
    ),
    # dilworth's hook-length check one-sided: a count above the sweep passes
    (
        "src/codimgeo/verify.py",
        "if count != swept:",
        "if count < swept:",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[dilworth-count]",
    ),
    # dilworth's ceiling loosened by one
    (
        "src/codimgeo/verify.py",
        "if count > ceiling:",
        "if count > ceiling + 1:",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[dilworth-ceiling]",
    ),
    # the chunk-letter bound loosened by one
    (
        "src/codimgeo/verify.py",
        "if chunk_letters > length + chunk_count:",
        "if chunk_letters > length + chunk_count + 1:",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[chunks-letters]",
    ),
    # growth passing a rearrangement of the parent's own length
    (
        "src/codimgeo/verify.py",
        "if any(word_length(c) <= base for c in rearrangements(p, cuts)):",
        "if any(word_length(c) < base for c in rearrangements(p, cuts)):",
        "killed",
        "tests/test_cli.py::test_failure_branches_pin_counterexamples[growth]",
    ),
    # classic_step without its refusal of a d-good word: the step fails on no witness
    (
        "src/codimgeo/reduction.py",
        "    if witness is None:\n"
        '        raise ValueError(f"permutation {one_line(p)} is {d}-good; nothing to rewrite")\n',
        "",
        "killed",
        "tests/test_cli.py::test_guard_paths_pin_stderr[reduce --perm 1,2,3 --d 2 --mode classic-permutation 1,2,3 is 2-good; nothing to rewrite]",
    ),
    # the main step admitting a word of exactly the threshold length
    (
        "src/codimgeo/reduction.py",
        "    if base >= radius:\n",
        "    if base > radius:\n",
        "killed",
        "tests/test_cli.py::test_guard_paths_pin_stderr[reduce --perm 2,1,4,3,5,6 --d 3 --mode main-word length 2 is not below the threshold "
        "2; the rewrite only applies inside the ball]",
    ),
    # --closure without its refusal of --perm: the closure gets no degree
    (
        "src/codimgeo/cli.py",
        "        if args.n is None or args.perm is not None:\n"
        '            raise ValueError("--closure takes --n, not --perm")\n',
        "",
        "killed",
        "tests/test_cli.py::test_guard_paths_pin_stderr[reduce --perm 2,1 --d 2 --mode classic --closure---closure takes --n, not --perm]",
    ),
    # a bad --perm raising TypeError, which escapes the usage-error handler
    (
        "src/codimgeo/perm.py",
        'raise ValueError(f"not comma-separated integers',
        'raise TypeError(f"not comma-separated integers',
        "killed",
        "tests/test_cli.py::test_guard_paths_pin_stderr[greedy --perm 1,2,x-not comma-separated integers: '1,2,x']",
    ),
    # a usage error exiting 1, as a falsification does; every guard row fails too
    (
        "src/codimgeo/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return EXIT_USAGE\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return EXIT_FAIL\n',
        "killed",
        "tests/test_cli.py::test_mahonian_row_limit",
    ),
    # a usage error printed without its "error: " prefix; every guard row fails too
    (
        "src/codimgeo/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n',
        '        print(f"{exc}", file=sys.stderr)\n',
        "killed",
        "tests/test_cli.py::test_mahonian_row_limit",
    ),
    # word_length's seen list left unsorted, so bisect counts wrongly
    (
        "src/codimgeo/perm.py",
        "        insort(seen, v)\n",
        "        seen.append(v)\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # inversion_set numbering positions from 0
    (
        "src/codimgeo/perm.py",
        "    positions = range(1, len(image) + 1)\n",
        "    positions = range(len(image))\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_03_word_metric_equals_bfs",
    ),
    # classic_step cutting at a (d - 1)-bad witness; the closure's oracle
    # (test_closure_equals_worklist_oracle) fails too
    (
        "src/codimgeo/reduction.py",
        "    witness = find_d_bad_witness(p, d)\n    if witness is None:",
        "    witness = find_d_bad_witness(p, d - 1)\n    if witness is None:",
        "killed",
        "tests/test_cli.py::test_guard_paths_pin_stderr[reduce --perm 1,2,3 --d 2 --mode classic-permutation 1,2,3 is 2-good; nothing to rewrite]",
    ),
    # the classic sources read off the decreasing table backwards
    (
        "src/codimgeo/reduction.py",
        "zip(all_permutations(n), decreasing_table(n)) if longest",
        "zip(all_permutations(n), reversed(decreasing_table(n))) if longest",
        "killed",
        "tests/test_acceptance.py::test_criterion_07_dictionary_descent_closure",
    ),
    # the main step's growth check demanding two more inversions
    (
        "src/codimgeo/reduction.py",
        "    if min(lengths) <= base:\n",
        "    if min(lengths) <= base + 1:\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_08_ball_escape_closure_and_strict_bound",
    ),
    # left_greedy_form keeping blocks of one letter as chunks
    (
        "src/codimgeo/greedy.py",
        "            if j > block:\n",
        "            if j >= block:\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_06_structural_suite",
    ),
    # left_greedy_form cutting where the current letter, not the prefix maximum, is j
    (
        "src/codimgeo/greedy.py",
        "        high = max(high, value)\n",
        "        high = value\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_06_structural_suite",
    ),
    # the cut search letting a gap piece run into the next chunk
    (
        "src/codimgeo/greedy.py",
        "            if end + 1 in chunk_end:\n                break\n",
        "",
        "killed",
        "tests/test_acceptance.py::test_criterion_06_structural_suite",
    ),
    # chunk_stats counting one letter too many per chunk
    (
        "src/codimgeo/greedy.py",
        "    total = sum(end - start + 1 for start, end in chunks)\n",
        "    total = sum(end - start + 2 for start, end in chunks)\n",
        "killed",
        "tests/test_acceptance.py::test_criterion_06_structural_suite",
    ),
    # compare_bounds calling a classic win a tie; the winner-by-crossover
    # test (test_theorem_wins_exactly_below_the_crossover) fails too
    (
        "src/codimgeo/bounds.py",
        "        elif classic < theorem:\n",
        "        elif classic > theorem:\n",
        "killed",
        "tests/test_bounds.py::test_compare_bounds_report",
    ),
)


def pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """One pytest run over tree, its own src/ first on the path; TimeoutExpired past TIMEOUT."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        (*PYTEST, *args), cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
    )


def list_problems() -> list[str]:
    """What is wrong with MUTANTS against the tree: a text not found once, a missing test."""
    problems = []
    for file, old, *_ in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            problems.append(f"{file}: {old!r} occurs {count} times")
    listed = pytest(ROOT, "--collect-only", *sorted({test for *_, test in MUTANTS if test}))
    if listed.returncode != 0:
        problems.append(f"collecting the recorded tests failed:\n{listed.stdout}{listed.stderr}")
    return problems


def first_failure(tree: Path, *args: str) -> str | None:
    """The first test a pytest run over tree fails, "timeout", or None if it passes."""
    try:
        done = pytest(tree, *args)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return f"exit {done.returncode}"


def run_mutant(file: str, old: str, new: str, test: str) -> str | None:
    """The first failure under one mutant, applied to a copy of the tree, or None if it survives."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree)
        path = tree / file
        path.write_text(path.read_text().replace(old, new))
        failure = first_failure(tree, test) if test else None
        return failure or first_failure(tree, "-x", "--continue-on-collection-errors", SELF_CHECK)


def main() -> int:
    problems = list_problems()
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        return 1
    wrong = 0
    for file, old, new, status, test in MUTANTS:
        failure = run_mutant(file, old, new, test)
        outcome = "killed" if failure else "survives"
        wrong += outcome != status
        mark = "ok " if outcome == status else "BAD"
        print(f"{mark} {outcome:<8} {file}: {old.strip()!r} -> {new.strip()!r}", flush=True)
        if failure and failure != test:
            print(f"      first failure: {failure}", flush=True)
    print(f"{len(MUTANTS) - wrong} of {len(MUTANTS)} mutants as recorded")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())

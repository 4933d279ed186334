"""Check that the test suite still kills the known mutants of the fast paths.

Each mutant is one source edit, an exact old text replaced by a new one,
together with the test that must fail once it is applied.  The script copies
``src``, ``tests``, ``bench`` (a CLI test parses its cli jobs' argv) and
``pyproject.toml`` to a temporary directory, runs every mutant's test on the
unmutated copy (each must pass there), then applies the mutants one at a
time, never in parallel: it edits the copy, runs that mutant's test and
restores the file.  It exits with status 1 if a test fails on the unmutated
copy, if a mutant's old text does not occur exactly once, or if a mutant
survives.

    python3 tools/mutants.py

``tests/test_mutants.py`` checks, within the tier-1 suite, that each old
text still occurs exactly once, so a refactor that moves the code updates
this list in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new test")

MUTANTS = (
    Mutant(
        "the local flow never adds reverse arcs",
        "src/ghzgraphs/structure.py",
        "            res[b].add(a)\n",
        "",
        "tests/test_structure.py::test_local_connectivity_matches_the_capacity_table_flow",
    ),
    Mutant(
        "an augmenting path adds no reverse arc",
        "src/ghzgraphs/structure.py",
        "            res[b].add(a)\n",
        "",
        "tests/test_structure.py::test_local_connectivity_is_the_smallest_separator_of_each_pair",
    ),
    Mutant(
        "a cap-0 flow builds its residual graph",
        "src/ghzgraphs/structure.py",
        "    if not cap:\n        return 0\n",
        "",
        "tests/test_structure.py::test_a_flow_capped_at_0_reads_no_adjacency",
    ),
    Mutant(
        "vertex_connectivity without the neighbour pairs",
        "src/ghzgraphs/structure.py",
        "    pairs += [(x, y) for x, y in itertools.combinations(sorted(adj[v]), 2) if y not in adj[x]]\n",
        "",
        "tests/test_structure.py::test_connectivity_of_named_families",
    ),
    Mutant(
        "the depth-first search ignores the root's child count",
        "src/ghzgraphs/structure.py",
        "1 if cut or root_children > 1 else 2",
        "1 if cut else 2",
        "tests/test_structure.py::test_connectivity_below_minimum_degree_three_matches_both_oracles",
    ),
    Mutant(
        "vertex_connectivity skips the flows at minimum degree 3",
        "src/ghzgraphs/structure.py",
        "    if best <= 2:\n",
        "    if best <= 3:\n",
        "tests/test_structure.py::test_a_triangular_prism_runs_the_flows",
    ),
    Mutant(
        "_reduce emits the block edges unsorted",
        "src/ghzgraphs/reduction.py",
        "for (p, q), w in sorted(weights.items())]",
        "for (p, q), w in weights.items()]",
        "tests/test_reduction.py::test_projected_reduction_matches_the_lookup_reduction",
    ),
    Mutant(
        "_iter_perfect_matchings lists every matching before the first",
        "src/ghzgraphs/matchings.py",
        "    yield from extend(0)\n",
        "    yield from list(extend(0))\n",
        "tests/test_matchings.py::test_the_search_builds_each_matching_only_when_it_is_drawn",
    ),
    Mutant(
        "_block keyed by its vertex set alone",
        "src/ghzgraphs/reduction.py",
        "    key = vertices, cut\n",
        "    key = vertices\n",
        "tests/test_reduction.py::test_shared_blocks_match_the_blocks_built_per_cut",
    ),
    Mutant(
        "the mask-keyed block drops its cut part",
        "src/ghzgraphs/reduction.py",
        "_weight_table(g, vertices, cut))\n",
        "_weight_table(g, vertices, 0))\n",
        "tests/test_reduction.py::test_shared_blocks_match_the_blocks_built_per_cut",
    ),
    Mutant(
        "all_cuts skips cuts of the best's size",
        "src/ghzgraphs/reduction.py",
        "(n, k * n // 2) >= best[0]:",
        "n >= best[0][0]:",
        "tests/test_reduction.py::test_lazy_cut_scan_matches_the_listed_scan",
    ),
    Mutant(
        "all_cuts reduces every cut",
        "src/ghzgraphs/reduction.py",
        "        if best is not None and (n, k * n // 2) >= best[0]:\n",
        "        if False:\n",
        "tests/test_reduction.py::test_all_cuts_reduces_only_the_cuts_that_can_still_win",
    ),
    Mutant(
        "a tie on the bound is reduced",
        "src/ghzgraphs/reduction.py",
        "(n, k * n // 2) >= best[0]:",
        "(n, k * n // 2) > best[0]:",
        "tests/test_reduction.py::test_all_cuts_reduces_only_the_cuts_that_can_still_win",
    ),
    Mutant(
        "the stop rule ignores the input's dimension",
        "src/ghzgraphs/reduction.py",
        "best[0] == (4, 2 * k):",
        "best[0][0] == 4:",
        "tests/test_reduction.py::test_all_cuts_scans_past_a_first_cut_above_the_bound",
    ),
    Mutant(
        "the bound applies to inputs that are not g-GHZ",
        "src/ghzgraphs/reduction.py",
        "    k = input_verdict.dimension if input_verdict.is_g_ghz else 0\n",
        "    k = input_verdict.dimension\n",
        "tests/test_reduction.py::test_a_graph_that_is_not_g_ghz_takes_no_bound_from_its_dimension",
    ),
    Mutant(
        "the identity check names the largest mismatch",
        "src/ghzgraphs/reduction.py",
        "            vc_r = min(wrong)\n",
        "            vc_r = max(wrong)\n",
        "tests/test_reduction.py::test_identity_check_names_the_smallest_of_several_planted_mismatches",
    ),
    Mutant(
        "the weight kernel ignores its cut mask",
        "src/ghzgraphs/matchings.py",
        "        if ends & outside or ends & cut == ends:\n",
        "        if ends & outside:\n",
        "tests/test_structure.py::test_even_square_total_reproduces_the_colouring_weight",
    ),
    Mutant(
        "the weight kernel starts with no vertex covered",
        "src/ghzgraphs/matchings.py",
        "    table = solve(outside)\n",
        "    table = solve(0)\n",
        "tests/test_matchings.py::test_masked_kernel_is_the_kernel_on_the_block_copy",
    ),
    Mutant(
        "the one-entry read-out decodes with the wrong place values",
        "src/ghzgraphs/matchings.py",
        "            return {_digits(key, places): _make(w) if exact else w}\n",
        "            return {_digits(key, places[::-1]): _make(w) if exact else w}\n",
        "tests/test_matchings.py::test_masked_tables_of_every_size_are_the_slow_tables_bit_for_bit",
    ),
    Mutant(
        "the weight kernel keeps its solver's reference cycle",
        "src/ghzgraphs/matchings.py",
        "    del solve  # it refers to itself: a cycle the collector would have to free\n",
        "",
        "tests/test_matchings.py::test_the_kernel_leaves_no_garbage_for_the_cycle_collector",
    ),
    Mutant(
        "the matching search keeps its helper's reference cycle",
        "src/ghzgraphs/matchings.py",
        "        del extend  # it refers to itself: a cycle the collector would have to free\n",
        "        pass\n",
        "tests/test_matchings.py::test_the_matching_search_leaves_no_garbage_for_the_cycle_collector",
    ),
    Mutant(
        "the weight kernel swaps a key's halves",
        "src/ghzgraphs/matchings.py",
        "out[halves[key // split] + halves[key % split]]",
        "out[halves[key % split] + halves[key // split]]",
        "tests/test_matchings.py::test_keys_decoded_by_halves_are_the_per_digit_keys",
    ),
    Mutant(
        "the sparse read-out decodes with the wrong place values",
        "src/ghzgraphs/matchings.py",
        "        out[_digits(key, places)] = _make(w) if exact else w\n",
        "        out[_digits(key, places[::-1])] = _make(w) if exact else w\n",
        "tests/test_matchings.py::test_keys_decoded_by_halves_are_the_per_digit_keys",
    ),
    Mutant(
        "the decode list holds halves of the wrong length",
        "src/ghzgraphs/matchings.py",
        "product(range(base), repeat=half)",
        "product(range(base), repeat=half + 1)",
        "tests/test_matchings.py::test_keys_decoded_by_halves_are_the_per_digit_keys",
    ),
    Mutant(
        "the list read-out leaves exact values unwrapped",
        "src/ghzgraphs/matchings.py",
        "halves[key % split]] = _make(w) if exact else w\n",
        "halves[key % split]] = w\n",
        "tests/test_matchings.py::test_keys_decoded_by_halves_are_the_per_digit_keys",
    ),
    Mutant(
        "the exact weight kernel scales a sum's first term by t, not s",
        "src/ghzgraphs/matchings.py",
        "(e * s + (a * c - b * d) * t, f * s + (a * d + b * c) * t, r * s)",
        "(e * t + (a * c - b * d) * t, f * s + (a * d + b * c) * t, r * s)",
        "tests/test_matchings.py::test_exact_tables_from_triples_are_the_operator_tables_bit_for_bit",
    ),
    Mutant(
        "the exact weight kernel's product drops its - b * d",
        "src/ghzgraphs/matchings.py",
        "table[key] = (a * c - b * d, a * d + b * c, p * q)",
        "table[key] = (a * c, a * d + b * c, p * q)",
        "tests/test_matchings.py::test_exact_tables_from_triples_are_the_operator_tables_bit_for_bit",
    ),
    Mutant(
        "the weight kernel splices an edge's half-colours at each other's ends",
        "src/ghzgraphs/matchings.py",
        "cu * place[u] + cv * place[v]",
        "cv * place[u] + cu * place[v]",
        "tests/test_matchings.py::test_a_relabelled_graph_has_the_relabelled_table",
    ),
    Mutant(
        "the weight kernel merges an edge into the class of its lower end's colour at both ends",
        "src/ghzgraphs/matchings.py",
        "        edge_class = (e.u, e.v, e.cu, e.cv)\n",
        "        edge_class = (e.u, e.v, e.cu, e.cu)\n",
        "tests/test_matchings.py::test_a_gauged_graph_has_the_gauged_table",
    ),
    Mutant(
        "search refuses dimension 3 only below connectivity 2",
        "src/ghzgraphs/search.py",
        "        if kappa <= 2:\n",
        "        if kappa < 2:\n",
        "tests/test_search.py::test_search_refuses_a_dimension_above_2_at_connectivity_2_or_less",
    ),
    Mutant(
        "the colouring mask ignores the upper end's colour",
        "src/ghzgraphs/matchings.py",
        "if e.cu == vc[e.u] and e.cv == vc[e.v])",
        "if e.cu == vc[e.u])",
        "tests/test_matchings.py::test_colouring_queries_are_the_filter_then_kernel_reads",
    ),
    Mutant(
        "the odd square paints v with u's colour",
        "src/ghzgraphs/structure.py",
        " else k if x == u else l for x in range(g.n))",
        " else k for x in range(g.n))",
        "tests/test_structure.py::test_odd_square_total_reproduces_the_colouring_weight",
    ),
    Mutant(
        "verify reports mono colourings as non-mono",
        "src/ghzgraphs/ghz.py",
        "                    if w and vc not in monos]\n",
        "                    if w]\n",
        "tests/test_ghz.py::test_one_pass_verify_is_the_per_entry_verify",
    ),
    Mutant(
        "verify forgets that () is mono",
        "src/ghzgraphs/ghz.py",
        "    monos = {()}\n",
        "    monos = set()\n",
        "tests/test_ghz.py::test_verify_on_the_empty_graph",
    ),
    Mutant(
        "the package lets the submodule rebind `search`",
        "src/ghzgraphs/__init__.py",
        '        if name == "search" and isinstance(value, _ModuleType):\n            return\n',
        "",
        "tests/test_api.py::test_search_is_the_function_after_importing_its_submodule_first",
    ),
    Mutant(
        "a submodule is imported eagerly again",
        "src/ghzgraphs/__init__.py",
        "from types import ModuleType as _ModuleType\n",
        "from types import ModuleType as _ModuleType\n\nfrom .ghz import verify\n",
        "tests/test_api.py::test_every_re_exported_name_resolves_in_a_fresh_interpreter",
    ),
    Mutant(
        "`__getattr__` stores what it resolves in the package",
        "src/ghzgraphs/__init__.py",
        "        return getattr(_sys.modules[_LAZY[name]], name)\n",
        "        value = globals()[name] = getattr(_sys.modules[_LAZY[name]], name)\n        return value\n",
        "tests/test_api.py::test_a_name_rebound_in_its_submodule_is_seen_through_the_package",
    ),
    Mutant(
        "from_parts keeps a negative denominator",
        "src/ghzgraphs/exact.py",
        "    if den < 0:\n        g = -g\n",
        "",
        "tests/test_exact.py::test_from_parts_and_int_parts_match_the_fraction_path",
    ),
    Mutant(
        "weight_to_strings writes the parts unreduced",
        "src/ghzgraphs/io.py",
        "        g, h = math.gcd(re, den), math.gcd(im, den)\n",
        "        g = h = 1\n",
        "tests/test_io.py::test_weight_to_strings_matches_the_fraction_path",
    ),
    Mutant(
        "the refutation swaps the mono and non-mono targets",
        "src/ghzgraphs/search.py",
        "    target = 1 if worst < d else 0  # the monos come first\n",
        "    target = 0 if worst < d else 1  # the monos come first\n",
        "tests/test_search.py::test_exactify_is_the_full_rounding_exactify_at_planted_points",
    ),
    Mutant(
        "the refutation always rejects",
        "src/ghzgraphs/search.py",
        "    return colouring_weight(rounded, vc) != target\n",
        "    return True\n",
        "tests/test_search.py::test_exactify_is_the_full_rounding_exactify_at_planted_points",
    ),
    Mutant(
        "the evaluation's product skips a row",
        "src/ghzgraphs/search.py",
        "np.multiply(pre[j], row, out=pre[j + 1])",
        "np.multiply(pre[j], row if j else 1, out=pre[j + 1])",
        "tests/test_search.py::test_evaluation_is_the_scatter_add_evaluation_exactly",
    ),
    Mutant(
        "a grid column reads the lower end's colour for the upper end",
        "src/ghzgraphs/search.py",
        "colour[ends[:, 0]] * d + colour[ends[:, 1]]",
        "colour[ends[:, 0]] * d + colour[ends[:, 0]]",
        "tests/test_search.py::test_problem_build_is_the_checked_build",
    ),
    Mutant(
        "the gradient reads the prefix rows one row off",
        "src/ghzgraphs/search.py",
        "np.multiply(pre[:-1], suf, out=suf)",
        "np.multiply(pre[1:], suf, out=suf)",
        "tests/test_search.py::test_evaluation_is_the_scatter_add_evaluation_exactly",
    ),
    Mutant(
        "the gather's sort is not stable",
        "src/ghzgraphs/search.py",
        'np.argsort(flat, kind="stable")',
        'np.argsort(flat, kind="quicksort")',
        "tests/test_search.py::test_gradient_gather_lists_each_variables_terms_in_the_scatter_order",
    ),
    Mutant(
        "the gather's runs start where they end",
        "src/ghzgraphs/search.py",
        "    starts = np.cumsum(counts) - counts\n",
        "    starts = np.cumsum(counts)\n",
        "tests/test_search.py::test_gradient_gather_lists_each_variables_terms_in_the_scatter_order",
    ),
    Mutant(
        "the output rotation reads the state's low bits",
        "src/ghzgraphs/search.py",
        "    rotation = high >> 58\n",
        "    rotation = low & 63\n",
        "tests/test_search.py::test_restart_draws_are_numpys_default_rng_draws",
    ),
    Mutant(
        "the seed pool skips its cross-mixing rounds",
        "src/ghzgraphs/search.py",
        "            if src != dst:\n",
        "            if False:\n",
        "tests/test_search.py::test_restart_draws_are_numpys_default_rng_draws",
    ),
    Mutant(
        "exactify leaves its epsilon unread",
        "src/ghzgraphs/search.py",
        '    if epsilon is not None:\n        epsilon = _as_tolerance(epsilon, "epsilon")\n',
        "",
        "tests/test_search.py::test_verify_and_search_read_a_tolerance_by_one_rule",
    ),
    Mutant(
        "the gradient's padding slot is not zero",
        "src/ghzgraphs/search.py",
        "    slots[-1] = 0  # the gather's padding\n",
        "    slots[-1] = 1  # the gather's padding\n",
        "tests/test_search.py::test_evaluation_is_the_scatter_add_evaluation_exactly",
    ),
    Mutant(
        "the CLI imports `structure` at its top",
        "src/ghzgraphs/cli.py",
        "from .io import weight_to_strings\n",
        "from . import structure  # noqa: F401\nfrom .io import weight_to_strings\n",
        "tests/test_cli.py::test_each_command_loads_only_the_modules_it_needs",
    ),
    Mutant(
        "`main` exits 0 whatever `verify` finds",
        "src/ghzgraphs/cli.py",
        "        return status\n",
        "        return 0\n",
        "tests/test_cli.py::test_verify_gates_on_the_requested_property",
    ),
    Mutant(
        "parse_args hands every argv to argparse",
        "src/ghzgraphs/cli.py",
        "    return _argparse_parse(argv) if values is None else SimpleNamespace(**values)\n",
        "    return _argparse_parse(argv)\n",
        "tests/test_cli.py::test_the_common_form_never_loads_argparse",
    ),
    Mutant(
        "the common form accepts a second file",
        "src/ghzgraphs/cli.py",
        '        if name not in by_name or name is None and "file" in seen:\n',
        "        if name not in by_name:\n",
        "tests/test_cli.py::test_parse_args_is_the_argparse_parser",
    ),
    Mutant(
        "the common form accepts a flag's =value",
        "src/ghzgraphs/cli.py",
        "            if eq:\n                return None\n            values[dest] = True\n",
        "            values[dest] = True\n",
        "tests/test_cli.py::test_parse_args_is_the_argparse_parser",
    ),
    Mutant(
        "the common form reads a value that starts with -",
        "src/ghzgraphs/cli.py",
        '            if value[:1] == "-":\n                return None\n',
        "",
        "tests/test_cli.py::test_parse_args_is_the_argparse_parser",
    ),
    Mutant(
        "make_cut keeps a float or bool vertex",
        "src/ghzgraphs/structure.py",
        "    s, v1, v2 = _as_vertices(s), _as_vertices(v1), _as_vertices(v2)\n",
        "    s, v1, v2 = tuple(s), tuple(v1), tuple(v2)\n",
        "tests/test_structure.py::test_make_cut_refuses_a_vertex_that_is_not_an_int",
    ),
    Mutant(
        "the cut takers read a cut with its sides sorted",
        "src/ghzgraphs/reduction.py",
        "    return CutSpec._make(map(_as_vertices, (cut.s, cut.v1, cut.v2)))\n",
        "    return make_cut(g, cut.s, cut.v1, cut.v2)\n",
        "tests/test_reduction.py::test_the_cut_takers_read_the_cut_in_the_order_given",
    ),
    Mutant(
        "the odd square keeps numpy cut vertices",
        "src/ghzgraphs/structure.py",
        "    u, v = _as_vertices((u, v))  # read here: the CutSpec below sorts u and v\n    _, a, b = map(set, make_cut(g, (u, v), a_side, b_side))\n    if len(a) % 2 == 0:\n",
        "    _, a, b = map(set, make_cut(g, (u, v), a_side, b_side))\n    if len(a) % 2 == 0:\n",
        "tests/test_structure.py::test_square_decompositions_read_numpy_cut_vertices_as_ints",
    ),
    Mutant(
        "induced_subgraph keeps a float or bool vertex",
        "src/ghzgraphs/graphs.py",
        "    kept = sorted(set(_as_vertices(vertices)))\n",
        "    kept = sorted(set(vertices))\n",
        "tests/test_graphs.py::test_induced_subgraph_refuses_a_vertex_that_is_not_an_int",
    ),
    Mutant(
        "Edge keeps numpy colours",
        "src/ghzgraphs/graphs.py",
        '            cu, cv = _as_index(cu, "colour"), _as_index(cv, "colour")\n',
        '            _as_index(cu, "colour"), _as_index(cv, "colour")\n',
        "tests/test_graphs.py::test_numpy_colours_become_ints",
    ),
    Mutant(
        "the colour universe keeps numpy entries",
        "src/ghzgraphs/graphs.py",
        "        plain.append(i)\n",
        "        plain.append(c)\n",
        "tests/test_graphs.py::test_numpy_colours_become_ints",
    ),
    Mutant(
        "the integer reader accepts a bool",
        "src/ghzgraphs/exact.py",
        "    if value.__class__ is not bool:\n",
        "    if True:\n",
        "tests/test_exact.py::test_from_parts_refuses_a_part_that_is_not_an_int",
    ),
    Mutant(
        "the tolerance reader accepts an array of one",
        "src/ghzgraphs/exact.py",
        ' and not getattr(value, "ndim", 0) and ',
        " and ",
        "tests/test_search.py::test_verify_and_search_read_a_tolerance_by_one_rule",
    ),
    Mutant(
        "the integer reader reads with int(), so floats pass",
        "src/ghzgraphs/exact.py",
        "            return index(value)\n",
        "            return int(value)\n",
        "tests/test_search.py::test_variable_index_refuses_indices_that_are_not_ints",
    ),
    Mutant(
        "the integer reader returns a numpy integer unconverted",
        "src/ghzgraphs/exact.py",
        "            return index(value)\n",
        "            return index(value) and value\n",
        "tests/test_search.py::test_problem_reads_numpy_integers_as_ints",
    ),
    Mutant(
        "the CLI's integer pattern takes any Unicode digit",
        "src/ghzgraphs/cli.py",
        '    if not re.fullmatch(r"-?[0-9]+", text):\n',
        '    if not re.fullmatch(r"-?\\d+", text):\n',
        "tests/test_cli.py::test_a_colouring_entry_is_ascii_digits_alone",
    ),
    Mutant(
        "from_parts keeps its parts unread",
        "src/ghzgraphs/exact.py",
        '        re_num, re_den = _as_index(re_num, "re_num"), _as_index(re_den, "re_den")\n'
        '        im_num, im_den = _as_index(im_num, "im_num"), _as_index(im_den, "im_den")\n',
        "",
        "tests/test_exact.py::test_from_parts_stores_numpy_parts_as_ints",
    ),
    Mutant(
        "a sum's denominator is p * q, not the lcm",
        "src/ghzgraphs/exact.py",
        "        k = gcd(p, q)\n",
        "        k = 1\n",
        "tests/test_exact.py::test_operators_give_the_triples_of_the_paths_they_replaced",
    ),
    Mutant(
        "equality compares the parts without cross-multiplying",
        "src/ghzgraphs/exact.py",
        "        return a * q == c * p and b * q == d * p\n",
        "        return a == c and b == d\n",
        "tests/test_exact.py::test_operators_give_the_triples_of_the_paths_they_replaced",
    ),
    Mutant(
        "the colour universe is frozen before its entries are read",
        "src/ghzgraphs/graphs.py",
        "            colour_universe = _as_universe(colour_universe)\n        for c in colour_universe:\n",
        "            colour_universe = _as_universe(frozenset(colour_universe))\n        for c in colour_universe:\n",
        "tests/test_graphs.py::test_a_colour_universe_is_read_before_it_is_deduplicated",
    ),
    Mutant(
        "structure imports typing",
        "src/ghzgraphs/structure.py",
        "import itertools\nfrom collections import deque, namedtuple\n",
        "import itertools\nimport typing\nfrom collections import deque, namedtuple\n",
        "tests/test_cli.py::test_each_command_loads_only_the_modules_it_needs[connectivity-loaded3]",
    ),
    Mutant(
        "instances imports typing",
        "src/ghzgraphs/instances.py",
        "from collections.abc import Sequence\n",
        "import typing\nfrom collections.abc import Sequence\n",
        "tests/test_cli.py::test_importing_the_library_loads_no_slow_module_numpy_or_argparse",
    ),
    Mutant(
        "the package imports ghz",
        "src/ghzgraphs/__init__.py",
        '__version__ = "0.1.0"\n',
        '__version__ = "0.1.0"\nfrom . import ghz\n',
        "tests/test_api.py::test_every_re_exported_name_resolves_in_a_fresh_interpreter",
    ),
    Mutant(
        "the CLI imports argparse at module level",
        "src/ghzgraphs/cli.py",
        "import json\nimport re\nimport sys\n",
        "import argparse\nimport json\nimport re\nimport sys\n",
        "tests/test_cli.py::test_the_common_form_never_loads_argparse",
    ),
    Mutant(
        "the exact kernel's base state weighs 2",
        "src/ghzgraphs/matchings.py",
        "{full: {0: _EXACT_ONE._v if exact else _FLOAT_ONE}}",
        "{full: {0: (2, 0, 1) if exact else _FLOAT_ONE}}",
        "tests/test_matchings.py::test_a_disjoint_union_has_the_product_table",
    ),
)


def run_test(copy: Path, test: str) -> int:
    """pytest's exit status for one test node, run in ``copy`` on its own src."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="ghzgraphs-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        for test in sorted({m.test for m in MUTANTS}):
            status = run_test(copy, test)
            print(f"unmutated  {test}: exit {status}", flush=True)
            if status != 0:
                failures.append(f"{test} fails on the unmutated source")
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1

        for m in MUTANTS:
            path = copy / m.path
            source = path.read_text()
            if source.count(m.old) != 1:
                failures.append(f"{m.name}: old text occurs {source.count(m.old)} times in {m.path}")
                continue
            path.write_text(source.replace(m.old, m.new))
            try:
                status = run_test(copy, m.test)
            finally:
                path.write_text(source)
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"error (exit {status})"
            print(f"{verdict:<10} {m.name}: {m.test}", flush=True)
            if status != 1:
                failures.append(f"{m.name}: {verdict} under {m.test}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

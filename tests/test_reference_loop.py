"""``engine.run`` against the literal reference loop (``reference_loop``).

Both must give equal ``RunTrace``s, series included, and the same decision
sequence: for each iteration, the candidate's code, whether the archive
took it, and the exact lp2 of every accepted candidate. A rejected
candidate's lp2 is left out, since the engine may hold only a lower bound.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import evocover as ec
from reference_loop import reference_run


def decisions(run, algorithm, g, seed, term, **kwargs):
    seq = []

    def record(it, cand, accepted, archive):
        seq.append((it, cand.code, accepted, cand.lp2 if accepted else None))

    trace = run(algorithm, g, seed, term, check_bounds=True, record_series=True,
                callback=record, **kwargs)
    return trace, seq


def assert_runs_match(g, seeds, terms, algorithms=ec.ALGORITHMS):
    """Each algorithm runs every (seed, termination) on one shared Evaluator."""
    known = {}
    for algorithm in algorithms:
        ev = ec.Evaluator(g)
        for seed in seeds:
            for term in terms:
                fast = decisions(ec.run, algorithm, g, seed, term, evaluator=ev)
                slow = decisions(reference_run, algorithm, g, seed, term, known=known)
                where = algorithm, g.n, seed, term
                assert fast[1] == slow[1], where
                assert fast[0] == slow[0], where


def terminations(g, budget):
    """A budget, then a ratio and an any-cover target, each run on until the
    zero string has entered as well."""
    opt = ec.opt_branch_bound(g).opt_cost
    return (ec.Termination(budget=budget),
            ec.Termination(budget=budget, target_ratio=Fraction(1), opt=opt,
                           until_zero_string=True),
            ec.Termination(budget=budget, any_cover=True, until_zero_string=True))


@st.composite
def graphs(draw):
    """gnp on <= 14 vertices; w_max 2^20 makes demo's boxes bind."""
    n = draw(st.integers(1, 14))
    return ec.gnp(n, draw(st.sampled_from((0.2, 0.4, 0.7))),
                  w_max=draw(st.sampled_from((1, 16, 2 ** 20))), seed=draw(st.integers(0, 99)))


# no shrink phase: each example runs the reference loop, which evaluates
# every new genotype cold
@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))
@given(graphs(), st.integers(0, 10 ** 6))
def test_engine_matches_the_reference_loop(g, seed):
    assert_runs_match(g, (seed, seed + 1, seed + 2), terminations(g, 300))


@pytest.mark.parametrize("w_max", [1, 16, 2 ** 20])
def test_engine_matches_the_reference_loop_on_a_saturated_memo(w_max):
    # at n = 8 the memo holds every genotype after a few hundred iterations,
    # so nearly every iteration of every loop is batched
    g = ec.gnp(8, 0.4, w_max=w_max, seed=3)
    assert_runs_match(g, (1, 2, 3), terminations(g, 2000))


def test_engine_matches_the_reference_loop_without_a_table():
    # beyond n = 16, and where 2 * sum(w) reaches 2^62, the loops run on
    # the scalar path alone
    for g in (ec.gnp(17, 0.3, w_max=16, seed=1),
              ec.build_graph(6, [2 ** 61, 1, 3, 2 ** 60, 5, 7],
                             [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])):
        assert ec.Evaluator(g)._table is None
        assert_runs_match(g, (1, 2, 3), [ec.Termination(budget=400)])


def test_engine_matches_the_reference_loop_on_dpbea_with_a_shared_memo():
    # the memo of earlier runs holds covers cheaper than this run's best,
    # which dpbea's groups may reject: a batch must not commit them, or the
    # best cost in the series falls late
    assert_runs_match(ec.gnp(12, 0.4, w_max=16, seed=1), range(9),
                      (ec.Termination(budget=4000),), algorithms=("dpbea",))


def test_engine_matches_the_reference_loop_through_long_back_offs():
    # on a fresh memo most children are unknown for the first thousands of
    # iterations, so batches stay short and the scalar waits between them
    # double to their cap of 256; in each loop, for one seed at least, a
    # batch that commits 8 or more later resets them to 16
    g = ec.gnp(12, 0.4, w_max=2 ** 20, seed=1)
    for seed in (1, 2):
        assert_runs_match(g, (seed,), (ec.Termination(budget=3000),))


def test_engine_matches_the_reference_loop_on_dpbea_collapses():
    # dense graphs with small weights tie many dpbea groups. A tied group
    # that collapses on the scalar path shifts the members after it, and a
    # batch that comes before the next accept must rebuild its arrays
    for g in (ec.gnp(6, 0.9, w_max=2, seed=1), ec.gnp(7, 0.9, w_max=16, seed=2)):
        assert_runs_match(g, range(3), (ec.Termination(budget=4000),), algorithms=("dpbea",))


@pytest.mark.parametrize("n, p, seed, budget", [(24, 0.25, 2, 1000), (62, 0.1, 1, 300),
                                                (63, 0.1, 1, 300), (100, 0.05, 1, 300),
                                                (150, 0.03, 1, 300)])
def test_engine_matches_the_reference_loop_around_the_decoded_rows(n, p, seed, budget):
    # every row is decoded, the row across a block's end with the next
    # block's whole rows. The flip masks are int64 up to n = 62, and Python
    # ints from n = 63: one 64-bit word of packbits at n = 63, two at n =
    # 100 and three at n = 150. n = 24 and n = 100 are the benchmark's
    # target-n24 and budget-n100 graphs; each run crosses 4 or more blocks
    g = ec.gnp(n, p, w_max=16, seed=seed)
    terms = (terminations(g, budget) if n <= 32 else
             (ec.Termination(budget=budget),
              ec.Termination(budget=budget, any_cover=True, until_zero_string=True)))
    assert_runs_match(g, (1, 2, 3), terms)

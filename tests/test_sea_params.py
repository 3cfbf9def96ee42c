"""Parameter-sensitivity tests — the §VII-G (Fig. 8/10) analog.

Each test asserts the *direction* the paper reports for a parameter, on
the facebook stand-in with seeded queries, including the paper-default
settings (e=2 %, Hoeffding ε=0.05) that the scale-adjusted defaults
replace.
"""
import numpy as np
import pytest

from repro.core import SEAParams, sea_search
from repro.experiments import pick_queries, prepare
from repro.metrics import composite_distances_local


@pytest.fixture(scope="module")
def prep():
    return prepare("facebook")


@pytest.fixture(scope="module")
def queries(prep):
    return pick_queries(prep, 5, 3, seed=3)


def run(prep, q, **kw):
    defaults = dict(k=5, gamma=prep.gamma, e=0.10, seed=q)
    defaults.update(kw)
    return sea_search(prep.graph, q, SEAParams(**defaults), stats=prep.stats)


class TestLambda:
    """Fig. 8(a): λ affects runtime, barely affects effectiveness."""

    def test_lambda_grows_sample(self, prep, queries):
        """λ sets the round-1 sample floor (a sparse draw may grow past
        λ|G_q| while re-sampling for a non-empty candidate, so compare
        against the λ floor, not across runs)."""
        q = queries[0]
        large = run(prep, q, lam=0.6)
        assert large.rounds[0].n_sample >= int(0.6 * large.gq_size)

    def test_lambda_keeps_quality(self, prep, queries):
        for q in queries:
            a = run(prep, q, lam=0.2)
            b = run(prep, q, lam=0.6)
            if a.community and b.community:
                assert abs(a.delta_star - b.delta_star) < 0.15


class TestHoeffdingEps:
    """Fig. 8(c)-(d): stricter ε → larger G_q."""

    @pytest.mark.parametrize("eps_pair", [(0.05, 0.25), (0.25, 0.5)])
    def test_gq_monotone_in_eps(self, prep, queries, eps_pair):
        strict, loose = eps_pair
        q = queries[0]
        a = run(prep, q, hoeffding_eps=strict)
        b = run(prep, q, hoeffding_eps=loose)
        assert a.min_gq > b.min_gq
        assert a.gq_size >= b.gq_size

    def test_paper_default_eps_saturates(self, prep, queries):
        """ε=0.05 (the paper default) demands more than the component."""
        q = queries[0]
        r = run(prep, q, hoeffding_eps=0.05)
        assert r.min_gq > prep.graph.num_nodes
        assert r.community is not None  # still works: samples everything


class TestHoeffdingBeta:
    """Fig. 8(e)-(f): higher confidence (smaller β) → larger G_q."""

    def test_gq_monotone_in_beta(self, prep, queries):
        q = queries[0]
        strict = run(prep, q, hoeffding_beta=0.01)
        loose = run(prep, q, hoeffding_beta=0.30)
        assert strict.min_gq > loose.min_gq


class TestErrorBound:
    """Fig. 8(g)-(h): stricter e → more estimation work."""

    def test_strict_e_more_rounds(self, prep, queries):
        rounds_strict, rounds_loose = [], []
        for q in queries:
            rounds_strict.append(len(run(prep, q, e=0.01).rounds))
            rounds_loose.append(len(run(prep, q, e=0.5).rounds))
        assert np.mean(rounds_strict) >= np.mean(rounds_loose)

    def test_loose_e_satisfies(self, prep, queries):
        assert all(run(prep, q, e=0.5).satisfied for q in queries)

    def test_paper_default_e_runs(self, prep, queries):
        """e=2 % (paper default) is exercised end-to-end; at our
        community sizes it may finish unsatisfied, reporting best-effort
        with its CI, exactly as Problem 2 specifies."""
        r = run(prep, queries[0], e=0.02)
        assert r.community is not None
        assert r.moe >= 0
        assert len(r.rounds) >= 1


class TestConfidence:
    """Fig. 8(i)-(j): higher 1−α → wider MoE."""

    def test_moe_monotone_in_alpha(self, prep, queries):
        q = queries[0]
        lo = run(prep, q, alpha=0.20)
        hi = run(prep, q, alpha=0.01)
        if lo.community == hi.community and lo.moe > 0:
            assert hi.moe > lo.moe


class TestK:
    """Fig. 8(k)-(l): larger k → larger δ (less room to drop nodes)."""

    def test_delta_monotone_in_k(self, prep, queries):
        deltas = {k: [] for k in (4, 7)}
        for q in queries:
            for k in (4, 7):
                r = run(prep, q, k=k)
                if r.community:
                    deltas[k].append(r.delta_star)
        if deltas[4] and deltas[7]:
            assert np.mean(deltas[7]) >= np.mean(deltas[4]) - 0.02


class TestGamma:
    """Fig. 10: γ trades textual vs numerical cohesion."""

    def test_gamma_one_optimises_textual(self, prep, queries):
        from repro.metrics import jaccard_distance

        q = queries[0]
        g = prep.graph
        r_t = run(prep, q, gamma=1.0)
        r_n = run(prep, q, gamma=0.0)
        if not (r_t.community and r_n.community):
            pytest.skip("no community")
        jt = np.mean([
            jaccard_distance(g.tattrs[v], g.tattrs[q])
            for v in r_t.community if v != q
        ])
        jn = np.mean([
            jaccard_distance(g.tattrs[v], g.tattrs[q])
            for v in r_n.community if v != q
        ])
        assert jt <= jn + 0.05  # γ=1 favours textual cohesion

    def test_gamma_changes_distances(self, prep, queries):
        q = queries[0]
        ft = composite_distances_local(prep.graph, q, 1.0, prep.stats)
        fn = composite_distances_local(prep.graph, q, 0.0, prep.stats)
        diffs = [abs(ft[v] - fn[v]) for v in list(ft)[:100]]
        assert max(diffs) > 0.1

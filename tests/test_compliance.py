"""Matching of critical points to critical simplices and cancellation."""

import time

import numpy as np
import pytest

import oracles
from conftest import array_cases, random_field, tie_heavy_field, \
    two_bump_field
from test_acceptance import surface_fixtures
from test_gradient import closed_vpath, owners, ring
from sftopo import (
    ExplicitTriangulation,
    ImplicitGridTriangulation,
    OrderField,
    compliance,
    SimplexRef,
    build_gradient,
    enforce_compliance,
    extract_critical_points,
    gradient_is_acyclic,
    match_critical_simplices,
    reverse_vpath,
)


def star_has_critical(tri, grad, cp):
    if cp.index == 0:
        return grad.is_critical(0, cp.vertex)
    star = tri.cofaces(SimplexRef(0, cp.vertex), cp.index)
    return any(grad.is_critical(cp.index, s) for s in star)


class TestMatching:
    def test_every_interior_point_matched(self, octahedron_sub1):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_field(octahedron_sub1, rng)
            g = build_gradient(octahedron_sub1, f)
            report = match_critical_simplices(octahedron_sub1, f, g)
            assert report.match_failures == []

    def test_star_property_on_grid_interior(self):
        tri = ImplicitGridTriangulation((6, 6))
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_field(tri, rng)
            g = build_gradient(tri, f)
            for cp in extract_critical_points(tri, f):
                if not cp.boundary:
                    assert star_has_critical(tri, g, cp)

    def test_augmenting_pass_on_rerouted_gradients(self, monkeypatch):
        """When the owner pass leaves slots over, the augmenting pass at
        construction runs and the matching is as large as a maximum one:
        each matched simplex is critical, of its point's index and in its
        point's star, and the failures are the points with no copy
        matched."""
        searches = []
        augment = compliance._Matching._augment

        def spy(self, i, banned, seen=None):
            searches.append(seen is None)
            return augment(self, i, banned, seen)

        monkeypatch.setattr(compliance._Matching, "_augment", spy)
        cases = 0
        for dims, seed in (((9, 8), 0), ((6, 6, 6), 0), ((5, 5, 5), 1)):
            tri = ImplicitGridTriangulation(dims)
            f = random_field(tri, np.random.default_rng(seed))
            cps = extract_critical_points(tri, f)
            for g in rerouted_gradients(tri, f):
                searches.clear()
                report = match_critical_simplices(tri, f, g, cps)
                assert any(searches)
                assert sum(map(len, report.matched.values())) \
                    == oracles.max_star_matching(tri, g, cps)
                for (v, k), sids in report.matched.items():
                    for s in sids:
                        assert g.is_critical(k, s)
                        assert v in tri.simplex_vertices(SimplexRef(k, s))
                assert report.match_failures == [
                    cp for cp in cps if not cp.boundary
                    and not report.matched[(cp.vertex, cp.index)]]
                cases += 1
        assert cases == 12

    def test_multiplicity_claims_several_simplices(self, octahedron_sub2):
        rng = np.random.default_rng(13)
        for _ in range(5):
            f = random_field(octahedron_sub2, rng)
            g = build_gradient(octahedron_sub2, f)
            report = match_critical_simplices(octahedron_sub2, f, g)
            for cp in extract_critical_points(octahedron_sub2, f):
                got = report.matched.get((cp.vertex, cp.index))
                if got is not None:
                    assert len(got) == cp.multiplicity


def rerouted_gradients(tri, f, count=4):
    """Lower-star gradients of ``f`` with one V-path reversed, for up to
    ``count`` interior 1-saddles: the first V-path from a critical
    triangle that is the only one to the first critical edge the saddle
    owns, so that the saddle loses the edge the owner pass gives it and
    its slot goes to the augmenting pass."""
    base = build_gradient(tri, f)
    out = []
    for cp in extract_critical_points(tri, f):
        if cp.boundary or cp.index != 1 or len(out) == count:
            continue
        owned = [e for e in base.critical_ids(1) if oracles.top_vertex(
            f, tri.simplex_vertices(SimplexRef(1, e))) == cp.vertex]
        if not owned:
            continue
        for t in base.critical_ids(2):
            if oracles.count_vpaths(base, 1, t, owned[0]) == 1:
                g = build_gradient(tri, f)
                reverse_vpath(g, oracles.extract_vpath(g, 1, t, owned[0]))
                out.append(g)
                break
    return out


class TestEnforcement:
    def test_closed_surface_counts(self, octahedron, octahedron_sub1,
                                   octahedron_sub2):
        rng = np.random.default_rng(14)
        for tri in (octahedron, octahedron_sub1, octahedron_sub2):
            for _ in range(5):
                f = random_field(tri, rng)
                g = build_gradient(tri, f)
                report = enforce_compliance(tri, f, g)
                assert report.compliant
                pl = {}
                for cp in extract_critical_points(tri, f):
                    pl[cp.index] = pl.get(cp.index, 0) + cp.multiplicity
                for k in range(3):
                    assert len(g.critical_ids(k)) == pl.get(k, 0)
                assert gradient_is_acyclic(g)

    def test_3d_enforcement_reduces_residue(self):
        tri = ImplicitGridTriangulation((5, 5, 5))
        f = random_field(tri, np.random.default_rng(15))
        g = build_gradient(tri, f)
        before = match_critical_simplices(tri, f, g)
        n_before = sum(len(v) for v in before.spurious.values())
        report = enforce_compliance(tri, f, g)
        n_after = sum(len(v) for v in report.spurious.values())
        assert not report.match_failures
        assert n_after <= n_before
        assert gradient_is_acyclic(g)


def test_compliance_refuses_closed_vpaths():
    """A (1, 2) loop around the interior vertex of a 3x3 grid makes the
    saddle/maximum class raise instead of never returning."""
    tri = ImplicitGridTriangulation((3, 3))
    loop = closed_vpath(tri, 1, ring(tri, 1, 4))
    with pytest.raises(ValueError):
        enforce_compliance(tri, loop.field, loop)


class TestArrayMatching:
    """The matching's candidate lists and boundary flags, built from the
    gradient's arrays, equal what per-simplex queries give."""

    def test_slot_lists_match_star_queries(self, monkeypatch,
                                           octahedron_sub2):
        """Each slot lists the critical simplices of its vertex's star in
        descending simplex-key order, and its candidates stay exactly
        those still critical after the saddle/maximum cancellations.
        The gradient is the steepest co-face one, which leaves many
        pairs to cancel, so many releases to Kuhn's search.

        With Kuhn's search stubbed out, the owner pass alone gives the
        c-th copy of a point the c-th of its star's critical simplices
        whose highest vertex is the point's, and leaves any copy past
        those empty, from the lower-star gradient and from the steepest
        co-face one.  On these cases it fills every slot of both."""
        filled = 0
        for tri, f in array_cases(octahedron_sub2):
            for build in (build_gradient, oracles.steepest_gradient):
                g = build(tri, f)
                top = [owners(g, k) for k in range(tri.dim + 1)]
                with monkeypatch.context() as m:
                    m.setattr(compliance._Matching, "_augment",
                              lambda *args: False)
                    owner = compliance._Matching(
                        g, extract_critical_points(tri, f))
                copies = {}
                for p, v, k, s in zip(owner.point.tolist(),
                                      owner.vertex.tolist(),
                                      owner.index.tolist(),
                                      owner.sid_of.tolist()):
                    c = copies[p] = copies.get(p, -1) + 1
                    own = [x for x in oracles.star_simplices(tri, f, v, k)
                           if g.is_critical(k, x) and top[k][x] == v]
                    assert s == (own[c] if c < len(own) else -1)
                    filled += s >= 0
        assert filled > 100
        cancelled = 0
        for tri, f in array_cases(octahedron_sub2):
            g = oracles.steepest_gradient(tri, f)
            matching = compliance._Matching(
                g, extract_critical_points(tri, f))
            slots = list(zip(matching.vertex.tolist(),
                             matching.index.tolist()))
            stars = [oracles.star_simplices(tri, f, v, k) for v, k in slots]
            for i, ((v, k), star) in enumerate(zip(slots, stars)):
                assert matching._star(i) == [s for s in star
                                             if g.is_critical(k, s)]
            cancelled += len(compliance._cancel_facet_pairs(g, matching))
            for i, ((v, k), star) in enumerate(zip(slots, stars)):
                assert matching._candidates(i) == [
                    (k, s) for s in star if g.is_critical(k, s)]
        assert cancelled > 0

    def test_boundary_flags_match_queries(self, octahedron_sub2):
        for tri, _ in array_cases(octahedron_sub2):
            flags = tri.boundary_flags()
            assert len(flags) == tri.dim + 1
            for k, got in enumerate(flags):
                assert got.tolist() == [
                    tri.is_boundary(SimplexRef(k, s))
                    for s in range(tri.simplex_count(k))]
                # every grid dimension has boundary simplices, the
                # closed sphere none
                assert got.any() == (tri is not octahedron_sub2)

    def test_compliance_builds_only_rows_tables(self):
        """On a fresh explicit mesh, critical points, ``build_gradient``
        and compliance store the same arrays as on the grid, whose
        per-simplex queries build nothing.  Compliance starts from the
        steepest co-face gradient, so that it cancels pairs."""
        rng = np.random.default_rng(22)
        for dims in ((12, 9), (5, 4, 4)):
            grid = ImplicitGridTriangulation(dims)
            f = random_field(grid, rng)
            tri = ExplicitTriangulation(grid.point_array(),
                                        grid.simplex_array(grid.dim))
            grid = ImplicitGridTriangulation(dims)
            for t in (grid, tri):
                cps = extract_critical_points(t, f)
                build_gradient(t, f)
                g = oracles.steepest_gradient(t, f)
                report = enforce_compliance(t, f, g, cps)
                assert report.cancelled
            assert set(tri._store) == set(grid._store)


def assert_same_outcome(got, g, want, ref):
    """Same pairs cancelled in the same order, same gradient, same report."""
    assert got.cancelled == want.cancelled
    for k in range(len(g.pair_up)):
        assert np.array_equal(g.pair_up[k], ref.pair_up[k])
        assert np.array_equal(g.pair_down[k], ref.pair_down[k])
    assert repr(got) == repr(want)


def assert_heap_matches_rescan(monkeypatch, tri, f):
    """``enforce_compliance`` cancels the same pairs in the same order,
    and leaves the same gradient and report, as it does with the
    rescan-and-sort facet cancellation of ``tests/oracles.py``."""
    g = build_gradient(tri, f)
    ref = g.copy()
    got = enforce_compliance(tri, f, g)
    with monkeypatch.context() as m:
        m.setattr(compliance, "_cancel_facet_pairs",
                  oracles.rescan_facet_cancellation)
        want = enforce_compliance(tri, f, ref)
    assert_same_outcome(got, g, want, ref)
    return len(got.cancelled)


def gaussian_field(dims, rng, noise=0.05):
    """A Gaussian bump over a 2D grid plus uniform noise."""
    x, y = np.meshgrid(np.arange(dims[0]), np.arange(dims[1]))
    cx, cy, s = (dims[0] - 1) / 2, (dims[1] - 1) / 2, dims[0] / 4
    bump = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s * s))
    return OrderField(bump.ravel() + noise * rng.random(bump.size))


class TestHeapCancellation:
    def test_gaussian_plus_noise_matches_rescan(self, monkeypatch):
        tri = ImplicitGridTriangulation((48, 48))
        assert_heap_matches_rescan(
            monkeypatch, tri, gaussian_field((48, 48),
                                             np.random.default_rng(25)))

    def test_grids_match_rescan(self, monkeypatch):
        rng = np.random.default_rng(16)
        cancelled = 0
        for dims, fields in (((9, 7), 6), ((16, 16), 3), ((4, 4, 4), 4)):
            tri = ImplicitGridTriangulation(dims)
            for make in (random_field, tie_heavy_field):
                for _ in range(fields):
                    cancelled += assert_heap_matches_rescan(
                        monkeypatch, tri, make(tri, rng))
        assert cancelled > 0

    def test_spheres_match_rescan(self, monkeypatch, octahedron,
                                  octahedron_sub1, octahedron_sub2):
        rng = np.random.default_rng(17)
        for tri in (octahedron, octahedron_sub1, octahedron_sub2):
            for _ in range(4):
                assert_heap_matches_rescan(
                    monkeypatch, tri, random_field(tri, rng))

    def test_3d_matches_alternating_rescan(self):
        """One heap pass per pair class gives what the alternating
        rescans of ``tests/oracles.py`` give, saddle/saddle pairs
        included: from the steepest co-face gradient on small fields,
        and from the lower-star gradient, which leaves 9 to 15
        saddle/saddle pairs on each of a random 10x10x10 and 12x12x12
        and a tie-heavy 10x10x10 field."""
        rng = np.random.default_rng(19)
        steepest = []
        for dims in ((4, 4, 4), (5, 5, 5)):
            tri = ImplicitGridTriangulation(dims)
            for make in (random_field, tie_heavy_field):
                steepest += [(tri, make(tri, rng)) for _ in range(3)]
        steepest.append((ImplicitGridTriangulation((6, 6, 6)),
                         two_bump_field((6, 6, 6))))
        lower_star = []
        for dims, make, seed in (((10, 10, 10), random_field, 0),
                                 ((12, 12, 12), random_field, 0),
                                 ((10, 10, 10), tie_heavy_field, 1)):
            tri = ImplicitGridTriangulation(dims)
            lower_star.append((tri, make(tri, np.random.default_rng(seed))))

        def connectors(tri, f, build):
            g = build(tri, f)
            ref = g.copy()
            got = enforce_compliance(tri, f, g)
            want = oracles.alternating_compliance(tri, f, ref)
            assert_same_outcome(got, g, want, ref)
            return sum(k == 1 for k, _, _ in got.cancelled)

        assert sum(connectors(tri, f, oracles.steepest_gradient)
                   for tri, f in steepest) > 100
        assert all(connectors(tri, f, build_gradient) >= 9
                   for tri, f in lower_star)

    def test_3d_longer_chains_match_alternating_rescan(self):
        """Retracing only the roots that reached a cancelled edge gives
        what the alternating rescans give, on fields whose descending
        V-paths are longer: a random 8x8x8 and a tie-heavy 6x6x6, from
        the steepest co-face gradient."""
        rng = np.random.default_rng(20)
        fields = [(ImplicitGridTriangulation(dims), make) for dims, make in
                  (((8, 8, 8), random_field), ((6, 6, 6), tie_heavy_field))]
        for tri, make in fields:
            f = make(tri, rng)
            g = oracles.steepest_gradient(tri, f)
            ref = g.copy()
            got = enforce_compliance(tri, f, g)
            want = oracles.alternating_compliance(tri, f, ref)
            assert_same_outcome(got, g, want, ref)
            assert sum(k == 1 for k, _, _ in got.cancelled) > 50

    def test_release_holds_at_most_one_end(self, monkeypatch,
                                           octahedron_sub2):
        """The heap never releases an arc with both ends matched, so a
        release re-matches at most one slot."""
        release = compliance._Matching.release
        held = []

        def counted(matching, dims_sids):
            held.append(sum(matching.is_matched(*key) for key in dims_sids))
            return release(matching, dims_sids)

        monkeypatch.setattr(compliance._Matching, "release", counted)
        cases = list(array_cases(octahedron_sub2))
        rng = np.random.default_rng(23)
        for dims in ((24, 24), (6, 6, 6)):
            tri = ImplicitGridTriangulation(dims)
            cases += [(tri, make(tri, rng))
                      for make in (random_field, tie_heavy_field)]
        for tri, f in cases:
            enforce_compliance(tri, f, build_gradient(tri, f))
        assert set(held) == {0, 1}

    def test_failed_release_never_succeeds_later(self, monkeypatch):
        """The heap drops an arc whose release fails; a later attempt,
        after every cancellation, fails too and changes nothing.  A
        later call may find both ends matched, which ``release`` refuses
        without a search, so the general search of
        ``oracles._copying_release`` is run on every call as well.  The
        gradient is the steepest co-face one, whose many cancellations
        make releases fail."""
        release = compliance._Matching.release
        failed = []

        def logged(matching, dims_sids):
            ok = release(matching, dims_sids)
            if not ok:
                failed.append((matching, list(dims_sids)))
            return ok

        monkeypatch.setattr(compliance._Matching, "release", logged)
        tri = ImplicitGridTriangulation((16, 16))
        rng = np.random.default_rng(18)
        for make in (random_field, tie_heavy_field):
            g = oracles.steepest_gradient(tri, make(tri, rng))
            enforce_compliance(tri, g.field, g)
        assert len(failed) > 20
        for matching, dims_sids in failed:
            before = matching.slot_of.copy(), matching.sid_of.copy()
            assert not release(matching, dims_sids)
            assert not oracles._copying_release(matching, dims_sids)
            assert np.array_equal(matching.slot_of, before[0])
            assert np.array_equal(matching.sid_of, before[1])


def test_3d_compliance_scales_to_12_cubed():
    """Both cancellation passes on the steepest co-face gradient of a
    random 12x12x12 field, about 2,100 cancellations, stay well within
    seconds."""
    tri = ImplicitGridTriangulation((12, 12, 12))
    f = random_field(tri, np.random.default_rng(19))
    g = oracles.steepest_gradient(tri, f)
    start = time.perf_counter()
    report = enforce_compliance(tri, f, g)
    elapsed = time.perf_counter() - start
    assert sum(k == 1 for k, _, _ in report.cancelled) > 500
    assert not report.match_failures
    assert elapsed < 10.0


class TestLowerStarCompliance:
    """What the lower-star gradient leaves to compliance."""

    def test_interior_points_own_their_multiplicity(self):
        """Each interior critical point of index k and multiplicity m is
        the highest vertex of exactly m critical k-simplices, so the
        matching's owner pass matches every slot."""
        rng = np.random.default_rng(24)
        points = 0
        for dims in ((16, 16), (8, 8, 8)):
            tri = ImplicitGridTriangulation(dims)
            for make in (random_field, tie_heavy_field):
                for _ in range(3):
                    f = make(tri, rng)
                    g = build_gradient(tri, f)
                    for cp in extract_critical_points(tri, f):
                        if cp.boundary:
                            continue
                        crit = g.critical_ids(cp.index)
                        own = owners(g, cp.index) if cp.index else \
                            np.arange(len(f))
                        assert (own[crit] == cp.vertex).sum() == \
                            cp.multiplicity
                        points += 1
                    matching = compliance._Matching(
                        g, extract_critical_points(tri, f))
                    assert (matching.sid_of >= 0).all()
        assert points > 1000

    def test_closed_surfaces_need_no_cancellation(self):
        """On the criterion-4 surfaces and fields the raw gradient is
        already PL-compliant."""
        rng = np.random.default_rng(103)
        for tri in surface_fixtures():
            for _ in range(50):
                f = random_field(tri, rng)
                report = enforce_compliance(tri, f, build_gradient(tri, f))
                assert report.compliant and report.cancelled == []

    @pytest.mark.parametrize("dims", [(128, 128), (16, 16, 16)])
    def test_few_cancellations_at_scale(self, dims):
        """A random 128x128 field needs no cancellation and a random
        16x16x16 one a few dozen (28), where the steepest co-face
        gradient needs about 5,700."""
        tri = ImplicitGridTriangulation(dims)
        f = random_field(tri, np.random.default_rng(7))
        report = enforce_compliance(tri, f, build_gradient(tri, f))
        assert len(report.cancelled) <= 50
        assert not report.match_failures


class TestArrayTraces:
    """The first fill traces every root in one ``traces`` call; after
    a cancellation, one call retraces the roots that reached its end."""

    @staticmethod
    def spy_heap(monkeypatch, check):
        """Run ``check(args, roots)`` on the arguments of every
        ``_cancel_by_heap`` call, first with its roots and then after
        every cancellation with the roots still critical."""
        heap = compliance._cancel_by_heap

        def spied(grad, matching, lo, root_dim, roots, traces, cancel):
            args = (grad, matching, lo, root_dim, traces)

            def cancel_and_check(root, end):
                cancel(root, end)
                check(args, compliance._interior_ids(matching, root_dim))

            check(args, roots)
            return heap(grad, matching, lo, root_dim, roots, traces,
                        cancel_and_check)

        monkeypatch.setattr(compliance, "_cancel_by_heap", spied)

    def test_first_fill_pushes_what_one_root_traces_push(self,
                                                         monkeypatch,
                                                         octahedron_sub2):
        """On every root set the heap sees, one ``traces`` call over all
        roots gives the ends, and pushes the entries, that one call per
        root gives, in root order; the cancellations are those of a run
        without the checks.  The steepest co-face gradients give many
        cancellations, so many union-find links and retraces."""
        checked = []

        def check(args, roots):
            root, end, entries = compliance._arcs(*args, roots, 0)
            one = [compliance._arcs(*args, np.array([r]), 0)
                   for r in roots.tolist()]
            assert root.tolist() == [r for o in one for r in o[0].tolist()]
            assert end.tolist() == [e for o in one for e in o[1].tolist()]
            assert entries == [x for o in one for x in o[2]]
            checked.append(len(entries))

        rng = np.random.default_rng(26)
        builds = (build_gradient, oracles.steepest_gradient)
        cases = [(tri, f, build) for tri, f in array_cases(octahedron_sub2)
                 for build in builds]
        for dims in ((16, 16), (4, 4, 4), (6, 6, 6)):
            tri = ImplicitGridTriangulation(dims)
            cases += [(tri, make(tri, rng), build)
                      for make in (random_field, tie_heavy_field)
                      for build in builds]
        cancelled = 0
        for tri, f, build in cases:
            want = enforce_compliance(tri, f, build(tri, f))
            with monkeypatch.context() as m:
                self.spy_heap(m, check)
                got = enforce_compliance(tri, f, build(tri, f))
            assert got.cancelled == want.cancelled
            cancelled += len(got.cancelled)
        # 902 cancellations, and 950 root sets pushing 107,987 entries
        assert cancelled > 800 and sum(checked) > 100000

    def test_no_retrace_when_nothing_cancels(self, monkeypatch):
        """On a random 64x64 lower-star gradient nothing cancels, and the
        heap calls ``traces`` once, on every root, and never on one."""
        calls = []
        heap = compliance._cancel_by_heap

        def spied(grad, matching, lo, root_dim, roots, traces, cancel):
            def counted(roots):
                calls.append(len(roots))
                return traces(roots)
            return heap(grad, matching, lo, root_dim, roots, counted,
                        cancel)

        monkeypatch.setattr(compliance, "_cancel_by_heap", spied)
        tri = ImplicitGridTriangulation((64, 64))
        f = random_field(tri, np.random.default_rng(27))
        g = build_gradient(tri, f)
        roots = len(compliance._interior_ids(
            compliance._Matching(g, extract_critical_points(tri, f)), 1))
        report = enforce_compliance(tri, f, g)
        assert report.cancelled == [] and roots > 1000
        assert calls == [roots]

    def test_retraces_the_roots_whose_last_trace_reached_the_end(
            self, monkeypatch, octahedron_sub2):
        """After a cancellation, the one ``traces`` call takes exactly
        the roots, still critical, whose last trace reached the
        cancelled end: none whose older trace alone reached it."""
        heap = compliance._cancel_by_heap
        retraced = []

        def spied(grad, matching, lo, root_dim, roots, traces, cancel):
            last, cancelled = {}, []

            def traced(roots):
                if cancelled:
                    end = cancelled.pop()
                    assert roots.tolist() == sorted(
                        r for r, ends in last.items() if end in ends
                        and grad.is_critical(root_dim, r))
                    retraced.append(len(roots))
                root, end, once = traces(roots)
                last.update((r, set()) for r in roots.tolist())
                for r, e in zip(root.tolist(), end.tolist()):
                    last[r].add(e)
                return root, end, once

            def cancelling(root, end):
                cancel(root, end)
                cancelled[:] = [end]

            return heap(grad, matching, lo, root_dim, roots, traced,
                        cancelling)

        monkeypatch.setattr(compliance, "_cancel_by_heap", spied)
        rng = np.random.default_rng(28)
        cases = list(array_cases(octahedron_sub2))
        for dims in ((16, 16), (6, 6, 6)):
            tri = ImplicitGridTriangulation(dims)
            cases += [(tri, make(tri, rng))
                      for make in (random_field, tie_heavy_field)]
        for tri, f in cases:
            enforce_compliance(tri, f, oracles.steepest_gradient(tri, f))
        # 724 retraces of 1,630 roots in all
        assert len(retraced) > 500 and sum(retraced) > 1000

"""The structure-preserving maps, exercised as maps and as bijections."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier.bijections import _attach, _collapse, _expand, _strip
from schreier.enumeration import _members

from schreier import (
    DomainError,
    FiniteSet,
    GapSet,
    Ratio,
    attach_window,
    collapse_gaps,
    enumerate_schreier,
    expand_gaps,
    gap_window,
    strip_window,
)


def test_gap_window_bounds():
    assert gap_window(5, Ratio(1, 2)) == (3, 4)
    assert gap_window(4, Ratio(2, 1)) == (3,)


def test_gapset_sorts_its_values():
    gaps = GapSet(6, Ratio(1, 3), [5, 3])
    assert gaps.members == (3, 5)
    assert len(gaps) == 2


def test_relabeling_tables():
    # Each surviving value drops by the number of gaps below it.
    for n, ratio, gap, table in [
        (4, Ratio(1, 2), 3, {1: 1, 2: 2, 4: 3}),
        (5, Ratio(1, 1), 4, {1: 1, 2: 2, 3: 3, 5: 4}),
        (3, Ratio(1, 2), 2, {1: 1, 3: 2}),
    ]:
        gaps = GapSet(n, ratio, [gap])
        for x, image in table.items():
            if x == n:
                assert collapse_gaps(FiniteSet([n]), gaps) == FiniteSet([image])
                assert expand_gaps(FiniteSet([image]), gaps) == FiniteSet([n])
            else:
                pair, moved = FiniteSet([x, n]), FiniteSet([image, n - 1])
                if x * ratio.q >= 2 * ratio.p:  # {x, n} is a member
                    assert collapse_gaps(pair, gaps) == moved
                    assert expand_gaps(moved, gaps) == pair


def test_relabeling_table_is_strictly_increasing():
    gaps = GapSet(9, Ratio(1, 3), [6, 8])
    images = []
    for x in [x for x in range(1, 9) if x not in (6, 8)]:
        image = collapse_gaps(FiniteSet([x, 9]), gaps)
        assert image.max == 7
        assert expand_gaps(image, gaps) == FiniteSet([x, 9])
        images.append(image.min)
    assert images == list(range(1, 7))
    assert collapse_gaps(FiniteSet([9]), gaps) == FiniteSet([7])
    assert expand_gaps(FiniteSet([7]), gaps) == FiniteSet([9])


def test_collapse_and_expand_known_pairs():
    gaps = GapSet(4, Ratio(1, 2), [3])
    assert collapse_gaps(FiniteSet([2, 4]), gaps) == FiniteSet([2, 3])
    assert collapse_gaps(FiniteSet([4]), gaps) == FiniteSet([3])
    assert expand_gaps(FiniteSet([2, 3]), gaps) == FiniteSet([2, 4])
    assert expand_gaps(FiniteSet([3]), gaps) == FiniteSet([4])

    gaps = GapSet(3, Ratio(1, 1), [2])
    assert collapse_gaps(FiniteSet([3]), gaps) == FiniteSet([2])
    assert expand_gaps(FiniteSet([2]), gaps) == FiniteSet([3])


def test_strip_and_attach_known_pairs():
    assert strip_window(FiniteSet([2, 3]), Ratio(1, 1), 3) == FiniteSet([1])
    assert strip_window(FiniteSet([2, 3, 4]), Ratio(1, 2), 4) == FiniteSet([1])
    assert attach_window(FiniteSet([1]), Ratio(1, 1), 3) == FiniteSet([2, 3])
    assert attach_window(FiniteSet([1]), Ratio(1, 2), 4) == FiniteSet([2, 3, 4])
    assert attach_window(FiniteSet([2]), Ratio(1, 1), 4) == FiniteSet([3, 4])


PUBLIC = {
    _collapse: collapse_gaps,
    _expand: expand_gaps,
    _strip: strip_window,
    _attach: attach_window,
}


def outcome(call):
    """What ``call`` returns, or the type and text of the map error it raises."""
    try:
        return call()
    except (DomainError, RuntimeError) as error:
        return type(error), str(error)


def lone_outcomes(core, members, *args):
    """Each member's outcome alone under ``core``, by the member.

    The public map on the member's FiniteSet must end as the lone core
    call does, for every member, the ones that a batch would not reach too.
    """
    lone = {t: outcome(lambda: core([t], *args)) for t in members}
    public = {t: outcome(lambda: PUBLIC[core](FiniteSet(t), *args).elements) for t in members}
    assert public == {t: r[0] if type(r) is list else r for t, r in lone.items()}, (
        core.__name__, args
    )
    return lone


def one_by_one(lone, core, batch, *args):
    """What ``core`` must give on ``batch``: the lone images, or the first lone refusal.

    An empty batch makes no lone call: below n = p + q it gets the map's refusal.
    """
    ratio, n = (args[0].ratio, args[0].n) if core in (_collapse, _expand) else args
    if not batch and n < ratio.p + ratio.q:
        return DomainError, f"map needs n >= p + q = {ratio.p + ratio.q}, got n={n}"
    images = []
    for t in batch:
        if type(lone[t]) is not list:
            return lone[t]
        images += lone[t]
    return images


def batches(n, ratio, by_n):
    """(core, args, mapped, rest) for every core at n, on listed members.

    Each core gets the batch ``mapped`` of members it maps, and the same
    batch followed by ``rest``, which it refuses: the family at n, whose
    first non-holder or gap hitter strip or collapse refuses, or its first
    two members, neither a member below n, for attach and expand, so that
    the batch must fail at the first of two refused members.  Below
    n = p + q it refuses any batch.
    """
    p, q = ratio.p, ratio.q
    here, below = by_n[n], by_n[max(n - p - q, 0)]
    window = gap_window(n, ratio) if n > q else ()
    yield _strip, (ratio, n), [t for t in here if set(window) <= set(t)], here
    yield _attach, (ratio, n), below, here[:2]
    for size in range(1, len(window) + 1):
        for chosen in combinations(window, size):
            gaps = GapSet(n, ratio, chosen)
            yield _collapse, (gaps,), [t for t in here if set(chosen).isdisjoint(t)], here
            yield _expand, (gaps,), by_n[n - size], here[:2]


def test_a_batch_maps_as_its_members_do_one_by_one():
    # the images of the members in order; or, where one is refused, the
    # type and text that a lone call on that member raises; every gap choice
    for p, q in [(p, q) for p in range(1, 4) for q in range(1, 4)]:
        ratio = Ratio(p, q)
        by_n = [list(_members(n, ratio)) for n in range(15)]
        for n in range(1, 15):
            for core, args, mapped, rest in batches(n, ratio, by_n):
                lone = lone_outcomes(core, dict.fromkeys(mapped + rest), *args)
                for batch in (mapped, mapped + rest):
                    assert outcome(lambda: core(batch, *args)) == one_by_one(
                        lone, core, batch, *args
                    ), (core.__name__, n, ratio, args)


def test_an_empty_batch_maps_to_nothing_but_is_refused_below_p_plus_q():
    # a core refuses the map at n before it reads any member, so an empty
    # batch is refused exactly where a lone call is, with the same text
    lone = FiniteSet([1])  # below p + q the map refuses before it looks
    for p, q in [(p, q) for p in range(1, 4) for q in range(1, 4)]:
        ratio = Ratio(p, q)
        for n in range(13):
            maps = [
                (strip_window, _strip, (ratio, n)),
                (attach_window, _attach, (ratio, n)),
            ]
            for size in range(1, q + 1) if n > q else ():
                for chosen in combinations(gap_window(n, ratio), size):
                    gaps = (GapSet(n, ratio, chosen),)
                    maps += [(collapse_gaps, _collapse, gaps), (expand_gaps, _expand, gaps)]
            for public, core, args in maps:
                empty = outcome(lambda: core([], *args))
                if n >= p + q:
                    assert empty == [], (core.__name__, n, ratio, args)
                else:
                    message = f"map needs n >= p + q = {p + q}, got n={n}"
                    assert empty == outcome(lambda: public(lone, *args)), (core, n, ratio)
                    assert empty == (DomainError, message)


# Random-grid roundtrip: any family member avoiding the gaps must survive
# collapse/expand unchanged, and every non-avoider must be rejected.
grid = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=8),
)


@given(grid, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_collapse_expand_roundtrip(params, rng):
    p, q, extra = params
    n = p + q + extra
    ratio = Ratio(p, q)
    window = gap_window(n, ratio)
    chosen = rng.sample(window, rng.randint(1, len(window)))
    gaps = GapSet(n, ratio, chosen)
    for fs in enumerate_schreier(n, ratio):
        if set(fs) & set(chosen):
            with pytest.raises(DomainError):
                collapse_gaps(fs, gaps)
        else:
            assert expand_gaps(collapse_gaps(fs, gaps), gaps) == fs


@given(grid)
@settings(max_examples=60, deadline=None)
def test_strip_attach_roundtrip(params):
    p, q, extra = params
    n = p + q + extra
    ratio = Ratio(p, q)
    window = gap_window(n, ratio)
    for fs in enumerate_schreier(n, ratio):
        if all(w in fs for w in window):
            assert attach_window(strip_window(fs, ratio, n), ratio, n) == fs
        else:
            with pytest.raises(DomainError):
                strip_window(fs, ratio, n)

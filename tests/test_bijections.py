"""The structure-preserving maps, exercised as maps and as bijections."""

import re
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schreier.bijections
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
    with pytest.raises(ValueError):
        gap_window(2, Ratio(1, 2))  # window would dip below 1


@pytest.mark.parametrize("n", [2.5, True, -1])
def test_gap_window_refuses_an_n_that_is_not_a_non_negative_int(n):
    message = f"n must be a non-negative integer, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gap_window(n, Ratio(1, 1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GapSet(n, Ratio(1, 1), [1])


def test_gap_window_names_the_window_for_every_int_n_below_it():
    for n in range(3):
        message = f"window needs n >= q + 1, got n={n} with q=2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gap_window(n, Ratio(1, 2))


def test_gapset_validation():
    gaps = GapSet(6, Ratio(1, 3), [5, 3])
    assert gaps.members == (3, 5)
    assert len(gaps) == 2
    with pytest.raises(ValueError):
        GapSet(6, Ratio(1, 3), [])
    with pytest.raises(ValueError):
        GapSet(6, Ratio(1, 3), [6])  # n itself is not in the window
    with pytest.raises(ValueError):
        GapSet(6, Ratio(1, 1), [3])  # window for q=1 is just {5}
    # 3.0 == 3 and True == 1 would pass the window test; only ints are gap values
    for n, members, bad in [(5, [3.0], "3.0"), (3, [True], "True"), (5, [3, 3.0], "3.0")]:
        with pytest.raises(TypeError, match=f"^gap values must be integers, got {bad}$"):
            GapSet(n, Ratio(1, 2), members)


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


def refused(message):
    """pytest.raises for a DomainError whose text is exactly ``message``."""
    return pytest.raises(DomainError, match=f"^{re.escape(message)}$")


@contextmanager
def not_an_n(n):
    """pytest.raises for the plain ValueError that refuses ``n`` as a map's n."""
    message = f"n must be a non-negative integer, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
        yield
    assert type(excinfo.value) is ValueError


def test_collapse_rejects_sets_outside_the_domain():
    gaps = GapSet(4, Ratio(1, 2), [3])
    with pytest.raises(DomainError, match=r"^\{3,4\} meets the gaps at \[3\]$"):
        collapse_gaps(FiniteSet([3, 4]), gaps)
    two_gaps = GapSet(9, Ratio(1, 3), [8, 6])
    for members, collision in [([6, 8, 9], "[6, 8]"), ([1, 8, 9], "[8]")]:
        fs = FiniteSet(members)
        with pytest.raises(DomainError) as excinfo:
            collapse_gaps(fs, two_gaps)
        assert str(excinfo.value) == f"{fs} meets the gaps at {collision}"
    with refused("{1,2,4} is not a member of the family at n=4 for 1/2"):
        collapse_gaps(FiniteSet([1, 2, 4]), gaps)  # fails the family inequality
    with refused("{2,3} is not a member of the family at n=4 for 1/2"):
        collapse_gaps(FiniteSet([2, 3]), gaps)  # wrong maximum


def test_expand_rejects_non_members():
    gaps = GapSet(4, Ratio(1, 2), [3])
    with refused("{1,2,3} is not a member of the family at n=3 for 1/2"):
        expand_gaps(FiniteSet([1, 2, 3]), gaps)


def test_strip_and_attach_known_pairs():
    assert strip_window(FiniteSet([2, 3]), Ratio(1, 1), 3) == FiniteSet([1])
    assert strip_window(FiniteSet([2, 3, 4]), Ratio(1, 2), 4) == FiniteSet([1])
    assert attach_window(FiniteSet([1]), Ratio(1, 1), 3) == FiniteSet([2, 3])
    assert attach_window(FiniteSet([1]), Ratio(1, 2), 4) == FiniteSet([2, 3, 4])
    assert attach_window(FiniteSet([2]), Ratio(1, 1), 4) == FiniteSet([3, 4])


def test_strip_rejects_non_members_and_window_misses():
    # {3,4} fails 1*3 >= 2*2, so it is not in the family at all.
    with refused("{3,4} is not a member of the family at n=4 for 2/1"):
        strip_window(FiniteSet([3, 4]), Ratio(2, 1), 4)
    # member of the family, but 3 from the window {3,4} is missing
    with refused("{2,4,5} misses window values [3]"):
        strip_window(FiniteSet([2, 4, 5]), Ratio(1, 2), 5)
    with refused("map needs n >= p + q = 2, got n=1"):
        strip_window(FiniteSet([1]), Ratio(1, 1), 1)
    for n in (3.0, True):
        with not_an_n(n):
            strip_window(FiniteSet([2, 3]), Ratio(1, 1), n)


def test_attach_rejects_non_members():
    with refused("{1,2} is not a member of the family at n=2 for 1/1"):
        attach_window(FiniteSet([1, 2]), Ratio(1, 1), 4)
    with refused("{1} is not a member of the family at n=0 for 1/1"):
        attach_window(FiniteSet([1]), Ratio(1, 1), 2)  # no room below n = p + q
    for n in (3.0, True):
        with not_an_n(n):
            attach_window(FiniteSet([1]), Ratio(1, 1), n)


@pytest.mark.parametrize(
    "name, broken, call, message",
    [
        (
            "bisect_left",
            lambda a, x: 0,
            lambda: collapse_gaps(FiniteSet([2, 4]), GapSet(4, Ratio(1, 2), [3])),
            "relabeling broke membership: {2,4} -> {2,4} at n=3",
        ),
        (
            "bisect_right",
            lambda a, x: 0,
            lambda: expand_gaps(FiniteSet([2, 3]), GapSet(4, Ratio(1, 2), [3])),
            "re-opening gaps produced a non-member: {2,3} -> {2,3}",
        ),
        (
            "gap_window",
            lambda n, ratio: (),
            lambda: strip_window(FiniteSet([2, 4, 5]), Ratio(1, 2), 5),
            "window strip broke membership: {2,4,5} -> {1} at n=2",
        ),
        (
            "gap_window",
            lambda n, ratio: (0,),
            lambda: attach_window(FiniteSet([1]), Ratio(1, 1), 3),
            "window attach produced a non-member: {1} -> {2,3}",
        ),
    ],
    ids=["collapse", "expand", "strip", "attach"],
)
def test_a_broken_postcondition_raises_runtime_error(
    monkeypatch, name, broken, call, message
):
    # a failed postcondition is a bug in the map, not bad input
    monkeypatch.setattr(schreier.bijections, name, broken)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$") as excinfo:
        call()
    assert type(excinfo.value) is RuntimeError


def outcome(call):
    """What ``call`` returns, or the type and text of the map error it raises."""
    try:
        return call()
    except (DomainError, RuntimeError) as error:
        return type(error), str(error)


def agree(public, core, elements, *args):
    """The public map on FiniteSet(elements) and its core on [elements] end alike."""
    return outcome(lambda: public(FiniteSet(elements), *args).elements) == outcome(
        lambda: core([elements], *args)[0]
    )


def test_public_maps_are_their_cores_on_finitesets():
    # every member of the grid, every gap choice: accepted or refused alike
    for p, q in [(p, q) for p in range(1, 4) for q in range(1, 4)]:
        ratio = Ratio(p, q)
        by_n = [[fs.elements for fs in enumerate_schreier(n, ratio)] for n in range(15)]
        for n in range(p + q, 15):
            assert all(agree(strip_window, _strip, t, ratio, n) for t in by_n[n])
            below = by_n[n - p - q]
            assert all(agree(attach_window, _attach, t, ratio, n) for t in below)
            for size in range(1, q + 1):
                for chosen in combinations(gap_window(n, ratio), size):
                    gaps = GapSet(n, ratio, chosen)
                    above, below = by_n[n], by_n[n - size]
                    assert all(agree(collapse_gaps, _collapse, t, gaps) for t in above)
                    assert all(agree(expand_gaps, _expand, t, gaps) for t in below)


def one_by_one(core, batch, *args):
    """What ``core`` must give on ``batch``: the lone images, or the first lone refusal.

    An empty batch makes no lone call: below n = p + q it gets the map's refusal.
    """
    ratio, n = (args[0].ratio, args[0].n) if core in (_collapse, _expand) else args
    if not batch and n < ratio.p + ratio.q:
        return DomainError, f"map needs n >= p + q = {ratio.p + ratio.q}, got n={n}"
    images = []
    for t in batch:
        result = outcome(lambda: core([t], *args))
        if type(result) is not list:
            return result
        images += result
    return images


def batches(n, ratio, by_n):
    """(core, batch, args) for every core at n, on listed members.

    Each core gets a batch of members it maps, and the same batch followed
    by the family at n, whose first non-holder, gap hitter or member (for
    attach and expand) it refuses; below n = p + q it refuses any batch.
    """
    p, q = ratio.p, ratio.q
    here, below = by_n[n], by_n[max(n - p - q, 0)]
    window = gap_window(n, ratio) if n > q else ()
    holders = [t for t in here if set(window) <= set(t)]
    yield _strip, holders, (ratio, n)
    yield _strip, holders + here, (ratio, n)
    yield _attach, below, (ratio, n)
    yield _attach, below + here, (ratio, n)
    for size in range(1, len(window) + 1):
        for chosen in combinations(window, size):
            gaps = GapSet(n, ratio, chosen)
            avoiders = [t for t in here if set(chosen).isdisjoint(t)]
            yield _collapse, avoiders, (gaps,)
            yield _collapse, avoiders + here, (gaps,)
            yield _expand, by_n[n - size], (gaps,)
            yield _expand, by_n[n - size] + here, (gaps,)


def test_a_batch_maps_as_its_members_do_one_by_one():
    # the images of the members in order; or, where one is refused, the
    # type and text that a lone call on that member raises
    for p, q in [(p, q) for p in range(1, 4) for q in range(1, 4)]:
        ratio = Ratio(p, q)
        by_n = [list(_members(n, ratio)) for n in range(13)]
        for n in range(1, 13):
            for core, batch, args in batches(n, ratio, by_n):
                assert outcome(lambda: core(batch, *args)) == one_by_one(
                    core, batch, *args
                ), (core.__name__, n, ratio, args)


def test_a_batch_fails_as_its_first_refused_member_does():
    gaps = GapSet(9, Ratio(1, 3), [8, 6])
    batch = [(3, 9), (1, 8, 9), (4, 7, 9), (6, 8, 9)]  # the second meets gap 8
    message = "{1,8,9} meets the gaps at [8]"
    assert outcome(lambda: _collapse(batch, gaps)) == (DomainError, message)
    assert outcome(lambda: _collapse(batch[1:2], gaps)) == (DomainError, message)
    batch = [(3,), (2, 3), (1, 3)]  # the third is no member at n = 3
    message = "{1,3} is not a member of the family at n=3 for 1/1"
    assert outcome(lambda: _attach(batch, Ratio(1, 1), 5)) == (DomainError, message)
    assert outcome(lambda: _attach(batch[2:], Ratio(1, 1), 5)) == (DomainError, message)


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

"""The meet-in-the-middle count behind check 9, against brute force.

The bundled cells certify every nonzero vector, so only random cells that
straddle zero exercise the ambiguous path.
"""

from itertools import product

from hypothesis import example, given, settings, strategies as st

from realcert.checklist import _sign_counts

COEFFS = (-2, -1, 0, 1, 2)


def brute_counts(cells):
    counts = {"nonzero": 0, "certified": 0, "ambiguous": 0}
    for vector in product(COEFFS, repeat=len(cells)):
        if not any(vector):
            continue
        lo = sum(k * (c_lo if k >= 0 else c_hi) for k, (c_lo, c_hi) in zip(vector, cells))
        hi = sum(k * (c_hi if k >= 0 else c_lo) for k, (c_lo, c_hi) in zip(vector, cells))
        counts["nonzero"] += 1
        counts["certified" if hi < 0 or lo > 0 else "ambiguous"] += 1
    return counts


cells_st = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1, max_size=5)


@given(cells_st)
@example([(-1, 1)])          # every nonzero vector straddles 0
@example([(1, 1), (1, 1)])   # k and -k cancel to exactly [0, 0]
@settings(max_examples=150, deadline=None)
def test_sign_counts_match_brute_force(cells):
    assert _sign_counts(cells) == brute_counts(cells)

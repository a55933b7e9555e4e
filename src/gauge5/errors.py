"""Shared exception types, and the one bound on how much an answer lists.

HypothesisError: a mathematical hypothesis of the requested statement fails
(wrong parity of c, missing spin structure, parameter out of a stated range).
The message always names the failed condition.

CatalogError: the Lie catalog has no row covering the request.

require_listable: the one check that an answer lists at most LISTED_BOUND
summands or generators, made before the answer is built.
"""

LISTED_BOUND = 10**6


class HypothesisError(ValueError):
    pass


class CatalogError(ValueError):
    pass


def require_listable(count: int) -> None:
    """Refuse, with one ValueError naming the bound, an answer that would print
    more than LISTED_BOUND torsion summands, wedge summands or generators."""
    if count > LISTED_BOUND:
        raise ValueError(
            f"the answer would list {count} summands or generators; the bound is {LISTED_BOUND}"
        )

"""LinearMap helpers shared by the tests: a map by its rows, and a composite of maps."""

from homtwist.exact import LinearMap, compose


def lmap(rows):
    """The LinearMap of the matrix with these rows."""
    return LinearMap.from_rows(rows)


def flat(f):
    """`f` as a map between single factors, as its matrix reads."""
    rows, cols = f.shape
    return f.reshaped((cols,), (rows,))


def composite(*maps):
    """The map of applying `maps` in turn, the first one first, tabulated by compose."""
    return compose([(flat(f), 0) for f in maps], (maps[0].shape[1],))

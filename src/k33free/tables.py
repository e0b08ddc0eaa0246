"""Reference census values for K3,3-free latin rectangles.

``expected(m, n)`` gives each tabulated shape's main-class count, its
isotopy-class count and its number of labeled K3,3-free m-by-n
rectangles, the last two None where unpublished.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CensusCell:
    m: int
    n: int
    main: int
    iso: int | None  # isotopy classes; None where unpublished
    total: int | None  # labeled count; None where unpublished

    def agrees(self, main: int, iso: int, total: int) -> bool:
        """Whether computed counts match the cell; an unpublished value matches any."""
        return all(
            want is None or got == want
            for got, want in zip((main, iso, total), (self.main, self.iso, self.total))
        )


# (m, n) -> (main, iso-or-None, total-or-None)
_DATA: dict[tuple[int, int], tuple[int, int | None, int | None]] = {
    (3, 3): (0, 0, 0),
    (3, 4): (0, 0, 0),
    (3, 5): (1, 1, 14400),
    (3, 6): (4, 4, 3110400),
    (3, 7): (12, 15, 1270080000),
    (3, 8): (67, 92, 622644019200),
    (3, 9): (418, 692, 496045696204800),
    (3, 10): (3871, 7067, 535089377894400000),
    (3, 11): (41085, 79254, 750438010707517440000),
    (3, 12): (500842, None, 1353254582337359708160000),
    (4, 4): (0, 0, 0),
    (4, 5): (1, 1, 28800),
    (4, 6): (5, 6, 12441600),
    (4, 7): (15, 24, 10059033600),
    (4, 8): (412, 701, 20105061580800),
    (4, 9): (21493, 42127, 129602900651212800),
    (4, 10): (2365871, 4719624, 1484846226391449600000),
    (4, 11): (319053308, 637928108, 24386762038751602237440000),
    (5, 5): (0, 0, 0),
    (5, 6): (0, 0, 0),
    (5, 7): (3, 5, 6706022400),
    (5, 8): (100, 139, 17273088000000),
    (5, 9): (13123, 25492, 395432827969536000),
    (5, 10): (12140467, 24247157, 38270332174899363840000),
    (5, 11): (17661934154, 35322291492, 6753604569381729842872320000),
    (6, 6): (0, 0, 0),
    (6, 7): (0, 0, 0),
    (6, 8): (19, 25, 3267661824000),
    (6, 9): (134, 254, 16981697101824000),
    (6, 10): (388165, 772702, 7179764880140697600000),
    (6, 11): (2846897941, 5693554556, 6531249036579810688696320000),
    (7, 7): (0, 0, 0),
    (7, 8): (3, 4, 2048385024000),
    (7, 9): (5, 8, 1769804660736000),
    (7, 10): (17121, 33571, 2107042044967157760000),
    (7, 11): (1766681, 3526719, 28299772584317096755200000),
    (8, 8): (2, 4, 2048385024000),
    (8, 9): (1, 1, 663676747776000),
    (8, 10): (2036, 3867, 1746637917726965760000),
    (8, 11): (192, 352, 21452112008596684800000),
    (9, 9): (0, 0, 0),
    (9, 10): (0, 0, 0),
    (9, 11): (0, 0, 0),
}


def expected(m: int, n: int) -> CensusCell | None:
    """The reference cell, if the shape is tabulated (3 <= m <= n)."""
    counts = _DATA.get((m, n))
    return None if counts is None else CensusCell(m, n, *counts)

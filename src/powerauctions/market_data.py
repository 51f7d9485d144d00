"""Data model and CSV ingestion for spot prices, futures series, auctions and costs.

All domain objects are immutable after construction and validate their own
invariants, so loaders only have to parse and hand over. CSV files are UTF-8
with a header row, ISO-8601 dates and "." as decimal separator. Every CSV
table the package reads or writes, the command line's inputs included, goes
through the one table codec in this module.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import InitVar, dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

OMEL_ZONES = frozenset({"ES"})
PJM_ZONES = frozenset({"ACE", "JCPL", "PSEG", "RECO"})
MARKET_ZONES = {"OMEL": OMEL_ZONES, "PJM": PJM_ZONES}
MARKET_CURRENCY = {"OMEL": "EUR", "PJM": "USD"}
# CESUR sells fixed-quantity contracts, PJM-BGS full-requirements ones
MARKET_PRODUCT_KIND = {"OMEL": "fixed_quantity", "PJM": "full_requirements"}

LOAD_SHAPES = ("baseload", "peak", "offpeak")
PRODUCT_KINDS = ("fixed_quantity", "full_requirements")

class MarketDataError(ValueError):
    """Invalid market data: malformed file, broken invariant or bad value."""


class AuctionError(RuntimeError):
    """Auction cannot proceed: bad configuration or no feasible close."""


@dataclass(frozen=True)
class MarketZone:
    market: str
    zone: str

    def __post_init__(self):
        if self.market not in MARKET_ZONES:
            raise MarketDataError(f"unknown market {self.market!r}")
        if self.zone not in MARKET_ZONES[self.market]:
            raise MarketDataError(
                f"zone {self.zone!r} does not belong to market {self.market!r}"
            )

    @property
    def currency(self) -> str:
        return MARKET_CURRENCY[self.market]


@dataclass(frozen=True)
class DeliveryPeriod:
    start: date
    end: date  # inclusive
    load_shape: str = "baseload"

    def __post_init__(self):
        if self.start > self.end:
            raise MarketDataError(f"delivery start {self.start} after end {self.end}")
        if self.load_shape not in LOAD_SHAPES:
            raise MarketDataError(f"unknown load shape {self.load_shape!r}")

    def days(self) -> list[date]:
        return [date.fromordinal(o) for o in range(self.start.toordinal(), self.end.toordinal() + 1)]


def _date_index(dates, what: str, ordinals=None) -> np.ndarray:
    """The read-only ``date.toordinal()`` index of strictly increasing ``dates``.

    ``ordinals``, when given, must be that index already (contracts on one
    calendar share one); only its length, ends and order are checked. A
    duplicate or decreasing date raises, naming the first offending pair.
    """
    if ordinals is None:
        ordinals = np.fromiter((d.toordinal() for d in dates), dtype=np.int64, count=len(dates))
    elif len(ordinals) != len(dates) or (len(dates) and (
            ordinals[0] != dates[0].toordinal() or ordinals[-1] != dates[-1].toordinal())):
        raise MarketDataError(f"date index does not match the dates of {what}")
    bad = np.flatnonzero(np.diff(ordinals) <= 0)
    if bad.size:
        prev, d = dates[bad[0]], dates[bad[0] + 1]
        if d == prev:
            raise MarketDataError(f"duplicate date {d} in {what}")
        raise MarketDataError(f"non-monotone dates in {what}: {d} after {prev}")
    ordinals.setflags(write=False)
    return ordinals


@dataclass(frozen=True, eq=False)
class SpotPriceSeries:
    zone: MarketZone
    dates: tuple[date, ...]
    prices: np.ndarray
    ordinals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dates) != len(self.prices):
            raise MarketDataError("dates and prices length mismatch")
        object.__setattr__(self, "ordinals", _date_index(self.dates, "spot series"))
        prices = np.asarray(self.prices, dtype=float)
        if prices.size and not np.all(np.isfinite(prices)):
            raise MarketDataError("non-finite spot price")
        object.__setattr__(self, "prices", prices)
        prices.setflags(write=False)

    def __len__(self) -> int:
        return len(self.dates)

    def price_on(self, day: date) -> float:
        ordinal = day.toordinal()
        i = int(np.searchsorted(self.ordinals, ordinal))
        if i == len(self) or self.ordinals[i] != ordinal:
            raise MarketDataError(f"no spot price for {day}")
        return float(self.prices[i])

    def _period_slice(self, period: DeliveryPeriod) -> tuple[slice, int, date | None]:
        """Positions of ``period``'s days, with the count and first of those missing."""
        first, last = period.start.toordinal(), period.end.toordinal()
        lo, hi = np.searchsorted(self.ordinals, (first, last + 1)).tolist()
        missing = last + 1 - first - (hi - lo)
        if not missing:
            return slice(lo, hi), 0, None
        # held days are increasing from offset 0, so the first gap is where
        # the i-th held day is not the i-th day of the period
        gaps = np.flatnonzero(self.ordinals[lo:hi] - first != np.arange(hi - lo))
        return slice(lo, hi), missing, date.fromordinal(
            first + int(gaps[0] if gaps.size else hi - lo))


@dataclass(frozen=True, eq=False)
class FuturesContractSeries:
    contract_id: str
    zone: MarketZone
    dates: tuple[date, ...]
    settle: np.ndarray
    volume: np.ndarray
    open_interest: np.ndarray
    ordinals: np.ndarray = field(init=False, repr=False)
    index: InitVar[np.ndarray | None] = None  # the dates' ordinals, if already built

    def __post_init__(self, index):
        n = len(self.dates)
        arrays = {}
        for name in ("settle", "volume", "open_interest"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if len(arr) != n:
                raise MarketDataError(f"{name} length mismatch in {self.contract_id}")
            if arr.size and not np.all(np.isfinite(arr)):
                raise MarketDataError(f"non-finite {name} in {self.contract_id}")
            arrays[name] = arr
        object.__setattr__(self, "ordinals",
                           _date_index(self.dates, f"futures {self.contract_id}", index))
        if np.any(arrays["volume"] < 0):
            raise MarketDataError(f"negative volume in {self.contract_id}")
        if np.any(arrays["open_interest"] < 0):
            raise MarketDataError(f"negative open interest in {self.contract_id}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class AuctionRecord:
    market: str
    auction_id: int
    auction_date: date
    product_id: str
    delivery: DeliveryPeriod
    clearing_price: float
    quantity: float
    product_kind: str
    start_bidders: int
    winning_bidders: int
    rounds: int

    def __post_init__(self):
        if self.market not in MARKET_ZONES:
            raise MarketDataError(f"unknown market {self.market!r}")
        if self.product_kind not in PRODUCT_KINDS:
            raise MarketDataError(f"unknown product kind {self.product_kind!r}")
        if self.product_kind != MARKET_PRODUCT_KIND[self.market]:
            raise MarketDataError(
                f"market {self.market} expects product kind {MARKET_PRODUCT_KIND[self.market]}")
        if self.clearing_price <= 0:
            raise MarketDataError(f"clearing price must be positive, got {self.clearing_price}")
        if not (self.start_bidders >= self.winning_bidders >= 1):
            raise MarketDataError(
                f"bidder counts inconsistent: start {self.start_bidders}, winning {self.winning_bidders}"
            )
        if self.auction_date >= self.delivery.start:
            raise MarketDataError(
                f"auction date {self.auction_date} not before delivery start {self.delivery.start}"
            )


@dataclass(frozen=True)
class CostComponents:
    zone: MarketZone
    year: int
    unit_cost: float  # capacity + transmission + ancillary services, per MWh

    def __post_init__(self):
        if self.unit_cost < 0:
            raise MarketDataError(f"unit cost must be non-negative, got {self.unit_cost}")


# --- table codec -------------------------------------------------------------
#
# A column kind is a (parse, format) pair and a table is its header plus one
# kind per column. Every CSV file the package reads or writes is one of the
# tables below and goes through _read_table and _write_table.


def _finite_float(text: str) -> float:
    """A float cell; nan, inf and -inf are rejected like any unparseable cell."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


_TEXT = (str, str)
_DATE = (date.fromisoformat, date.isoformat)
_FLOAT = (_finite_float, lambda x: repr(float(x)))
_INT = (int, str)
_FLAG = (lambda text: bool(("0", "1").index(text)), lambda flag: str(int(flag)))


def _fixed(spec: str):
    """A float written as ``format(x, spec)``; None is a blank cell."""
    return (lambda text: float(text) if text else None,
            lambda x: "" if x is None else format(x, spec))


def _multi(kind):
    """A ";"-separated list of values of ``kind`` in one cell."""
    parse, fmt = kind
    return (lambda text: tuple(parse(part.strip()) for part in text.split(";")),
            lambda values: ";".join(fmt(v) for v in values))


# The codec's own types are plain classes: every process that imports this
# module would otherwise pay about a millisecond per dataclass built.
class _Table:
    """Column name -> kind, in header order.

    The last ``optional`` columns may be absent from a file's header; its
    rows then hold one field per column the header names.
    """
    __slots__ = ("columns", "optional")

    def __init__(self, columns: dict, optional: int = 0):
        self.columns, self.optional = columns, optional


_SPOT = _Table({"market": _TEXT, "zone": _TEXT, "date": _DATE, "price": _FLOAT})
_FUTURES = _Table({"contract_id": _TEXT, "market": _TEXT, "zone": _TEXT, "date": _DATE,
                   "settle": _FLOAT, "volume": _FLOAT, "open_interest": _FLOAT})
_AUCTIONS = _Table({
    "market": _TEXT, "auction_id": _INT, "auction_date": _DATE,
    "product_id": _multi(_TEXT), "delivery_start": _multi(_DATE),
    "delivery_end": _multi(_DATE), "load_shape": _multi(_TEXT), "product_kind": _TEXT,
    "clearing_price": _multi(_FLOAT), "quantity": _multi(_FLOAT),
    "start_bidders": _INT, "winning_bidders": _INT, "rounds": _INT,
})
_COSTS = _Table({"market": _TEXT, "zone": _TEXT, "year": _INT, "unit_cost": _FLOAT})
# tables only the command line reads
_FMPI = _Table({"market": _TEXT, "key": _TEXT, "fmpi": _FLOAT})
_AVERAGES = _Table({"market": _TEXT, "zone": _TEXT, "year": _INT, "avg_price": _FLOAT})
_STRIP_PRICES = _Table({"month": _TEXT, "price": _FLOAT})
_PANEL = _Table({"unit": _TEXT, "period": _INT, "y": _FLOAT, "vol3y": _FLOAT,
                 "startbidders": _FLOAT, "wbidders": _FLOAT, "pls": _FLOAT}, optional=1)
_EVENTS = _Table({"date": _DATE})
# artifacts only the command line writes
_PREMIUMS = _Table({"auction_ref": _TEXT, "group": _TEXT, "auction_price": _fixed(".4f"),
                    "spot_avg": _fixed(".4f"), "costs": _fixed(".4f"),
                    "premium": _fixed(".4f"), "premium_pct": _fixed(".6f"),
                    "fmpi": _fixed(".4f"), "fmpi_premium": _fixed(".4f"),
                    "fmpi_premium_pct": _fixed(".6f")})
_ACTIVITY = _Table({"contract_id": _TEXT, "measure": _TEXT, "date": _DATE,
                    "value": _fixed(".10g"), "defined": _FLAG})
_EVENT_STUDY = _Table({"offset": _INT, "t_stat": _fixed(".10g"), "sig01": _FLAG,
                       "sig05": _FLAG})


class _Coded:
    """A column of repeated values: row i holds ``values[codes[i]]``.

    _read_table gives every column that is not _FLOAT as one: its codes
    number the column's distinct stripped cells 0, 1, ... as first seen, so
    equal codes mean equal values, and in a _TEXT column, whose value is the
    stripped cell, equal values mean equal codes. _write_table formats each
    of the values once. Like a numpy array, it is cut by a slice or an index
    array and read by item and tolist.
    """
    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: list):
        self.codes, self.values = codes, values

    def __getitem__(self, rows) -> _Coded:
        return _Coded(self.codes[rows], self.values)

    def item(self, i: int):
        return self.values[self.codes[i]]

    def tolist(self) -> list:
        return list(map(self.values.__getitem__, self.codes.tolist()))


def _repeated(value, n: int) -> _Coded:
    """A column of ``n`` rows that all hold ``value``."""
    return _Coded(np.zeros(n, dtype=np.int64), [value])


def _coder(parse):
    """A function from a stripped cell to its code, and the list of the codes' values.

    Each distinct cell is parsed once, when first seen; a cell ``parse``
    rejects raises its ValueError and gets no code.
    """
    codes, values = {}, []

    def code(text: str) -> int:
        if text not in codes:
            values.append(parse(text))
            codes[text] = len(codes)
        return codes[text]
    return code, values


class _Rows:
    """A parsed table: the file line of each row and one column per table column.

    A _FLOAT column is a float64 array, every other column a _Coded. As a
    sequence it holds (line number, row) pairs, floats as Python floats.
    """
    __slots__ = ("linenos", "columns")

    def __init__(self, linenos: Sequence[int], columns: list):
        self.linenos, self.columns = linenos, columns

    def __len__(self) -> int:
        return len(self.linenos)

    def __iter__(self):
        return zip(self.linenos, zip(*(c.tolist() for c in self.columns)))

    def __getitem__(self, i: int):
        return self.linenos[i], tuple(c.item(i) for c in self.columns)


def _read_text(path, newline=None) -> str:
    """The whole of a UTF-8 file; a file that is not UTF-8 is a data error naming it."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MarketDataError(f"{path}: {exc}") from None


def _header_fits(header: list, table: _Table) -> bool:
    """Whether stripped ``header`` names ``table``'s columns, the optional ones aside."""
    names = list(table.columns)
    return len(header) >= len(names) - table.optional and header == names[:len(header)]


_CSV_FIELD_LIMIT = 131072  # the csv module's default field_size_limit()
_KEY_BYTES = 32  # the longest non-float cell, in UTF-8 bytes, given a byte key
# masks of a little-endian word: its low n bytes, and bytes 4 and 7
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_BYTE_4, _BYTE_7 = np.uint64(0xFF << 32), np.uint64(0xFF << 56)
_DATE_DASHES = np.uint64(int.from_bytes(b"\0\0\0\0-\0\0-", "little"))


def _parse_columns(text: str, table: _Table) -> _Rows | None:
    """Parse CSV ``text`` of ``table`` column by column, or None if it cannot.

    This gives what _read_table's per-cell loop gives, and so it declines
    (None) every file that loop treats specially: one with a quote, a lone
    carriage return, a blank row, a line the csv module would refuse as too
    long, a header that does not match, a row of the wrong width or a cell
    its column's kind rejects. Cells are found among the commas and line
    breaks of the UTF-8 bytes, where no multi-byte sequence holds either.
    Float columns are parsed by one np.loadtxt, which accepts a subset of
    what float() does and gives the same value, so a non-finite value is the
    one further check; every other column is coded by _code_cells.
    """
    if '"' in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    header = [h.strip() for h in text[:text.index("\n")].split(",")]
    if not _header_fits(header, table):
        return None
    width = len(header)
    # padded so that _cell_keys can read a cell's words past the last line
    raw = text.encode() + bytes(_KEY_BYTES)
    data = np.frombuffer(raw, dtype=np.uint8)
    at = data == ord(",")
    at |= data == ord("\n")
    seps = np.flatnonzero(at)
    del at
    if len(seps) % width:
        return None
    seps = seps.reshape(-1, width)  # where each field of each line ends
    line_break = data[seps] == ord("\n")
    if not line_break[:, -1].all() or line_break[:, :-1].any():
        return None
    # a carriage return may only end a line; the line's last cell keeps it and strips it
    line_cr = data[seps[:, -1] - 1] == ord("\r")
    if np.count_nonzero(data == ord("\r")) != np.count_nonzero(line_cr):
        return None
    if np.diff(seps[:, -1], prepend=-1).max() > _CSV_FIELD_LIMIT + 1:  # + 1: the line break
        return None
    n = len(seps) - 1
    kinds = list(table.columns.values())[:width]
    floats = [j for j, kind in enumerate(kinds) if kind is _FLOAT]
    columns = [np.empty(0)] * width
    try:
        if floats and n:
            values = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, max_rows=n,
                                usecols=floats, comments=None, ndmin=2, encoding="utf-8")
            if len(values) != n or not np.isfinite(values).all():
                return None
            for j, column in zip(floats, values.T):
                columns[j] = column
    except ValueError:
        return None
    # a row is blank when every cell strips to empty; np.loadtxt rejects
    # such a float cell, so only a table without float columns can hold one
    blank = np.full(n, not floats)
    for j, kind in enumerate(kinds):
        if kind is not _FLOAT:
            starts = (seps[:-1, -1] if j == 0 else seps[1:, j - 1]) + 1
            coded = _code_cells(data, starts, seps[1:, j], kind[0])
            if coded is None:
                return None
            columns[j], empty = coded
            blank &= empty
    if blank.any():
        return None
    return _Rows(range(2, n + 2), columns)


def _code_cells(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                parse) -> tuple[_Coded, np.ndarray] | None:
    """The cells ``data[starts[i]:ends[i]]`` coded as _coder(parse) codes them, and
    which of them strip to empty; None if ``parse`` rejects one.

    Each cell gets an integer key (_cell_keys), and the first cell of each
    distinct key is decoded, stripped and coded once, in the order first
    seen, so the codes and values are those the per-cell loop gives. In a
    column with a cell longer than _KEY_BYTES, every cell is its own key.
    """
    sizes = ends - starts
    if len(sizes) and sizes.max() > _KEY_BYTES:
        first = distinct = np.arange(len(sizes))
    else:
        first, distinct = _first_seen(_cell_keys(data, starts, sizes))
    cells = [data[i:j].tobytes().decode().strip()
             for i, j in zip(starts[first].tolist(), ends[first].tolist())]
    code, values = _coder(parse)
    try:
        codes = np.array([code(cell) for cell in cells], dtype=np.int64)
    except ValueError:
        return None
    empty = np.array([not cell for cell in cells], dtype=bool)
    return _Coded(codes[distinct], values), empty[distinct]


def _cell_keys(data: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """One row of integers per cell ``data[starts[i]:starts[i] + sizes[i]]``,
    equal for cells of equal bytes.

    A YYYY-MM-DD shaped cell (10 bytes, "-" at bytes 4 and 7), when every
    cell of the column has that shape, gets one word: its other 8 bytes.
    Any other cell gets its 8-byte words, the bytes past its end zeroed, and
    its length. ``data`` must hold _KEY_BYTES bytes past the last cell.
    """
    # the little-endian 8-byte word at each byte offset
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    if len(sizes) and np.all(sizes == 10):
        head, tail = words[starts], words[starts + 2]  # bytes 0-7 and 2-9
        if np.all(head & (_BYTE_4 | _BYTE_7) == _DATE_DASHES):
            # bytes 8 and 9 take the places of the dashes
            return (head & ~(_BYTE_4 | _BYTE_7) | tail >> 16 & _BYTE_4 | tail & _BYTE_7)[:, None]
    n_words = max(1, -(-int(sizes.max(initial=0)) // 8))
    keys = np.empty((len(starts), n_words + 1), dtype=np.uint64)
    for w in range(n_words):
        keys[:, w] = words[starts + 8 * w] & _LOW_BYTES[np.clip(sizes - 8 * w, 0, 8)]
    keys[:, -1] = sizes
    return keys


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of ``keys``, in row order, and each
    row's number among them: 0, 1, ... as first seen.

    Only the first row of each run of equal rows is sorted.
    """
    new_run = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=new_run[1:])
    heads = np.flatnonzero(new_run)
    keys = keys[heads]
    order = np.lexsort(keys.T)  # stable, so each key's rows stay in row order
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    first = order[new]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    codes = np.empty_like(order)
    codes[order] = rank[np.cumsum(new) - 1]
    return heads[np.sort(first)], codes[np.cumsum(new_run) - 1]


def _read_table(path, table: _Table) -> _Rows:
    """Parse a CSV file of ``table``.

    The stripped header must equal the table's column names. Blank rows are
    skipped; every other row needs one field per header column, and each
    stripped cell is parsed by its column's kind. Most files parse column by
    column (_parse_columns); the rest go through the csv module row by row,
    which also words every error.
    """
    text = _read_text(path, newline="")
    rows = _parse_columns(text, table)
    if rows is None:
        names = list(table.columns)
        reader = enumerate(csv.reader(io.StringIO(text, newline="")), start=1)
        lineno = 0
        try:
            lineno, header = next(reader, (1, []))
            header = [h.strip() for h in header]
            if not _header_fits(header, table):
                raise MarketDataError(f"{path}: header {header} does not match expected {names}")
            width = len(header)
            kinds = list(table.columns.values())[:width]
            # a _FLOAT cell gives its value, any other cell its code
            coders = [None if kind is _FLOAT else _coder(kind[0]) for kind in kinds]
            parsers = [coder[0] if coder else _FLOAT[0] for coder in coders]
            linenos, parsed = [], []
            for lineno, row in reader:
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise MarketDataError(
                        f"{path} line {lineno}: expected {width} fields, got {len(row)}"
                    )
                cells = []
                for name, parse, cell in zip(names, parsers, row):
                    try:
                        cells.append(parse(cell.strip()))
                    except ValueError:
                        raise MarketDataError(
                            f"{path} line {lineno}: unparseable {name} {cell.strip()!r}"
                        ) from None
                linenos.append(lineno)
                parsed.append(cells)
        except csv.Error as exc:
            raise MarketDataError(f"{path} line {lineno + 1}: {exc}") from None
        columns = [list(column) for column in zip(*parsed)] or [[] for _ in kinds]
        rows = _Rows(linenos, [_Coded(np.array(c, dtype=np.int64), coder[1]) if coder
                               else np.array(c, dtype=float)
                               for c, coder in zip(columns, coders)])
    if not rows:
        warnings.warn(f"{path}: no data rows", stacklevel=3)
    return rows


_QUOTED = re.compile(r'[,"\r\n]')  # a cell holding one of these is quoted


def _write_table(path, table: _Table, *blocks, preamble: str = "") -> None:
    """Write ``preamble`` as it is, ``table``'s header, then the rows of each block.

    A block holds one sequence or _Coded per column, all of the same length.
    Each column is formatted by its kind, a _Coded one of its values at a
    time, and a column object that the next block holds again (the dates
    contracts on one calendar share) is not formatted again. A block's rows
    are joined as they are, in the csv module's format.
    """
    kinds = list(table.columns.values())
    alone = len(kinds) == 1
    last = [(None, None)] * len(kinds)  # per column: (object, its cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble + ",".join(table.columns) + "\r\n")
        for block in blocks:
            for j, (kind, column) in enumerate(zip(kinds, block)):
                if last[j][0] is not column:
                    last[j] = column, _format_column(kind, column, alone)
            if rows := "\r\n".join(map(",".join, zip(*(cells for _, cells in last)))):
                fh.write(rows + "\r\n")


def _format_column(kind, column, alone: bool) -> list:
    """``column``'s cells as ``kind`` writes them, quoted as the csv module quotes:
    a cell with a comma, a quote or a line break, and an empty cell in a table
    of one column (``alone``), go in quotes, with each quote doubled."""
    if isinstance(column, _Coded):
        cells = _format_column(kind, column.values, alone)
        return list(map(cells.__getitem__, column.codes.tolist()))
    if isinstance(column, np.ndarray):
        if kind is _FLOAT and column.dtype == np.float64:
            # .tolist() gives Python floats, whose repr the kind writes
            return list(map(repr, column.tolist()))
        column = column.tolist()
    cells = list(map(kind[1], column))
    if _QUOTED.search("".join(cells)) or alone and "" in cells:
        cells = ['"' + cell.replace('"', '""') + '"' if _QUOTED.search(cell) or alone and not cell
                 else cell for cell in cells]
    return cells


# --- loaders and writers -----------------------------------------------------


def _zone_codes(markets: _Coded, zones: _Coded) -> np.ndarray:
    """One int per row, equal for rows of one (market, zone), numbered 0, 1, ... as first seen."""
    return _first_seen(np.column_stack([markets.codes, zones.codes]))[1]


def _blocks(code: np.ndarray, columns) -> list[list]:
    """``columns`` cut into one block per ``code``, in code order, rows in file order.

    A file whose codes already run in order is only sliced, so an array
    block is a view.
    """
    if np.any(np.diff(code) < 0):
        order = np.argsort(code, kind="stable")
        code = code[order]
        columns = [c[order] for c in columns]
    edges = [0, *np.cumsum(np.bincount(code)).tolist()]
    return [[c[lo:hi] for c in columns] for lo, hi in zip(edges, edges[1:])]


def load_spot_csv(path, zone: MarketZone) -> SpotPriceSeries:
    """Load a spot-price CSV (``market,zone,date,price``) for one zone."""
    rows = _read_table(path, _SPOT)
    markets, zones, dates, prices = rows.columns
    for lineno, market, z in zip(rows.linenos, markets.tolist(), zones.tolist()):
        if market != zone.market or z != zone.zone:
            raise MarketDataError(
                f"{path} line {lineno}: row for {market}/{z}, expected {zone.market}/{zone.zone}"
            )
    return SpotPriceSeries(zone=zone, dates=tuple(dates.tolist()), prices=prices)


def load_spot_csv_multi(path) -> dict[MarketZone, SpotPriceSeries]:
    """Load a spot CSV that may carry several market zones in one file."""
    rows = _read_table(path, _SPOT)
    blocks = _blocks(_zone_codes(*rows.columns[:2]), rows.columns)
    zones = [MarketZone(markets.item(0), zones.item(0)) for markets, zones, _, _ in blocks]
    return {zone: SpotPriceSeries(zone=zone, dates=tuple(dates.tolist()), prices=prices)
            for zone, (_, _, dates, prices) in zip(zones, blocks)}


def load_futures_csv(path) -> list[FuturesContractSeries]:
    """Load a futures CSV; returns one series per contract_id, in file order.

    Contracts with the same trading days share one dates tuple and one index.
    """
    rows = _read_table(path, _FUTURES)
    cids, markets, zones, dates = rows.columns[:4]
    contract, zone = cids.codes, _zone_codes(markets, zones)
    first_row = np.unique(contract, return_index=True)[1]
    changed = np.flatnonzero(zone != zone[first_row[contract]])
    if changed.size:
        i = changed[0]
        raise MarketDataError(
            f"{path} line {rows.linenos[i]}: contract {cids.item(i)} changes zone")
    ordinals = np.fromiter(map(date.toordinal, dates.values), dtype=np.int64,
                           count=len(dates.values))[dates.codes]
    calendars: dict[bytes, tuple] = {}
    out = []
    for cid, market, z, days, settle, volume, open_interest, days_ordinals in _blocks(
            contract, [*rows.columns, ordinals]):
        key = days_ordinals.tobytes()
        if key not in calendars:
            calendars[key] = tuple(days.tolist()), days_ordinals.copy()
        days, index = calendars[key]
        out.append(FuturesContractSeries(
            contract_id=cid.item(0), zone=MarketZone(market.item(0), z.item(0)), dates=days,
            settle=settle, volume=volume, open_interest=open_interest, index=index,
        ))
    return out


def load_auctions_csv(path) -> list[AuctionRecord]:
    """Load an auctions CSV.

    A single file row may describe several products of the same auction
    session: product_id, delivery_start, delivery_end, load_shape,
    clearing_price and quantity may each hold ";"-separated entries of equal
    count, and the row expands into that many records.
    """
    records = []
    for lineno, row in _read_table(path, _AUCTIONS):
        (market, aid, adate, pids, starts, ends, shapes, kind, prices, qtys,
         sbid, wbid, rounds) = row
        products = [pids, starts, ends, shapes, prices, qtys]
        if any(len(part) != len(pids) for part in products):
            raise MarketDataError(
                f"{path} line {lineno}: multi-product fields have unequal counts"
            )
        try:
            records += [AuctionRecord(
                market=market, auction_id=aid, auction_date=adate, product_id=pid,
                delivery=DeliveryPeriod(start=start, end=end, load_shape=shape),
                clearing_price=price, quantity=qty, product_kind=kind,
                start_bidders=sbid, winning_bidders=wbid, rounds=rounds,
            ) for pid, start, end, shape, price, qty in zip(*products)]
        except MarketDataError as exc:
            raise MarketDataError(f"{path} line {lineno}: {exc}") from None
    return records


def load_costs_csv(path) -> list[CostComponents]:
    out = []
    seen = set()
    for lineno, (market, z, year, cost) in _read_table(path, _COSTS):
        key = (market, z, year)
        if key in seen:
            raise MarketDataError(f"{path} line {lineno}: duplicate cost row {key}")
        seen.add(key)
        try:
            out.append(CostComponents(zone=MarketZone(market, z), year=year, unit_cost=cost))
        except MarketDataError as exc:
            raise MarketDataError(f"{path} line {lineno}: {exc}") from None
    return out


def write_spot_csv(path, series: SpotPriceSeries) -> None:
    n = len(series)
    _write_table(path, _SPOT, [_repeated(series.zone.market, n), _repeated(series.zone.zone, n),
                               series.dates, series.prices])


def write_futures_csv(path, series_list: list[FuturesContractSeries]) -> None:
    _write_table(path, _FUTURES, *(
        [_repeated(s.contract_id, len(s)), _repeated(s.zone.market, len(s)),
         _repeated(s.zone.zone, len(s)), s.dates, s.settle, s.volume, s.open_interest]
        for s in series_list
    ))


def write_auctions_csv(path, records: list[AuctionRecord]) -> None:
    # one product per row, so each ";" column holds a single entry
    _write_table(path, _AUCTIONS, zip(*(
        (r.market, r.auction_id, r.auction_date, [r.product_id], [r.delivery.start],
         [r.delivery.end], [r.delivery.load_shape], r.product_kind, [r.clearing_price],
         [r.quantity], r.start_bidders, r.winning_bidders, r.rounds)
        for r in records
    )))


def write_costs_csv(path, costs: list[CostComponents]) -> None:
    _write_table(path, _COSTS, zip(*((c.zone.market, c.zone.zone, c.year, c.unit_cost)
                                     for c in costs)))


# --- aggregation -------------------------------------------------------------


def average_price(series: SpotPriceSeries, period: DeliveryPeriod, mode: str = "strict") -> float:
    """Arithmetic mean of daily prices over the delivery period.

    mode="strict" requires every calendar day of the period to be present;
    mode="available" averages over whatever days the series holds.
    """
    if mode not in ("strict", "available"):
        raise ValueError(f"unknown mode {mode!r}")
    days, missing, first_missing = series._period_slice(period)
    if mode == "strict" and missing:
        raise MarketDataError(
            f"spot series missing {missing} day(s) in delivery period, first {first_missing}"
        )
    picked = series.prices[days]
    if not picked.size:
        raise MarketDataError("no spot observations inside delivery period")
    return float(np.mean(picked))

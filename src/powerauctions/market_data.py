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
from dataclasses import dataclass, fields
from datetime import date
from typing import Sequence

import numpy as np

OMEL_ZONES = frozenset({"ES"})
PJM_ZONES = frozenset({"ACE", "JCPL", "PSEG", "RECO"})
MARKET_ZONES = {"OMEL": OMEL_ZONES, "PJM": PJM_ZONES}
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
    """A bidding zone of a market: OMEL's ES or one of PJM's four."""
    market: str
    zone: str

    def __post_init__(self):
        if self.market not in MARKET_ZONES:
            raise MarketDataError(f"unknown market {self.market!r}")
        if self.zone not in MARKET_ZONES[self.market]:
            raise MarketDataError(
                f"zone {self.zone!r} does not belong to market {self.market!r}"
            )


@dataclass(frozen=True)
class DeliveryPeriod:
    """Calendar days from ``start`` to ``end``, both included, in one load shape."""
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


class _Calendar(tuple):
    """Strictly increasing dates and their read-only ``date.toordinal()`` index.

    The dates are checked and indexed once: a _Calendar given to the
    constructor comes back as it is, so series made on one calendar share
    its index. A duplicate or decreasing date raises, naming the first
    offending pair and ``what`` the dates belong to.
    """

    def __new__(cls, dates, what: str = "dates"):
        if type(dates) is cls:
            return dates
        self = super().__new__(cls, dates)
        ordinals = np.fromiter(map(date.toordinal, self), np.int64, len(self))
        bad = np.flatnonzero(np.diff(ordinals) <= 0)
        if bad.size:
            prev, d = self[bad[0]], self[bad[0] + 1]
            if d == prev:
                raise MarketDataError(f"duplicate date {d} in {what}")
            raise MarketDataError(f"non-monotone dates in {what}: {d} after {prev}")
        ordinals.setflags(write=False)
        self.ordinals = ordinals
        return self

    def __reduce__(self):  # copy and pickle pass only the dates
        return _Calendar, (tuple(self),)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array: a read-only array as it is,
    anything else copied, so that no caller can write to a series' data."""
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


class _Series:
    """A series on a _Calendar: its length and index are its dates'.

    Its arrays are read-only (_read_only). Copy and pickle rebuild it through
    its constructor, so a copy is checked again, like the original.
    """
    ordinals = property(lambda self: self.dates.ordinals)  # the index the dates carry

    def __len__(self) -> int:
        return len(self.dates)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class SpotPriceSeries(_Series):
    """Daily spot prices of one zone, on strictly increasing dates."""
    zone: MarketZone
    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.prices):
            raise MarketDataError("dates and prices length mismatch")
        object.__setattr__(self, "dates", _Calendar(self.dates, "spot series"))
        prices = _read_only(self.prices)
        if prices.size and not np.all(np.isfinite(prices)):
            raise MarketDataError("non-finite spot price")
        object.__setattr__(self, "prices", prices)

    def _period_slice(self, period: DeliveryPeriod) -> tuple[slice, int, date | None]:
        """Positions of ``period``'s days, with the count and first of those missing.

        A day's price covers its 24 hours, so only a baseload period has one.
        """
        if period.load_shape != "baseload":
            raise MarketDataError(
                f"daily spot prices cannot price a {period.load_shape} delivery period")
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
class FuturesContractSeries(_Series):
    """Daily settle, volume and open interest of one futures contract."""
    contract_id: str
    zone: MarketZone
    dates: tuple[date, ...]
    settle: np.ndarray
    volume: np.ndarray
    open_interest: np.ndarray

    def __post_init__(self):
        n = len(self.dates)
        arrays = {}
        for name in ("settle", "volume", "open_interest"):
            arr = _read_only(getattr(self, name))
            if len(arr) != n:
                raise MarketDataError(f"{name} length mismatch in {self.contract_id}")
            if arr.size and not np.all(np.isfinite(arr)):
                raise MarketDataError(f"non-finite {name} in {self.contract_id}")
            arrays[name] = arr
        object.__setattr__(self, "dates", _Calendar(self.dates, f"futures {self.contract_id}"))
        if np.any(arrays["volume"] < 0):
            raise MarketDataError(f"negative volume in {self.contract_id}")
        if np.any(arrays["open_interest"] < 0):
            raise MarketDataError(f"negative open interest in {self.contract_id}")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class AuctionRecord:
    """One product of an auction session and how it cleared."""
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
    """A zone's non-energy cost per MWh in one year."""
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
    "product_id": _TEXT, "delivery_start": _DATE, "delivery_end": _DATE,
    "load_shape": _TEXT, "product_kind": _TEXT, "clearing_price": _FLOAT, "quantity": _FLOAT,
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


def _read_text(path, newline=None) -> str:
    """The whole of a UTF-8 file, as ``open(path, newline=newline)`` reads it
    (_decoded)."""
    with open(path, "rb") as fh:
        return _decoded(path, fh.read(), newline)


def _decoded(path, raw: bytes, newline=None) -> str:
    """File ``path``'s bytes ``raw`` as ``open(path, newline=newline)`` reads them:
    with newline=None, "\\r\\n" and a lone "\\r" become "\\n"; with newline="",
    line breaks stay as they are. Bytes that are not UTF-8 are a data error
    naming the file.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarketDataError(f"{path}: {exc}") from None
    return text if newline == "" else text.replace("\r\n", "\n").replace("\r", "\n")


def _header_fits(header: list, table: _Table) -> bool:
    """Whether stripped ``header`` names ``table``'s columns, the optional ones aside."""
    names = list(table.columns)
    return len(header) >= len(names) - table.optional and header == names[:len(header)]


_CSV_FIELD_LIMIT = 131072  # the csv module's default field_size_limit()
# the longest cell, in UTF-8 bytes, read from the bytes: a longer non-float
# cell gets no byte key, and a longer float cell declines the file
_KEY_BYTES = 32
# masks of a little-endian word: its low n bytes, and bytes 4 and 7
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_BYTE_4, _BYTE_7 = np.uint64(0xFF << 32), np.uint64(0xFF << 56)
_DATE_DASHES = np.uint64(int.from_bytes(b"\0\0\0\0-\0\0-", "little"))
_EXACT_DIGITS = 15  # an integer of at most 15 digits is below 2**53, so a float holds it
_POW10 = np.array([float(10 ** k) for k in range(_EXACT_DIGITS + 1)])  # each one exact
_FLOAT_CHUNK = 16384  # cells per pass of _decimal_cells, so that its arrays stay in cache


def _parse_columns(raw: bytes, table: _Table) -> _Rows | None:
    """Parse a CSV file of ``table``, its bytes ``raw``, column by column, or
    None if it cannot.

    This gives what _read_table's per-cell loop gives, and so it declines
    (None) every file that loop treats specially: one that is not UTF-8, one
    with a quote, a lone carriage return, a blank row, a line the csv module
    would refuse as too long, a header that does not match, a row of the
    wrong width or a cell its column's kind rejects. Cells are found among
    the commas and line breaks of the bytes, where no multi-byte UTF-8
    sequence holds either, and only the cells that are read as text are
    decoded: every other byte of a file the parse takes is ASCII. The cells
    of all float columns are read from the bytes at once (_float_cells);
    every other column is coded by _code_cells.
    """
    if b'"' in raw:
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
    try:
        header = [h.strip() for h in raw[:raw.index(b"\n")].decode().split(",")]
    except UnicodeDecodeError:
        return None
    if not _header_fits(header, table):
        return None
    width = len(header)
    # padded so that _cell_keys and _decimal_cells can read a cell's words
    # past the last line
    data = np.frombuffer(raw + bytes(_KEY_BYTES), dtype=np.uint8)
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
    if raw.count(b"\r") != np.count_nonzero(line_cr):
        return None
    if np.diff(seps[:, -1], prepend=-1).max() > _CSV_FIELD_LIMIT + 1:  # + 1: the line break
        return None
    n = len(seps) - 1
    kinds = list(table.columns.values())[:width]
    floats = [j for j, kind in enumerate(kinds) if kind is _FLOAT]
    columns = [np.empty(0)] * width

    def starts(j):  # where column j's cells begin
        return (seps[:-1, -1] if j == 0 else seps[1:, j - 1]) + 1
    if floats and n:
        # the last column's cells end before the carriage return that ends their line
        values = _float_cells(data, np.concatenate([starts(j) for j in floats]),
                              np.concatenate([seps[1:, j] - line_cr[1:] if j == width - 1
                                              else seps[1:, j] for j in floats]))
        if values is None:
            return None
        for j, column in zip(floats, values.reshape(len(floats), n)):
            columns[j] = column
    # a row is blank when every cell strips to empty; _float_cells declines
    # such a float cell, so only a table without float columns can hold one
    blank = np.full(n, not floats)
    for j, kind in enumerate(kinds):
        if kind is not _FLOAT:
            coded = _code_cells(data, starts(j), seps[1:, j], kind[0])
            if coded is None:
                return None
            columns[j], empty = coded
            blank &= empty
    if blank.any():
        return None
    return _Rows(range(2, n + 2), columns)


def _float_cells(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The cells ``data[starts[i]:ends[i]]`` as _finite_float(cell.strip()) reads
    them, or None where it may reject one.

    A cell ``[+-]digits[.digits]`` of 1 to 15 digits (either side of the dot
    may be empty) is exactly an integer m < 2**53 over 10**k, and one IEEE
    division rounds m / 10**k as float() rounds the decimal (Clinger, PLDI
    1990); _decimal_cells reads such cells. Every other cell goes through
    one cast of bytes to float64, which is float() of the bytes: it strips
    the ASCII whitespace that str.strip() strips and rejects the other
    characters str.strip() strips, so it declines where it could differ.
    The cast drops trailing NULs, so a cell holding one declines, as do an
    empty cell, a cell longer than _KEY_BYTES and a value that is not finite.
    """
    sizes = ends - starts
    values = np.empty(len(starts))
    exact = np.zeros(len(starts), dtype=bool)
    words = _words(data)
    for lo in range(0, len(starts), _FLOAT_CHUNK):
        chunk = slice(lo, lo + _FLOAT_CHUNK)
        lead = data[starts[chunk]]
        signed = (lead == ord("-")) | (lead == ord("+"))
        # a cell of more bytes than a sign, a dot and 15 digits cannot qualify
        tried = (sizes[chunk] > 0) & (sizes[chunk] - signed <= _EXACT_DIGITS + 1)
        if tried.all():
            exact[chunk], values[chunk] = _decimal_cells(words, starts[chunk], sizes[chunk])
        elif tried.any():
            at = np.flatnonzero(tried) + lo
            exact[at], values[at] = _decimal_cells(words, starts[at], sizes[at])
    rest = np.flatnonzero(~exact)
    if rest.size:
        size = sizes[rest]
        if size.min() < 1 or size.max() > _KEY_BYTES:
            return None
        width = int(size.max())
        cells = data[starts[rest, None] + np.arange(width)]
        inside = np.arange(width) < size[:, None]
        if np.any(inside & (cells == 0)):
            return None
        cells *= inside  # NUL-padded, as an S cell is
        try:
            values[rest] = cells.view(f"S{width}")[:, 0].astype(np.float64)
        except ValueError:
            return None
        if not np.isfinite(values[rest]).all():
            return None
    return values


def _decimal_cells(words: np.ndarray, starts: np.ndarray,
                   sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of the cells of ``sizes[i]`` bytes (1 to 17) at ``starts[i]`` are
    ``[+-]digits[.digits]`` with 1 to 15 digits, and the float of each such cell.

    The cells are laid out as a byte matrix, one row per byte position and
    the bytes past each cell zeroed, and read a row at a time: the digits by
    Horner's rule into a float64 mantissa, exact below 2**53, with counts of
    digits, dots and the digits before the dot. ``words`` is _words(data).
    """
    n, width = len(starts), int(sizes.max())
    per_cell = np.empty((n, -(-width // 8)), dtype=np.uint64)
    for w in range(per_cell.shape[1]):
        per_cell[:, w] = words[starts + 8 * w]
    rows = per_cell.view(np.uint8).reshape(n, -1).T[:width]
    rows = rows * (np.arange(width)[:, None] < sizes)
    mantissa = np.zeros(n)
    digits, dots, before_dot = (np.zeros(n, dtype=np.uint8) for _ in range(3))
    for row in rows:
        value = row - np.uint8(ord("0"))
        digit = value < 10
        dot = row == ord(".")
        np.multiply(mantissa, 10.0, out=mantissa, where=digit)
        np.add(mantissa, value, out=mantissa, where=digit)
        digits += digit
        np.copyto(before_dot, digits, where=dot)
        dots += dot
    # every byte is a digit, the dot or a leading sign
    signed = (rows[0] == ord("-")) | (rows[0] == ord("+"))
    ok = ((digits + dots + signed == sizes) & (dots <= 1)
          & (digits >= 1) & (digits <= _EXACT_DIGITS))
    after_dot = np.where(dots > 0, digits - before_dot, 0)
    values = mantissa / _POW10[np.minimum(after_dot, _EXACT_DIGITS)]
    np.negative(values, out=values, where=rows[0] == ord("-"))
    return ok, values


def _code_cells(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                parse) -> tuple[_Coded, np.ndarray] | None:
    """The cells ``data[starts[i]:ends[i]]`` coded as _coder(parse) codes them, and
    which of them strip to empty; None if one is not UTF-8 or ``parse`` rejects one.

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
    code, values = _coder(parse)
    try:  # a UnicodeDecodeError is a ValueError
        cells = [data[i:j].tobytes().decode().strip()
                 for i, j in zip(starts[first].tolist(), ends[first].tolist())]
        codes = np.array([code(cell) for cell in cells], dtype=np.int64)
    except ValueError:
        return None
    empty = np.array([not cell for cell in cells], dtype=bool)
    return _Coded(codes[distinct], values), empty[distinct]


def _cell_keys(data: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Integer keys of the cells ``data[starts[i]:starts[i] + sizes[i]]``, equal
    for cells of equal bytes: one word per cell, or one row of words per cell.

    When every cell of the column is at most 7 bytes long, a cell's word is
    its bytes, the bytes past its end zeroed, with its length in the top
    byte. When every cell is YYYY-MM-DD shaped (10 bytes, "-" at bytes 4
    and 7), its word is its other 8 bytes. Otherwise a cell's row is its
    8-byte words, the bytes past its end zeroed, and its length. ``data``
    must hold _KEY_BYTES bytes past the last cell.
    """
    words = _words(data)
    widest = int(sizes.max(initial=0))
    if widest <= 7:
        return words[starts] & _LOW_BYTES[sizes] | sizes.astype(np.uint64) << np.uint64(56)
    if np.all(sizes == 10):
        head, tail = words[starts], words[starts + 2]  # bytes 0-7 and 2-9
        if np.all(head & (_BYTE_4 | _BYTE_7) == _DATE_DASHES):
            # bytes 8 and 9 take the places of the dashes
            return head & ~(_BYTE_4 | _BYTE_7) | tail >> 16 & _BYTE_4 | tail & _BYTE_7
    n_words = -(-widest // 8)
    keys = np.empty((len(starts), n_words + 1), dtype=np.uint64)
    for w in range(n_words):
        keys[:, w] = words[starts + 8 * w] & _LOW_BYTES[np.clip(sizes - 8 * w, 0, 8)]
    keys[:, -1] = sizes
    return keys


def _words(data: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word at each byte offset of ``data``."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


def _changed(keys: np.ndarray) -> np.ndarray:
    """Whether each key of ``keys`` (one per row, or a row of them) differs
    from the one before; the first does."""
    new = np.ones(len(keys), dtype=bool)
    if keys.ndim == 1:
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
    else:
        np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
    return new


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct key of ``keys`` (one per row, or a row of
    them), in row order, and each row's number among them: 0, 1, ... as first
    seen.

    Only the first row of each run of equal keys is sorted.
    """
    new_run = _changed(keys)
    heads = np.flatnonzero(new_run)
    keys = keys[heads]
    # equal keys sort together, in any order: each key's first head is the
    # least of its heads
    order = np.argsort(keys) if keys.ndim == 1 else np.lexsort(keys.T)
    new = _changed(keys[order])
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(order) else order
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
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = _parse_columns(raw, table)
    if rows is None:
        names = list(table.columns)
        text = _decoded(path, raw, newline="")
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
    Each column is formatted across all blocks at once (_column_cells), and
    each block's rows are then joined as they are, in the csv module's
    format, so only one block's rows are held at a time.
    """
    kinds = list(table.columns.values())
    blocks = [block for block in map(list, blocks) if block]
    columns = [_column_cells(kind, [block[j] for block in blocks], len(kinds) == 1)
               for j, kind in enumerate(kinds)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble + ",".join(table.columns) + "\r\n")
        for cells in zip(*columns):
            if rows := "\r\n".join(map(",".join, zip(*cells))):
                fh.write(rows + "\r\n")


def _column_cells(kind, columns: list, alone: bool):
    """Yield the cells of each of ``columns``, as _format_column gives them.

    A column object that comes back (the dates contracts on one calendar
    share) is formatted once. The float64 arrays of a _FLOAT column are
    formatted once per distinct bit pattern among them all, so -0.0 and
    0.0 stay apart.
    """
    arrays = {id(c): c for c in columns
              if kind is _FLOAT and isinstance(c, np.ndarray) and c.dtype == np.float64}
    distinct = {}  # per float array: the position of each of its values' text
    if arrays:
        bits, inverse = np.unique(np.concatenate(list(arrays.values())).view(np.uint64),
                                  return_inverse=True)
        # .tolist() gives Python floats, whose repr the kind writes
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        ends = np.cumsum([len(c) for c in arrays.values()])[:-1]
        distinct = dict(zip(arrays, np.split(inverse, ends)))
    last = {id(c): i for i, c in enumerate(columns)}
    done = {}
    for i, column in enumerate(columns):
        key = id(column)
        if key not in done:
            done[key] = (text[distinct[key]].tolist() if key in distinct
                         else _format_column(kind, column, alone))
        yield done.pop(key) if last[key] == i else done[key]


def _format_column(kind, column, alone: bool) -> list:
    """``column``'s cells as ``kind`` writes them, quoted as the csv module quotes:
    a cell with a comma, a quote or a line break, and an empty cell in a table
    of one column (``alone``), go in quotes, with each quote doubled."""
    if isinstance(column, _Coded):
        cells = _format_column(kind, column.values, alone)
        if len(cells) == 1:
            return cells * len(column.codes)
        return list(map(cells.__getitem__, column.codes.tolist()))
    if isinstance(column, np.ndarray):
        column = column.tolist()
    cells = list(map(kind[1], column))
    if _QUOTED.search("".join(cells)) or alone and "" in cells:
        cells = ['"' + cell.replace('"', '""') + '"' if _QUOTED.search(cell) or alone and not cell
                 else cell for cell in cells]
    return cells


# --- loaders and writers -----------------------------------------------------


def _zone_codes(markets: _Coded, zones: _Coded) -> np.ndarray:
    """One int per row, equal for rows of one (market, zone), numbered 0, 1, ... as first seen."""
    return _first_seen(markets.codes * len(zones.values) + zones.codes)[1]


def _blocks(code: np.ndarray, columns) -> list[list]:
    """``columns`` cut into one block per ``code``, in code order, rows in file order.

    A file whose codes already run in order is only sliced, so an array
    block is a view. Array blocks are read-only, so a series keeps them
    without a copy.
    """
    if np.any(np.diff(code) < 0):
        order = np.argsort(code, kind="stable")
        code = code[order]
        columns = [c[order] for c in columns]
    for c in columns:
        if isinstance(c, np.ndarray):
            c.setflags(write=False)
    edges = [0, *np.cumsum(np.bincount(code)).tolist()]
    return [[c[lo:hi] for c in columns] for lo, hi in zip(edges, edges[1:])]


def load_spot_csv_multi(path) -> dict[MarketZone, SpotPriceSeries]:
    """Load a spot CSV (``market,zone,date,price``): one series per market zone."""
    rows = _read_table(path, _SPOT)
    blocks = _blocks(_zone_codes(*rows.columns[:2]), rows.columns)
    zones = [MarketZone(markets.item(0), zones.item(0)) for markets, zones, _, _ in blocks]
    return {zone: SpotPriceSeries(zone=zone, dates=tuple(dates.tolist()), prices=prices)
            for zone, (_, _, dates, prices) in zip(zones, blocks)}


def load_futures_csv(path) -> list[FuturesContractSeries]:
    """Load a futures CSV; returns one series per contract_id, in file order.

    Contracts with the same date cells share one calendar and its index.
    """
    rows = _read_table(path, _FUTURES)
    cids, markets, zones = rows.columns[:3]
    contract, zone = cids.codes, _zone_codes(markets, zones)
    # codes number contracts as first seen, so contract c's first row is where
    # the running maximum of the codes reaches c
    first_row = np.flatnonzero(np.diff(np.maximum.accumulate(contract), prepend=-1))
    changed = np.flatnonzero(zone != zone[first_row[contract]])
    if changed.size:
        i = changed[0]
        raise MarketDataError(
            f"{path} line {rows.linenos[i]}: contract {cids.item(i)} changes zone")
    calendars: dict[bytes, _Calendar] = {}  # equal date codes mean equal dates
    out = []
    for cid, market, z, days, settle, volume, open_interest in _blocks(contract, rows.columns):
        key = days.codes.tobytes()
        series = FuturesContractSeries(
            contract_id=cid.item(0), zone=MarketZone(market.item(0), z.item(0)),
            dates=calendars.get(key) or days.tolist(),
            settle=settle, volume=volume, open_interest=open_interest)
        calendars.setdefault(key, series.dates)
        out.append(series)
    return out


def load_auctions_csv(path) -> list[AuctionRecord]:
    """Load an auctions CSV: one record per row, in file order.

    A row is one product. A session that sold several products is several
    rows sharing its auction_id.
    """
    out = []
    for lineno, (market, aid, adate, pid, start, end, shape, kind, price, qty,
                 sbid, wbid, rounds) in _read_table(path, _AUCTIONS):
        try:
            out.append(AuctionRecord(
                market=market, auction_id=aid, auction_date=adate, product_id=pid,
                delivery=DeliveryPeriod(start=start, end=end, load_shape=shape),
                clearing_price=price, quantity=qty, product_kind=kind,
                start_bidders=sbid, winning_bidders=wbid, rounds=rounds))
        except MarketDataError as exc:
            raise MarketDataError(f"{path} line {lineno}: {exc}") from None
    return out


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
    _write_table(path, _AUCTIONS, zip(*(
        (r.market, r.auction_id, r.auction_date, r.product_id, r.delivery.start,
         r.delivery.end, r.delivery.load_shape, r.product_kind, r.clearing_price,
         r.quantity, r.start_bidders, r.winning_bidders, r.rounds)
        for r in records
    )))


def write_costs_csv(path, costs: list[CostComponents]) -> None:
    _write_table(path, _COSTS, zip(*((c.zone.market, c.zone.zone, c.year, c.unit_cost)
                                     for c in costs)))


# --- aggregation -------------------------------------------------------------


def average_price(series: SpotPriceSeries, period: DeliveryPeriod, mode: str = "strict") -> float:
    """Arithmetic mean of daily prices over the delivery period, which must
    be baseload (SpotPriceSeries._period_slice).

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

"""Post ingestion: parse raw posts and a media-bias table, label each post
with a political leaning by its news domain, and aggregate daily series.

Posts travel as columns, not per-post objects: :func:`read_posts_csv`
streams the CSV a block of rows at a time into a :class:`PostColumns` of
post ids, UTC day ordinals, platforms, URLs, likes and sentiments.  Each
column of a block is parsed once and each row rule is checked over the
whole block; an error names the first row that breaks a rule.

A post is labeled by the registrable domain of the URL it shares, through
the bias table that :func:`read_bias_csv`, its only way in, checks row by
row; posts whose domain is not in the table stay unlabeled and are excluded
from the series (the summary reports how many).  The domain is parsed once
per distinct URL authority (scheme and host), not once per post;
:func:`label_post` labels one URL or bare domain.  :func:`aggregate` labels
every post once from its URL; the summary and every metric's series then
come from the columns, each series as one ``np.bincount`` over (leaning,
day) cells.  Count and likes series are zero-filled on empty days;
mean-sentiment series carry NaN on days with no posts, since a mean over
nothing is undefined rather than zero.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import itertools
import json
import math
import re
from dataclasses import dataclass, field, fields
from urllib.parse import urlsplit

import numpy as np

from .series import DailySeries

LEANINGS = ("left", "left_leaning", "center", "right_leaning", "right")
PLATFORMS = ("twitter", "gab")
INGEST_METRICS = ("post_count", "likes_sum", "sentiment_mean")

POSTS_HEADER = ["post_id", "timestamp", "platform", "url_or_domain", "likes", "sentiment"]
BIAS_HEADER = ["domain", "leaning"]
SERIES_HEADER = ["date"] + list(LEANINGS)

_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)+$")
_AUTHORITY_END_RE = re.compile(r"[^/?#]*")

# two-label public suffixes under which the registrable domain is 3 labels
_MULTI_SUFFIXES = frozenset({
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
    "co.jp", "ne.jp", "or.jp", "com.au", "net.au", "org.au",
    "co.nz", "org.nz", "co.in", "net.in", "org.in", "co.za",
    "com.br", "com.mx", "com.ar", "com.sg", "com.hk", "com.tw",
    "com.cn", "com.tr",
})


@dataclass(frozen=True, eq=False)
class PostColumns:
    """Posts as columns, one entry per post in file order: ``day`` is the
    UTC calendar day as a proleptic ordinal, ``sentiment`` is NaN where a
    post has none."""
    post_id: list
    day: np.ndarray             # intp
    platform: np.ndarray        # str
    url_or_domain: list
    likes: np.ndarray           # float64
    sentiment: np.ndarray       # float64

    def __len__(self):
        return len(self.post_id)

    @classmethod
    def concat(cls, parts: list) -> "PostColumns":
        """The posts of each part in turn; ``parts`` must not be empty."""
        def joined(name):
            columns = [getattr(part, name) for part in parts]
            return (list(itertools.chain.from_iterable(columns))
                    if isinstance(columns[0], list) else np.concatenate(columns))
        return cls(*(joined(column.name) for column in fields(cls)))

    def select(self, mask) -> "PostColumns":
        """The posts where the boolean ``mask`` is true, in order."""
        keep = np.flatnonzero(mask)
        take = keep.tolist()
        return PostColumns(post_id=[self.post_id[i] for i in take], day=self.day[keep],
                           platform=self.platform[keep],
                           url_or_domain=[self.url_or_domain[i] for i in take],
                           likes=self.likes[keep], sentiment=self.sentiment[keep])


class DomainParseError(ValueError):
    pass


def extract_domain(url_or_domain: str) -> str:
    """Registrable domain of a URL or bare hostname, lowercased, www-less.

    Only the text up to the first ``/``, ``?`` or ``#`` after the first
    ``://`` (or the first ``/`` of a bare host) decides it, so that prefix
    is parsed once per distinct value by :func:`_authority_domain`."""
    text = url_or_domain.strip()
    if not text:
        raise DomainParseError("cannot extract a domain from empty text")
    cut = text.find("://")
    authority = (text.partition("/")[0] if cut < 0
                 else text[:_AUTHORITY_END_RE.match(text, cut + 3).end()])
    try:
        return _authority_domain(authority)
    except DomainParseError:
        raise DomainParseError(f"cannot extract a domain from {url_or_domain!r}") from None


@functools.lru_cache(maxsize=4096)
def _authority_domain(authority: str) -> str:
    """The domain of a prefix cut by :func:`extract_domain`, which keeps all
    that ``urlsplit`` reads to find the host.  Failures raise: none is cached."""
    if "://" in authority:
        host = urlsplit(authority).hostname
        if not host:
            raise DomainParseError
    else:
        host = authority
        if host.count(":") == 1:        # tolerate a port on a bare host
            host = host.split(":", 1)[0]
    host = host.lower().rstrip(".")
    if not _HOST_RE.match(host):
        raise DomainParseError
    if host.startswith("www."):
        host = host[4:]
    labels = host.split(".")
    if len(labels) < 2:
        raise DomainParseError
    take = 3 if len(labels) >= 3 and ".".join(labels[-2:]) in _MULTI_SUFFIXES else 2
    return ".".join(labels[-take:])


@dataclass
class BiasTable:
    """Registrable domain -> leaning; only :func:`read_bias_csv` fills one."""
    entries: dict = field(default_factory=dict, init=False)

    def __len__(self):
        return len(self.entries)


def _url_domains(urls, table: BiasTable, post_ids=()) -> list:
    """Each URL's domain, in order.  Raises on an empty table if there are URLs,
    and on the first unparseable URL, naming its post if ``post_ids`` are given."""
    if urls and not table.entries:
        raise ValueError("bias table is empty")
    try:
        return list(map(extract_domain, urls))
    except ValueError:
        for post_id, url in zip(post_ids, urls):
            try:
                extract_domain(url)
            except ValueError as exc:   # name the post, keep the exception type
                raise type(exc)(f"post {post_id}: {exc}") from None
        raise


def label_post(url_or_domain: str, table: BiasTable) -> str | None:
    """The table's leaning for the domain of a URL or bare domain, or None."""
    return table.entries.get(_url_domains([url_or_domain], table)[0])


@dataclass(frozen=True)
class IngestSummary:
    total_posts: int
    labeled_posts: int
    unlabeled_posts: int
    per_leaning_counts: dict
    date_range: tuple | None     # (first, last) calendar dates seen

    def __post_init__(self):
        if self.labeled_posts + self.unlabeled_posts != self.total_posts:
            raise ValueError("labeled + unlabeled must equal total")
        if sum(self.per_leaning_counts.values()) != self.labeled_posts:
            raise ValueError("per-leaning counts must sum to labeled_posts")

    def to_json(self) -> str:
        doc = {"total_posts": self.total_posts,
               "labeled_posts": self.labeled_posts,
               "unlabeled_posts": self.unlabeled_posts,
               "per_leaning_counts": dict(sorted(self.per_leaning_counts.items())),
               "date_range": [d.isoformat() for d in self.date_range]
               if self.date_range else None}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def aggregate(posts, table: BiasTable, window, metrics) -> tuple:
    """Label each post once; return ``(summary, platform, {metric: {leaning:
    DailySeries}})`` with one series per leaning over the window (inclusive).

    ``posts`` is the :class:`PostColumns` that :func:`read_posts_csv` gives.
    Series drop unlabeled posts and posts outside the window.  "post_count"
    adds 1 per post, "likes_sum" its likes, and "sentiment_mean" averages
    its sentiment, which each kept post must then carry.  Each series is
    one ``np.bincount`` over ``leaning * n_days + day``, adding in post order.
    """
    for metric in metrics:
        if metric not in INGEST_METRICS:
            raise ValueError(f"unknown aggregation metric {metric!r}")
    start, end = window
    if start > end:
        raise ValueError(f"empty date window: {start} > {end}")
    code_of = {domain: LEANINGS.index(leaning) for domain, leaning in table.entries.items()}
    domains = _url_domains(posts.url_or_domain, table, posts.post_id)
    codes = np.fromiter(map(code_of.get, domains, itertools.repeat(-1)),
                        dtype=np.intp, count=len(domains))

    labeled = codes >= 0
    n_total, n_labeled = len(posts), int(labeled.sum())
    per_leaning = np.bincount(codes[labeled], minlength=len(LEANINGS)).tolist()
    summary = IngestSummary(
        total_posts=n_total, labeled_posts=n_labeled, unlabeled_posts=n_total - n_labeled,
        per_leaning_counts=dict(zip(LEANINGS, per_leaning)),
        date_range=(dt.date.fromordinal(int(posts.day.min())),
                    dt.date.fromordinal(int(posts.day.max()))) if n_total else None)
    platforms = [name for name in PLATFORMS if (posts.platform == name).any()]
    platform = (platforms[0] if len(platforms) == 1
                else "mixed" if platforms else "unknown")

    n_days = (end - start).days + 1
    day = posts.day - start.toordinal()
    kept = labeled & (day >= 0) & (day < n_days)
    cell = codes[kept] * n_days + day[kept]

    def daily_sums(weights=None):
        return np.bincount(cell, weights, minlength=len(LEANINGS) * n_days).astype(np.float64)

    def series_of(metric):
        if metric == "post_count":
            values = daily_sums()
        elif metric == "likes_sum":
            values = daily_sums(posts.likes[kept])
            if np.isinf(values).any():
                code, day = divmod(int(np.isinf(values).argmax()), n_days)
                raise ValueError(f"likes_sum of {LEANINGS[code]} posts on "
                                 f"{start + dt.timedelta(days=day)} overflows the float range")
        else:
            missing = kept & np.isnan(posts.sentiment)
            if missing.any():
                ids = sorted(posts.post_id[i] for i in np.flatnonzero(missing).tolist())
                raise ValueError(f"posts missing sentiment: {', '.join(ids)}")
            counts = daily_sums()
            values = np.where(counts > 0,
                              daily_sums(posts.sentiment[kept]) / np.maximum(counts, 1), np.nan)
        return {leaning: DailySeries(start_date=start, values=row, platform=platform,
                                     leaning=leaning, metric=metric)
                for leaning, row in zip(LEANINGS, values.reshape(len(LEANINGS), n_days))}

    return summary, platform, {metric: series_of(metric) for metric in metrics}


def summarize(posts, table: BiasTable) -> IngestSummary:
    return aggregate(posts, table, (dt.date.min, dt.date.min), ())[0]   # no series: any window


def aggregate_daily(posts, table: BiasTable, metric: str, window) -> dict:
    """The "post_count" or "likes_sum" series of :func:`aggregate`."""
    if metric not in ("post_count", "likes_sum"):
        raise ValueError(f"unknown aggregation metric {metric!r}")
    return aggregate(posts, table, window, (metric,))[2][metric]


def daily_mean_sentiment(posts, table: BiasTable, window) -> dict:
    """Per-leaning daily mean of sentiment; NaN marks days with no posts."""
    return aggregate(posts, table, window, ("sentiment_mean",))[2]["sentiment_mean"]


# -- CSV I/O ---------------------------------------------------------------


_BLOCK_ROWS = 4096     # rows read and checked together; bounds the cells held as str


def _csv_blocks(path, header: list, what: str):
    """Yield ``(line numbers, columns)`` per block of up to ``_BLOCK_ROWS``
    non-blank data rows of the CSV at ``path``: one list of stripped cells
    per header field, filled as rows stream in.  The header must be
    ``header`` and each row must have as many fields; the rows before a
    short or long row, or one the csv module rejects (a cell over its field
    size limit), are yielded before it raises, so a bad value above it is
    reported first.  The last block may be empty."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        lines, columns = [], tuple([] for _ in header)
        start = 1   # the physical line the next record starts on; a quoted cell may span lines
        try:
            got = next(reader, None)
            if got != header:
                raise ValueError(f"{what} CSV header must be {','.join(header)}, got {got}")
            start = reader.line_num + 1
            for cells in reader:
                line_no, start = start, reader.line_num + 1
                if not cells:
                    continue
                if len(cells) != len(header):
                    yield lines, columns
                    raise ValueError(f"{what} row {line_no}: expected {len(header)} fields, "
                                     f"got {len(cells)}")
                lines.append(line_no)
                for column, cell in zip(columns, cells):
                    column.append(cell.strip())
                if len(lines) == _BLOCK_ROWS:
                    yield lines, columns
                    lines, columns = [], tuple([] for _ in header)
        except csv.Error as exc:
            yield lines, columns
            raise ValueError(f"{what} CSV line {start}: {exc}") from None
        yield lines, columns


# byte offsets of the digits in "YYYY-MM-DDTHH:MM:SS"
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_MAX_LEN = 48     # longer ones are parsed one by one, not in a block-wide array
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_MAX_ORDINAL = dt.date.max.toordinal()
_US_PER_DAY = 86_400_000_000


def _suffix_shift_us(suffix: str) -> int | None:
    """Microseconds to add to a local "YYYY-MM-DDTHH:MM:SS" time that ends
    in ``suffix`` (fraction and UTC offset) to reach UTC, or None when
    ``fromisoformat`` rejects the suffix.  Neither depends on the digits
    before it, so one parse of a fixed time decides it."""
    try:
        stamp = dt.datetime.fromisoformat("2000-01-01T00:00:00" + suffix.replace("Z", "+00:00"))
    except ValueError:
        return None
    offset = stamp.utcoffset() or dt.timedelta(0)
    return stamp.microsecond - offset // dt.timedelta(microseconds=1)


def _utc_day_ordinals(stamps: list) -> np.ndarray | None:
    """The UTC day ordinal of each timestamp as :func:`_utc_day` gives it,
    or None unless every one is an ASCII "YYYY-MM-DDTHH:MM:SS" (or with a
    space for the "T") naming a valid date and time, followed by a suffix
    ``fromisoformat`` accepts."""
    if max(map(len, stamps), default=0) > _STAMP_MAX_LEN:
        return None
    try:
        text = np.array(stamps, dtype=bytes)
    except UnicodeEncodeError:
        return None
    b = text.view(np.uint8).reshape(len(stamps), text.itemsize)
    if np.count_nonzero(b) != sum(map(len, stamps)):   # a NUL, which bytes arrays drop
        return None
    if b.shape[1] < 20:
        b = np.pad(b, ((0, 0), (0, 20 - b.shape[1])))
    if (((b[:, _STAMP_DIGITS] - np.uint8(ord("0"))) > 9).any()
            or (b[:, :4] == ord("0")).all(axis=1).any()):          # year 0
        return None
    try:    # numpy wants the "-", "T" or " ", and ":" marks, and bounds each field
        local_s = (np.ascontiguousarray(b[:, :19]).view("S19")[:, 0]
                   .astype("datetime64[s]").astype(np.int64))
    except ValueError:
        return None
    suffixes, which = np.unique(
        np.ascontiguousarray(b[:, 19:]).view(f"S{b.shape[1] - 19}")[:, 0], return_inverse=True)
    shifts = [_suffix_shift_us(suffix.decode()) for suffix in suffixes]
    if None in shifts:
        return None
    utc_us = local_s * 1_000_000 + np.array(shifts, dtype=np.int64)[which]
    ordinal = utc_us // _US_PER_DAY + _EPOCH_ORDINAL
    return np.where((ordinal >= 1) & (ordinal <= _MAX_ORDINAL), ordinal, 0).astype(np.intp)


def _parse_cells(parse, cells) -> list:
    """``parse`` of each cell in turn, up to the first that raises
    ValueError: the list is as long as the run of good cells."""
    values = []
    try:
        values.extend(map(parse, cells))    # keeps what it took before the raise
    except ValueError:
        pass
    return values


def _utc_day(stamp: str) -> int:
    """The UTC day ordinal of an ISO timestamp (a naive one is taken as
    UTC), or 0 when that day is outside ``datetime``'s range."""
    timestamp = dt.datetime.fromisoformat(stamp.replace("Z", "+00:00"))
    try:
        return (timestamp if timestamp.tzinfo is None
                else timestamp.astimezone(dt.timezone.utc)).toordinal()
    except OverflowError:
        return 0


def _first(mask) -> int:
    """The index of the first true entry of ``mask``, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _post_columns(lines, post_id, stamps, platform, urls, likes, sentiment) -> PostColumns:
    """One block's posts as columns.  Raises naming the first row that
    breaks a rule, with the first rule it breaks in the order below.  A
    column whose parse fails is read up to that row only, and that row
    breaks the parse rule, which precedes every rule on the column."""
    likes_int = _parse_cells(int, likes)
    sent = _parse_cells(float, [cell or "nan" for cell in sentiment])
    day = _utc_day_ordinals(stamps)
    if day is None:
        day = np.array(_parse_cells(_utc_day, stamps), dtype=np.intp)
    try:
        likes_val = np.array(likes_int, dtype=np.float64)
    except OverflowError:       # float() of the text rounds alike but gives +-inf, not raises
        likes_val = np.array(list(map(float, likes[:len(likes_int)])))
    sent_val = np.array(sent, dtype=np.float64)
    outside = np.flatnonzero(~((sent_val >= -1.0) & (sent_val <= 1.0))).tolist()
    rules = [   # (first row that breaks it, its message for row i)
        (len(likes_int), lambda i: f"likes must be an integer, got {likes[i]!r}"),
        (len(sent), lambda i: f"sentiment must be a number, got {sentiment[i]!r}"),
        (len(day), lambda i: f"cannot parse timestamp {stamps[i]!r}"),
        (len(platform) if set(platform) <= set(PLATFORMS)   # the cells: numpy drops a NUL
         else [cell in PLATFORMS for cell in platform].index(False),
         lambda i: f"unknown platform {platform[i]!r}; expected one of {PLATFORMS}"),
        (_first(likes_val < 0),
         lambda i: f"post {post_id[i]}: likes must be >= 0, got {likes_int[i]}"),
        (next((i for i in outside if sentiment[i]), len(sent)),     # empty reads as NaN
         lambda i: f"post {post_id[i]}: sentiment {sent[i]} outside [-1, 1]"),
        (_first(np.isinf(likes_val)), lambda i: f"likes {likes[i]!r} too large"),
        (_first(day < 1), lambda i: f"timestamp {stamps[i]!r} is out of range in UTC"),
    ]
    row, message = min(rules, key=lambda rule: rule[0])     # the earlier rule on a tie
    if row < len(lines):
        raise ValueError(f"posts row {lines[row]}: {message(row)}")
    return PostColumns(post_id=post_id, day=day, platform=np.array(platform, dtype=str),
                       url_or_domain=urls, likes=likes_val, sentiment=sent_val)


def read_posts_csv(path) -> PostColumns:
    """Parse the posts CSV (see POSTS_HEADER) into columns; raises naming
    the first malformed row."""
    return PostColumns.concat([_post_columns(lines, *columns) for lines, columns
                               in _csv_blocks(path, POSTS_HEADER, "posts")])


def read_bias_csv(path) -> BiasTable:
    """The bias table of the CSV at ``path``: each row's leaning is one of LEANINGS
    and its domain parses and keeps one leaning.  An error names the row."""
    table = BiasTable()
    entries = table.entries
    for lines, (raw_domains, leanings) in _csv_blocks(path, BIAS_HEADER, "bias"):
        for line_no, raw_domain, leaning in zip(lines, raw_domains, leanings):
            try:
                if leaning not in LEANINGS:
                    raise ValueError(f"unknown leaning {leaning!r}")
                domain = extract_domain(raw_domain)
                if entries.setdefault(domain, leaning) != leaning:
                    raise ValueError(f"conflicting leanings for domain {domain!r}: "
                                     f"{entries[domain]!r} vs {leaning!r}")
            except ValueError as exc:   # name the row, keep the exception type
                raise type(exc)(f"bias row {line_no}: {exc}") from None
    return table


def _format_value(v) -> str:
    v = float(v)
    if math.isnan(v):
        return ""
    return str(int(v)) if v == int(v) else repr(v)


def write_series_csv(series_by_leaning: dict, path) -> None:
    """Write the five-leaning daily series in column format."""
    missing = [l for l in LEANINGS if l not in series_by_leaning]
    if missing:
        raise ValueError(f"series missing leanings: {missing}")
    lengths = {len(series_by_leaning[l]) for l in LEANINGS}
    starts = {series_by_leaning[l].start_date for l in LEANINGS}
    if len(lengths) != 1 or len(starts) != 1:
        raise ValueError("all leaning series must share start date and length")
    _write_columns(path, SERIES_HEADER, series_by_leaning[LEANINGS[0]].dates(),
                   [series_by_leaning[l].values for l in LEANINGS])


def write_value_series_csv(series: DailySeries, path) -> None:
    """Single-series export: header date,value."""
    _write_columns(path, ["date", "value"], series.dates(), [series.values])


def _write_columns(path, header: list, dates, columns) -> None:
    """One CSV row per day: its ISO date, then its value in each column."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for day, *values in zip(dates, *columns):
            handle.write(",".join([day.isoformat(), *map(_format_value, values)]) + "\n")

"""Post ingestion: parse raw posts and a media-bias table, label each post
with a political leaning by its news domain, and aggregate daily series.

A post is labeled by the registrable domain of the URL it shares; posts
whose domain is not in the bias table stay unlabeled and are excluded from
the series (the summary reports how many).  The domain is parsed once per
distinct URL authority (scheme and host), not once per post.
:func:`aggregate` labels every post once and reads its UTC day, likes and
sentiment into arrays; the summary and every metric's series then come from
those arrays, each series as one ``np.bincount`` over (leaning, day) cells.
Count and likes series are zero-filled on empty days; mean-sentiment series
carry NaN on days with no posts, since a mean over nothing is undefined
rather than zero.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import json
import math
import re
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class PostRecord:
    post_id: str
    timestamp: dt.datetime
    platform: str
    url_or_domain: str
    likes: int
    sentiment: float | None = None

    def __post_init__(self):
        if self.platform not in PLATFORMS:
            raise ValueError(f"unknown platform {self.platform!r}; expected one of {PLATFORMS}")
        if self.likes < 0:
            raise ValueError(f"post {self.post_id}: likes must be >= 0, got {self.likes}")
        if self.sentiment is not None and not -1.0 <= self.sentiment <= 1.0:
            raise ValueError(
                f"post {self.post_id}: sentiment {self.sentiment} outside [-1, 1]")

    @property
    def utc_date(self) -> dt.date:
        ts = self.timestamp
        if ts.tzinfo is not None:
            ts = ts.astimezone(dt.timezone.utc)
        return ts.date()


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
    entries: dict = field(default_factory=dict)   # registrable domain -> leaning

    def __post_init__(self):
        for domain, leaning in self.entries.items():
            if leaning not in LEANINGS:
                raise ValueError(f"unknown leaning {leaning!r} for domain {domain!r}")

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_pairs(cls, pairs) -> "BiasTable":
        entries = {}
        for raw_domain, leaning in pairs:
            domain = extract_domain(raw_domain)
            if domain in entries and entries[domain] != leaning:
                raise ValueError(
                    f"conflicting leanings for domain {domain!r}: "
                    f"{entries[domain]!r} vs {leaning!r}")
            entries[domain] = leaning
        return cls(entries)

    def leaning_for(self, url_or_domain: str) -> str | None:
        return self.entries.get(extract_domain(url_or_domain))


def label_post(post: PostRecord, table: BiasTable) -> str | None:
    """The bias table's leaning for the post's domain, or None if unknown."""
    if not table.entries:
        raise ValueError("bias table is empty")
    try:
        return table.leaning_for(post.url_or_domain)
    except ValueError as exc:           # name the post, keep the exception type
        raise type(exc)(f"post {post.post_id}: {exc}") from None


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
    posts = list(posts)
    code_of = {**{leaning: code for code, leaning in enumerate(LEANINGS)}, None: -1}
    codes = np.array([code_of[label_post(p, table)] for p in posts], dtype=np.intp)
    days = np.array([p.utc_date.toordinal() for p in posts], dtype=np.intp)
    likes = np.array([p.likes for p in posts], dtype=np.float64)
    sentiment = np.array([np.nan if p.sentiment is None else p.sentiment for p in posts],
                         dtype=np.float64)

    labeled = codes >= 0
    n_total, n_labeled = len(posts), int(labeled.sum())
    per_leaning = np.bincount(codes[labeled], minlength=len(LEANINGS)).tolist()
    summary = IngestSummary(
        total_posts=n_total, labeled_posts=n_labeled, unlabeled_posts=n_total - n_labeled,
        per_leaning_counts=dict(zip(LEANINGS, per_leaning)),
        date_range=(dt.date.fromordinal(int(days.min())),
                    dt.date.fromordinal(int(days.max()))) if posts else None)
    platforms = {p.platform for p in posts}
    platform = (platforms.pop() if len(platforms) == 1
                else "mixed" if platforms else "unknown")

    n_days = (end - start).days + 1
    day = days - start.toordinal()
    kept = labeled & (day >= 0) & (day < n_days)
    cell = codes[kept] * n_days + day[kept]

    def daily_sums(weights=None):
        return np.bincount(cell, weights, minlength=len(LEANINGS) * n_days).astype(np.float64)

    def series_of(metric):
        if metric == "post_count":
            values = daily_sums()
        elif metric == "likes_sum":
            values = daily_sums(likes[kept])
        else:
            missing = kept & np.isnan(sentiment)
            if missing.any():
                ids = sorted(p.post_id for p, m in zip(posts, missing) if m)
                raise ValueError(f"posts missing sentiment: {', '.join(ids)}")
            counts = daily_sums()
            values = np.where(counts > 0,
                              daily_sums(sentiment[kept]) / np.maximum(counts, 1), np.nan)
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


def _csv_rows(path, header: list, what: str):
    """``(line_no, stripped cells)`` per non-blank data row of the CSV at
    ``path``, once its header is ``header`` and each row has as many fields."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        got = next(reader, None)
        if got != header:
            raise ValueError(f"{what} CSV header must be {','.join(header)}, got {got}")
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{what} row {line_no}: expected {len(header)} fields, "
                                 f"got {len(cells)}")
            yield line_no, [c.strip() for c in cells]


def read_posts_csv(path) -> list:
    """Parse the posts CSV (see POSTS_HEADER); raises with the row number
    on any malformed field."""
    posts = []
    for line_no, cells in _csv_rows(path, POSTS_HEADER, "posts"):
        where = f"posts row {line_no}"
        post_id, ts, platform, url, likes, sentiment = cells
        try:
            likes_val = int(likes)
        except ValueError:
            raise ValueError(f"{where}: likes must be an integer, got {likes!r}") from None
        try:
            sent_val = float(sentiment) if sentiment else None
        except ValueError:
            raise ValueError(f"{where}: sentiment must be a number, got {sentiment!r}") from None
        try:
            timestamp = dt.datetime.fromisoformat(ts.replace("Z", "+00:00"))
        except ValueError:
            raise ValueError(f"{where}: cannot parse timestamp {ts!r}") from None
        try:
            posts.append(PostRecord(post_id=post_id, timestamp=timestamp, platform=platform,
                                    url_or_domain=url, likes=likes_val, sentiment=sent_val))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return posts


def read_bias_csv(path) -> BiasTable:
    pairs = []
    for line_no, (domain, leaning) in _csv_rows(path, BIAS_HEADER, "bias"):
        if leaning not in LEANINGS:
            raise ValueError(f"bias row {line_no}: unknown leaning {leaning!r}")
        pairs.append((domain, leaning))
    return BiasTable.from_pairs(pairs)


def _format_value(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return ""
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v))


def write_series_csv(series_by_leaning: dict, path) -> None:
    """Write the five-leaning daily series in column format."""
    missing = [l for l in LEANINGS if l not in series_by_leaning]
    if missing:
        raise ValueError(f"series missing leanings: {missing}")
    lengths = {len(series_by_leaning[l]) for l in LEANINGS}
    starts = {series_by_leaning[l].start_date for l in LEANINGS}
    if len(lengths) != 1 or len(starts) != 1:
        raise ValueError("all leaning series must share start date and length")
    base = series_by_leaning[LEANINGS[0]]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(SERIES_HEADER) + "\n")
        for i, day in enumerate(base.dates()):
            cells = [day.isoformat()] + [
                _format_value(float(series_by_leaning[l].values[i])) for l in LEANINGS]
            handle.write(",".join(cells) + "\n")


def write_value_series_csv(series: DailySeries, path) -> None:
    """Single-series export: header date,value."""
    with open(path, "w", newline="") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates(), series.values):
            handle.write(f"{day.isoformat()},{_format_value(float(value))}\n")

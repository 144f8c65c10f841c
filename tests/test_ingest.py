import collections
import datetime as dt
import json
import random
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leancast import ingest
from leancast.ingest import (LEANINGS, BiasTable, DomainParseError, IngestSummary,
                             PostColumns, PostRecord, aggregate, aggregate_daily,
                             daily_mean_sentiment,
                             extract_domain, label_post, read_bias_csv,
                             read_posts_csv, summarize, write_series_csv,
                             write_value_series_csv)
from leancast.series import DailySeries
from reference_kernels import (per_record_aggregate, per_row_read_posts_csv,
                               per_url_extract_domain)

DATA = Path(__file__).parent / "data"


def post(pid="p1", ts="2018-01-01T12:00:00", platform="twitter",
         url="https://cnn.com/x", likes=0, sentiment=None):
    return PostRecord(post_id=pid, timestamp=dt.datetime.fromisoformat(ts),
                      platform=platform, url_or_domain=url, likes=likes,
                      sentiment=sentiment)


@pytest.fixture
def table():
    return BiasTable.from_pairs([
        ("cnn.com", "left"), ("nytimes.com", "left_leaning"),
        ("reuters.com", "center"), ("wsj.com", "right_leaning"),
        ("foxnews.com", "right"),
    ])


class TestExtractDomain:
    @pytest.mark.parametrize("raw,expected", [
        ("https://www.cnn.com/politics/article.html", "cnn.com"),
        ("http://Breitbart.COM/tag/x", "breitbart.com"),
        ("https://www.bbc.co.uk/news/uk-12345", "bbc.co.uk"),
        ("edition.cnn.com", "cnn.com"),
        ("foxnews.com", "foxnews.com"),
        ("cnn.com:8080", "cnn.com"),
        ("cnn.com/article/1", "cnn.com"),
        ("cnn.com.", "cnn.com"),
        ("WWW.FoxNews.com", "foxnews.com"),
    ])
    def test_examples(self, raw, expected):
        assert extract_domain(raw) == expected

    @pytest.mark.parametrize("raw", ["not a url ::", "", "   ", "localhost",
                                     "https:///nohost", "weird_chars!.com"])
    def test_unparseable_rejected(self, raw):
        with pytest.raises(DomainParseError):
            extract_domain(raw)

    def test_idempotent(self):
        for raw in ("https://www.cnn.com/a", "news.bbc.co.uk", "WSJ.com"):
            once = extract_domain(raw)
            assert extract_domain(once) == once


# pieces of URL-like text: delimiters, ports, userinfo, brackets, two-label
# suffixes, case, whitespace, C0 controls, and characters that NFKC maps to
# a delimiter (fullwidth solidus, question mark, number sign, colon, at sign,
# ideographic full stop) or that lowercase to ASCII (Kelvin sign)
URL_ATOMS = [
    "://", "//", "/", "?", "#", "@", ":", "[", "]", ".", "-", "_",
    ":80", ":8080", ":0", ":x", "www.", "WWW.", "co.uk", "com.au", ".co.uk",
    "cnn", "CNN", "bbc", "news", "com", "org", "a", "z9", "http", "HTTPS", "ftp",
    "h-t+t.p", "user:pw@", "[::1]", "[v1.x]", "[fe80::1%eth0]", "%2F",
    " ", "\t", "\n", "\r", "\x00", "\x01", "\x1c", "\x1f", "\x7f", "\x85",
    "\u3000", "\uff0f", "\uff1f", "\uff03", "\uff1a", "\uff20", "\u3002",
    "\u2100", "\u212a", "\u0130", "\u00e9",
]


def fuzzed_urls(seed: int, n: int):
    rng = random.Random(seed)
    for _ in range(n):
        yield "".join(rng.choice(URL_ATOMS) for _ in range(rng.randint(1, 10)))


def outcome(fn, text):
    try:
        return fn(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestExtractDomainMemo:
    """``extract_domain`` parses a cut authority once per distinct value;
    :func:`per_url_extract_domain` parses the whole text every call."""

    def test_matches_per_url_parse_on_fuzzed_text(self):
        ingest._authority_domain.cache_clear()
        mismatches = [text for text in fuzzed_urls(10, 200_000)
                      if outcome(extract_domain, text) != outcome(per_url_extract_domain, text)]
        assert mismatches == []
        info = ingest._authority_domain.cache_info()
        assert info.hits > 0 and info.currsize > 0

    def test_fixture_parses_each_authority_once(self, monkeypatch):
        parsed, urlsplit = collections.Counter(), ingest.urlsplit

        def counting(text):
            parsed[text] += 1
            return urlsplit(text)

        monkeypatch.setattr(ingest, "urlsplit", counting)
        ingest._authority_domain.cache_clear()
        table = read_bias_csv(DATA / "bias.csv")
        posts = read_posts_csv(DATA / "posts_100.csv")
        summary = summarize(posts, table)
        want = collections.Counter(table.entries.get(per_url_extract_domain(url))
                                   for url in posts.url_or_domain)
        authorities = {urlsplit(url)[:2] for url in posts.url_or_domain}
        assert summary.per_leaning_counts == {leaning: want[leaning] for leaning in LEANINGS}
        assert summary.unlabeled_posts == want[None] and len(posts) == 100
        assert 0 < sum(parsed.values()) <= len(authorities) < len(posts)
        assert max(parsed.values()) == 1

    def test_failure_raises_each_time_with_its_own_message(self):
        ingest._authority_domain.cache_clear()
        for raw in ("//www.cnn.com/b", "//www.cnn.com/b", " //www.cnn.com/c",
                    "https:///b", "https:///b", "HTTPS:///c?d"):
            with pytest.raises(DomainParseError) as info:
                extract_domain(raw)
            assert str(info.value) == f"cannot extract a domain from {raw!r}"
        assert ingest._authority_domain.cache_info().currsize == 0


class TestPostRecord:
    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            post(platform="myspace")

    def test_negative_likes_rejected(self):
        with pytest.raises(ValueError):
            post(likes=-1)

    def test_sentiment_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            post(sentiment=1.5)

    def test_utc_date_converts_zone(self):
        late_eastern = PostRecord(
            post_id="tz", platform="twitter", url_or_domain="cnn.com", likes=0,
            timestamp=dt.datetime(2018, 1, 1, 23, 30,
                                  tzinfo=dt.timezone(dt.timedelta(hours=-5))))
        assert late_eastern.utc_date == dt.date(2018, 1, 2)

    def test_naive_timestamp_taken_as_is(self):
        assert post(ts="2018-01-01T23:30:00").utc_date == dt.date(2018, 1, 1)


class TestBiasTable:
    def test_pairs_are_normalized(self):
        t = BiasTable.from_pairs([("WWW.FoxNews.com", "right")])
        assert t.leaning_for("https://foxnews.com/story") == "right"

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            BiasTable.from_pairs([("cnn.com", "left"), ("www.cnn.com", "center")])

    def test_agreeing_duplicate_allowed(self):
        t = BiasTable.from_pairs([("cnn.com", "left"), ("www.cnn.com", "left")])
        assert len(t) == 1

    def test_unknown_leaning_rejected(self):
        with pytest.raises(ValueError):
            BiasTable(entries={"x.com": "far_left"})

    def test_unknown_domain_maps_to_none(self, table):
        assert table.leaning_for("https://example.org/a") is None


class TestLabelPost:
    def test_label_by_url(self, table):
        assert label_post(post(url="https://www.cnn.com/a"), table) == "left"

    def test_unlisted_domain_is_unlabeled(self, table):
        assert label_post(post(url="https://example.org/a"), table) is None

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            label_post(post(), BiasTable())

    def test_unparseable_url_names_the_post(self, table):
        with pytest.raises(DomainParseError) as info:
            label_post(post(pid="p9", url="//cnn.com/a"), table)
        assert str(info.value) == "post p9: cannot extract a domain from '//cnn.com/a'"


AGG_POSTS = [
    dict(pid="a", ts="2018-01-01T08:00:00", url="https://cnn.com/1", likes=3),
    dict(pid="b", ts="2018-01-01T21:00:00", url="https://www.cnn.com/2", likes=7),
    dict(pid="c", ts="2018-01-01T12:00:00", url="http://foxnews.com/x", likes=5),
    dict(pid="d", ts="2018-01-02T09:00:00", url="cnn.com/y", likes=2),
    dict(pid="e", ts="2018-01-02T09:00:00", url="https://example.org/z", likes=9),
]
JAN_1_3 = (dt.date(2018, 1, 1), dt.date(2018, 1, 3))


class TestAggregateDaily:
    def test_post_counts_by_hand(self, table):
        posts = [post(**kw) for kw in AGG_POSTS]
        series = aggregate_daily(posts, table, "post_count", JAN_1_3)
        npt.assert_array_equal(series["left"].values, [2, 1, 0])
        npt.assert_array_equal(series["right"].values, [1, 0, 0])
        for leaning in ("left_leaning", "center", "right_leaning"):
            npt.assert_array_equal(series[leaning].values, [0, 0, 0])

    def test_likes_sums_by_hand(self, table):
        posts = [post(**kw) for kw in AGG_POSTS]
        series = aggregate_daily(posts, table, "likes_sum", JAN_1_3)
        npt.assert_array_equal(series["left"].values, [10, 2, 0])
        npt.assert_array_equal(series["right"].values, [5, 0, 0])

    def test_posts_outside_window_dropped(self, table):
        posts = [post(ts="2017-12-31T23:00:00"), post(ts="2018-01-05T00:00:00")]
        series = aggregate_daily(posts, table, "post_count", JAN_1_3)
        assert series["left"].values.sum() == 0

    def test_window_of_study_is_120_days(self, table):
        window = (dt.date(2018, 1, 1), dt.date(2018, 4, 30))
        series = aggregate_daily([post()], table, "post_count", window)
        assert len(series["left"]) == 120

    def test_platform_recorded(self, table):
        series = aggregate_daily([post(), post(pid="p2")], table, "post_count", JAN_1_3)
        assert series["left"].platform == "twitter"
        mixed = aggregate_daily([post(), post(pid="g", platform="gab")],
                                table, "post_count", JAN_1_3)
        assert mixed["left"].platform == "mixed"

    def test_unknown_metric_rejected(self, table):
        with pytest.raises(ValueError):
            aggregate_daily([post()], table, "sentiment_mean", JAN_1_3)

    def test_inverted_window_rejected(self, table):
        with pytest.raises(ValueError):
            aggregate_daily([post()], table, "post_count",
                            (dt.date(2018, 1, 3), dt.date(2018, 1, 1)))

    @given(st.permutations(range(len(AGG_POSTS))))
    @settings(max_examples=20, deadline=None)
    def test_order_invariant(self, order):
        t = BiasTable.from_pairs([("cnn.com", "left"), ("foxnews.com", "right")])
        base = aggregate_daily([post(**kw) for kw in AGG_POSTS], t, "likes_sum", JAN_1_3)
        shuffled = aggregate_daily([post(**AGG_POSTS[i]) for i in order],
                                   t, "likes_sum", JAN_1_3)
        for leaning in base:
            npt.assert_array_equal(base[leaning].values, shuffled[leaning].values)


class TestDailyMeanSentiment:
    def test_opposite_scores_cancel(self, table):
        posts = [post(pid="u", sentiment=0.5), post(pid="v", sentiment=-0.5)]
        series = daily_mean_sentiment(posts, table, JAN_1_3)
        assert series["left"].values[0] == 0.0

    def test_singleton_day(self, table):
        series = daily_mean_sentiment([post(sentiment=-0.8)], table, JAN_1_3)
        assert series["left"].values[0] == pytest.approx(-0.8)

    def test_empty_days_are_nan_not_zero(self, table):
        series = daily_mean_sentiment([post(sentiment=0.4)], table, JAN_1_3)
        assert np.isnan(series["left"].values[1])
        assert np.isnan(series["right"].values[0])

    def test_missing_sentiment_reported_sorted(self, table):
        posts = [post(pid="p9"), post(pid="p2"), post(pid="ok", sentiment=0.1)]
        with pytest.raises(ValueError, match="p2, p9"):
            daily_mean_sentiment(posts, table, JAN_1_3)

    def test_unlabeled_posts_never_block(self, table):
        # sentiment missing on a post we drop anyway
        posts = [post(pid="x", url="https://example.org/a"),
                 post(pid="ok", sentiment=0.3)]
        series = daily_mean_sentiment(posts, table, JAN_1_3)
        assert series["left"].values[0] == pytest.approx(0.3)


class TestSummarize:
    def test_counts_and_range(self, table):
        posts = [post(**kw) for kw in AGG_POSTS]
        summary = summarize(posts, table)
        assert summary.total_posts == 5
        assert summary.labeled_posts == 4
        assert summary.unlabeled_posts == 1
        assert summary.per_leaning_counts["left"] == 3
        assert summary.per_leaning_counts["right"] == 1
        assert summary.date_range == (dt.date(2018, 1, 1), dt.date(2018, 1, 2))

    def test_empty_corpus(self, table):
        summary = summarize([], table)
        assert summary.total_posts == 0
        assert summary.date_range is None

    def test_json_shape(self, table):
        doc = json.loads(summarize([post()], table).to_json())
        assert doc["total_posts"] == 1
        assert doc["date_range"] == ["2018-01-01", "2018-01-01"]

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ValueError):
            IngestSummary(total_posts=2, labeled_posts=2, unlabeled_posts=1,
                          per_leaning_counts={"left": 2}, date_range=None)
        with pytest.raises(ValueError):
            IngestSummary(total_posts=2, labeled_posts=2, unlabeled_posts=0,
                          per_leaning_counts={"left": 1}, date_range=None)


# -- the per-metric loops that aggregate replaced, kept as oracles ---------


def oracle_summarize(posts, table: BiasTable) -> IngestSummary:
    per_leaning = {leaning: 0 for leaning in LEANINGS}
    labeled = 0
    dates = []
    for post in posts:
        dates.append(post.utc_date)
        leaning = label_post(post, table)
        if leaning is not None:
            labeled += 1
            per_leaning[leaning] += 1
    total = len(dates)
    return IngestSummary(
        total_posts=total, labeled_posts=labeled, unlabeled_posts=total - labeled,
        per_leaning_counts=per_leaning,
        date_range=(min(dates), max(dates)) if dates else None)


def _window_days(window) -> tuple:
    start, end = window
    if start > end:
        raise ValueError(f"empty date window: {start} > {end}")
    return start, end, (end - start).days + 1


def _posts_platform(posts) -> str:
    platforms = {p.platform for p in posts}
    if len(platforms) == 1:
        return platforms.pop()
    return "mixed" if platforms else "unknown"


def oracle_aggregate_daily(posts, table: BiasTable, metric: str, window) -> dict:
    if metric not in ("post_count", "likes_sum"):
        raise ValueError(f"unknown aggregation metric {metric!r}")
    start, end, n_days = _window_days(window)
    totals = {leaning: np.zeros(n_days) for leaning in LEANINGS}
    for post in posts:
        leaning = label_post(post, table)
        if leaning is None:
            continue
        day = post.utc_date
        if day < start or day > end:
            continue
        totals[leaning][(day - start).days] += 1 if metric == "post_count" else post.likes
    platform = _posts_platform(posts)
    return {leaning: DailySeries(start_date=start, values=totals[leaning],
                                 platform=platform, leaning=leaning, metric=metric)
            for leaning in LEANINGS}


def oracle_daily_mean_sentiment(posts, table: BiasTable, window) -> dict:
    start, end, n_days = _window_days(window)
    sums = {leaning: np.zeros(n_days) for leaning in LEANINGS}
    counts = {leaning: np.zeros(n_days) for leaning in LEANINGS}
    missing = []
    for post in posts:
        leaning = label_post(post, table)
        if leaning is None:
            continue
        day = post.utc_date
        if day < start or day > end:
            continue
        if post.sentiment is None:
            missing.append(post.post_id)
            continue
        idx = (day - start).days
        sums[leaning][idx] += post.sentiment
        counts[leaning][idx] += 1
    if missing:
        raise ValueError(f"posts missing sentiment: {', '.join(sorted(missing))}")
    platform = _posts_platform(posts)
    out = {}
    for leaning in LEANINGS:
        with np.errstate(invalid="ignore"):
            means = np.where(counts[leaning] > 0,
                             sums[leaning] / np.maximum(counts[leaning], 1), np.nan)
        out[leaning] = DailySeries(start_date=start, values=means, platform=platform,
                                   leaning=leaning, metric="sentiment_mean")
    return out


def oracle_series(posts, table, metric, window) -> dict:
    if metric == "sentiment_mean":
        return oracle_daily_mean_sentiment(posts, table, window)
    return oracle_aggregate_daily(posts, table, metric, window)


JAN_1_5 = (dt.date(2018, 1, 1), dt.date(2018, 1, 5))
# (id, timestamp, platform, url, likes, sentiment); UTC days in the comments
ORACLE_POSTS = [
    ("n1", "2018-01-01T00:00:00", "twitter", "https://cnn.com/a", 3, 0.1),       # 01
    ("n2", "2018-01-01T12:00:00", "twitter", "www.cnn.com/b", 5, 0.2),           # 01
    ("n3", "2018-01-01T18:00:00", "gab", "http://edition.cnn.com/c", 11, 0.7),   # 01
    ("z1", "2018-01-01T23:30:00-05:00", "twitter", "cnn.com", 2, -0.3),          # 02
    ("z2", "2018-01-03T01:00:00+03:00", "gab", "https://foxnews.com/x", 7, 0.6),  # 02
    ("z3", "2018-01-02T08:15:00Z", "gab", "foxnews.com/y", 1, 0.3),              # 02
    ("z4", "2018-01-02T20:00:00+01:00", "twitter", "https://wsj.com/z", 4, -0.9),  # 02
    ("n4", "2018-01-03T10:00:00", "twitter", "reuters.com", 0, 0.0),             # 03
    ("n5", "2018-01-05T23:59:59", "gab", "https://nytimes.com/q", 9, 0.45),      # 05
    ("z5", "2018-01-05T20:00:00-03:00", "twitter", "cnn.com/late", 6, 0.15),     # 05
    ("u1", "2018-01-02T09:00:00", "twitter", "https://example.org/p", 8, 0.5),   # unlabeled
    ("u2", "2018-01-03T09:00:00", "gab", "example.org", 4, None),                # unlabeled
    # just outside the window, one of them without a sentiment
    ("o1", "2017-12-31T23:59:59", "twitter", "cnn.com", 13, 0.9),
    ("o2", "2018-01-01T02:00:00+05:00", "gab", "cnn.com", 17, -0.8),             # 12-31
    ("o3", "2018-01-06T00:00:00Z", "twitter", "foxnews.com", 19, None),
    ("o4", "2018-01-05T22:00:00-03:00", "gab", "wsj.com", 23, 0.25),             # 06
]
ORACLE_TABLE = [("cnn.com", "left"), ("nytimes.com", "left_leaning"),
                ("reuters.com", "center"), ("wsj.com", "right_leaning"),
                ("foxnews.com", "right")]


def oracle_corpus():
    return [PostRecord(post_id=pid, timestamp=dt.datetime.fromisoformat(
        ts.replace("Z", "+00:00")), platform=platform, url_or_domain=url, likes=likes,
        sentiment=sentiment) for pid, ts, platform, url, likes, sentiment in ORACLE_POSTS]


def random_corpus(seed: int, n: int = 400):
    """Posts spread over the window and two days either side, with random
    offsets, platforms, unlabeled domains and fractional sentiments."""
    rng = random.Random(seed)
    domains = [d for d, _ in ORACLE_TABLE] + ["example.org", "blog.example.net"]
    posts = []
    for i in range(n):
        stamp = dt.datetime(2017, 12, 30) + dt.timedelta(seconds=rng.randrange(9 * 86400))
        if rng.random() < 0.6:
            stamp = stamp.replace(tzinfo=dt.timezone(dt.timedelta(hours=rng.randint(-11, 13))))
        domain = rng.choice(domains)
        labeled = domain not in ("example.org", "blog.example.net")
        sentiment = None if not labeled and rng.random() < 0.5 else round(rng.uniform(-1, 1), 3)
        posts.append(PostRecord(post_id=f"r{i}", timestamp=stamp,
                                platform=rng.choice(["twitter", "gab"]),
                                url_or_domain=f"https://{domain}/{i}",
                                likes=rng.randrange(1000), sentiment=sentiment))
    return posts


def assert_same_bytes(got: dict, want: dict):
    assert list(got) == list(want) == list(LEANINGS)
    for leaning in LEANINGS:
        g, w = got[leaning], want[leaning]
        assert (g.start_date, g.platform, g.leaning, g.metric) == \
            (w.start_date, w.platform, w.leaning, w.metric)
        assert g.values.dtype == w.values.dtype == np.float64
        assert g.values.tobytes() == w.values.tobytes()


METRIC_NAMES = ("post_count", "likes_sum", "sentiment_mean")


class TestAggregateMatchesPerMetricLoops:
    def test_corpus_covers_the_edge_cases(self):
        posts, table = oracle_corpus(), BiasTable.from_pairs(ORACLE_TABLE)
        counts = oracle_aggregate_daily(posts, table, "post_count", JAN_1_5)
        assert counts["left"].values[0] == 3 and counts["right"].values[1] == 2
        sentiment = oracle_daily_mean_sentiment(posts, table, JAN_1_5)
        assert np.isnan(sentiment["center"].values).sum() == 4
        summary = oracle_summarize(posts, table)
        assert summary.unlabeled_posts == 2
        assert summary.date_range == (dt.date(2017, 12, 31), dt.date(2018, 1, 6))

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_each_metric(self, metric):
        posts, table = oracle_corpus(), BiasTable.from_pairs(ORACLE_TABLE)
        want = oracle_series(posts, table, metric, JAN_1_5)
        got = (daily_mean_sentiment(posts, table, JAN_1_5) if metric == "sentiment_mean"
               else aggregate_daily(posts, table, metric, JAN_1_5))
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("platform", [None, "twitter", "gab"])
    def test_one_pass_for_everything(self, seed, platform):
        posts = [p for p in oracle_corpus() + random_corpus(seed)
                 if platform in (None, p.platform)]
        table = BiasTable.from_pairs(ORACLE_TABLE)
        summary, got_platform, by_metric = aggregate(posts, table, JAN_1_5, METRIC_NAMES)
        assert summary == oracle_summarize(posts, table)
        assert summary.to_json() == oracle_summarize(posts, table).to_json()
        assert got_platform == _posts_platform(posts) == (platform or "mixed")
        assert list(by_metric) == list(METRIC_NAMES)
        for metric in METRIC_NAMES:
            assert_same_bytes(by_metric[metric], oracle_series(posts, table, metric, JAN_1_5))

    def test_windows_shorter_and_longer_than_the_corpus(self):
        posts, table = oracle_corpus() + random_corpus(9), BiasTable.from_pairs(ORACLE_TABLE)
        for window in [(dt.date(2018, 1, 3), dt.date(2018, 1, 3)),
                       (dt.date(2017, 12, 1), dt.date(2018, 2, 1)),
                       (dt.date(2019, 1, 1), dt.date(2019, 1, 2))]:
            _, _, by_metric = aggregate(posts, table, window, ("post_count", "likes_sum"))
            for metric in ("post_count", "likes_sum"):
                assert_same_bytes(by_metric[metric], oracle_series(posts, table, metric, window))
        # the long window takes in o3, which has a label but no sentiment
        long_window = (dt.date(2017, 12, 1), dt.date(2018, 2, 1))
        with pytest.raises(ValueError, match="posts missing sentiment: o3$"):
            oracle_daily_mean_sentiment(posts, table, long_window)
        with pytest.raises(ValueError, match="posts missing sentiment: o3$"):
            aggregate(posts, table, long_window, METRIC_NAMES)
        for window in [(dt.date(2018, 1, 3), dt.date(2018, 1, 3)),
                       (dt.date(2019, 1, 1), dt.date(2019, 1, 2))]:
            _, _, by_metric = aggregate(posts, table, window, ("sentiment_mean",))
            assert_same_bytes(by_metric["sentiment_mean"],
                              oracle_daily_mean_sentiment(posts, table, window))

    def test_summary_of_no_posts(self):
        table = BiasTable.from_pairs(ORACLE_TABLE)
        assert summarize([], table) == oracle_summarize([], table)
        _, platform, by_metric = aggregate([], table, JAN_1_5, METRIC_NAMES)
        assert platform == "unknown"
        for metric in METRIC_NAMES:
            assert_same_bytes(by_metric[metric], oracle_series([], table, metric, JAN_1_5))

    def test_missing_sentiment_fails_only_for_sentiment_mean(self):
        posts = oracle_corpus() + [post(pid="m2", url="cnn.com", ts="2018-01-04T10:00:00"),
                                   post(pid="m1", url="wsj.com", ts="2018-01-02T10:00:00")]
        table = BiasTable.from_pairs(ORACLE_TABLE)
        _, _, by_metric = aggregate(posts, table, JAN_1_5, ("post_count", "likes_sum"))
        assert_same_bytes(by_metric["likes_sum"],
                          oracle_series(posts, table, "likes_sum", JAN_1_5))
        with pytest.raises(ValueError) as want:
            oracle_daily_mean_sentiment(posts, table, JAN_1_5)
        with pytest.raises(ValueError) as got:
            aggregate(posts, table, JAN_1_5, ("post_count", "sentiment_mean"))
        assert str(got.value) == str(want.value) == "posts missing sentiment: m1, m2"

    def test_unknown_metric_rejected(self, table):
        with pytest.raises(ValueError, match="unknown aggregation metric 'likes'"):
            aggregate([post()], table, JAN_1_3, ("post_count", "likes"))


POSTS_CSV = """post_id,timestamp,platform,url_or_domain,likes,sentiment
t1,2018-01-01T08:00:00,twitter,https://cnn.com/a,3,0.5
t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,
g1,2018-01-02T10:00:00,gab,https://wsj.com/b,12,-0.25
"""


def csv_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestPostsCsv:
    def test_parse_fields(self, tmp_path):
        posts = read_posts_csv(csv_file(tmp_path, POSTS_CSV))
        assert len(posts) == 3
        assert posts.post_id == ["t1", "t2", "g1"]
        assert posts.url_or_domain == ["https://cnn.com/a", "foxnews.com", "https://wsj.com/b"]
        assert posts.platform.tolist() == ["twitter", "twitter", "gab"]
        assert posts.day.tolist() == [dt.date(2018, 1, 1).toordinal()] * 2 + [
            dt.date(2018, 1, 2).toordinal()]
        assert posts.likes.dtype == posts.sentiment.dtype == np.float64
        npt.assert_array_equal(posts.likes, [3, 0, 12])
        npt.assert_array_equal(posts.sentiment, [0.5, np.nan, -0.25])

    def test_timestamps_converted_to_the_utc_day(self, tmp_path):
        stamps = ["2018-01-01T23:30:00-05:00", "2018-01-02T01:00:00+03:00",
                  "2018-01-01 23:59:59.999999-00:00:01", "2018-01-02T00:30:00.5+01:00",
                  "2018-01-01T20:00:00", "2018-01-01", "2018-01-01T08:00"]
        text = POSTS_CSV.splitlines()[0] + "\n" + "".join(
            f"p{i},{stamp},gab,cnn.com,1,\n" for i, stamp in enumerate(stamps))
        posts = read_posts_csv(csv_file(tmp_path, text))
        days = [dt.date.fromordinal(d) for d in posts.day.tolist()]
        assert days == [dt.date(2018, 1, 2), dt.date(2018, 1, 1), dt.date(2018, 1, 2),
                        dt.date(2018, 1, 1)] + [dt.date(2018, 1, 1)] * 3

    def test_blank_lines_and_padding(self, tmp_path):
        padded = "\n".join(" , ".join(line.split(",")) for line in POSTS_CSV.splitlines()[1:])
        text = POSTS_CSV.splitlines()[0] + "\n\n" + padded.replace("\n", "\n\n") + "\n"
        got, want = (read_posts_csv(csv_file(tmp_path, text)),
                     read_posts_csv(csv_file(tmp_path, POSTS_CSV, "plain.csv")))
        for column in ("post_id", "url_or_domain", "platform", "day", "likes", "sentiment"):
            npt.assert_array_equal(getattr(got, column), getattr(want, column))

    def test_header_checked(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            read_posts_csv(csv_file(tmp_path, "id,when\n1,2018-01-01\n"))

    @pytest.mark.parametrize("bad,message", [
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,many,",
         "likes must be an integer, got 'many'"),
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,abc",
         "sentiment must be a number, got 'abc'"),
        ("t2,yesterday,twitter,foxnews.com,0,", "cannot parse timestamp 'yesterday'"),
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,1.5",
         "post t2: sentiment 1.5 outside [-1, 1]"),
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,nan",
         "post t2: sentiment nan outside [-1, 1]"),
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,-1,",
         "post t2: likes must be >= 0, got -1"),
        ("t2,2018-01-01T09:30:00Z,myspace,foxnews.com,0,",
         "unknown platform 'myspace'; expected one of ('twitter', 'gab')"),
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,1" + "0" * 400 + ",",
         f"likes {'1' + '0' * 400!r} too large"),
        ("t2,0001-01-01T00:30:00+01:00,twitter,foxnews.com,0,",
         "timestamp '0001-01-01T00:30:00+01:00' is out of range in UTC"),
        ("t2,9999-12-31T23:30:00-01:00,twitter,foxnews.com,0,",
         "timestamp '9999-12-31T23:30:00-01:00' is out of range in UTC"),
        ("t2,2018-02-29T09:30:00,twitter,foxnews.com,0,",
         "cannot parse timestamp '2018-02-29T09:30:00'"),
        # two faults in one row: the rule checked first names it
        ("t2,0001-01-01T00:30:00+01:00,myspace,foxnews.com,0,",
         "unknown platform 'myspace'; expected one of ('twitter', 'gab')"),
        ("t2,2018-01-01T09:30:00Z,myspace,foxnews.com,0,abc",
         "sentiment must be a number, got 'abc'"),
        ("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,-1" + "0" * 400 + ",",
         f"post t2: likes must be >= 0, got {'-1' + '0' * 400}"),
    ])
    def test_malformed_field_names_the_row(self, tmp_path, bad, message):
        good = "t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,"
        with pytest.raises(ValueError) as exc:
            read_posts_csv(csv_file(tmp_path, POSTS_CSV.replace(good, bad)))
        assert str(exc.value) == f"posts row 3: {message}"

    def test_field_count_names_the_row(self, tmp_path):
        bad = POSTS_CSV + "\nx1,2018-01-03T10:00:00,gab\n"
        with pytest.raises(ValueError) as exc:
            read_posts_csv(csv_file(tmp_path, bad))
        assert str(exc.value) == "posts row 6: expected 6 fields, got 3"

    def test_bad_value_above_a_bad_field_count_wins(self, tmp_path):
        bad = POSTS_CSV.replace(",12,", ",x,") + "x1,2018-01-03T10:00:00,gab\n"
        with pytest.raises(ValueError) as exc:
            read_posts_csv(csv_file(tmp_path, bad))
        assert str(exc.value) == "posts row 4: likes must be an integer, got 'x'"

    def test_first_bad_row_wins_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 2)
        rows = [f"p{i},2018-01-01T00:00:00,gab,cnn.com,{i},\n" for i in range(9)]
        rows[5] = rows[5].replace(",gab,", ",myspace,")
        rows[7] = rows[7].replace(",7,", ",x,")
        with pytest.raises(ValueError) as exc:
            read_posts_csv(csv_file(tmp_path, POSTS_CSV.splitlines()[0] + "\n" + "".join(rows)))
        assert str(exc.value).startswith("posts row 7: unknown platform 'myspace'")

    def test_date_only_stamp_above_a_bad_row_is_read(self, tmp_path):
        # the date-only stamp sends the block's stamps through fromisoformat
        bad = POSTS_CSV.replace("2018-01-01T08:00:00", "2018-01-01").replace(
            "2018-01-01T09:30:00Z", "0001-01-01T00:30:00+01:00")
        with pytest.raises(ValueError) as exc:
            read_posts_csv(csv_file(tmp_path, bad))
        assert str(exc.value) == (
            "posts row 3: timestamp '0001-01-01T00:30:00+01:00' is out of range in UTC")

    def test_empty_file_has_no_posts(self, tmp_path):
        posts = read_posts_csv(csv_file(tmp_path, POSTS_CSV.splitlines()[0] + "\n"))
        assert len(posts) == 0 and posts.day.dtype == np.intp
        assert aggregate(posts, BiasTable(), JAN_1_3, METRIC_NAMES)[0].total_posts == 0

    def test_nul_in_a_timestamp_is_left_to_the_row_parse(self):
        assert ingest._utc_day_ordinals(["2018-01-01T00:00:00Z"]) is not None
        assert ingest._utc_day_ordinals(["2018-01-01T00:00:00Z\x00"]) is None

    def test_a_nul_in_a_platform_is_not_dropped(self):
        # numpy's str arrays drop a trailing NUL, so the cells themselves are checked
        with pytest.raises(ValueError) as exc:
            ingest._post_columns([2], ["p1"], ["2018-01-01T00:00:00"], ["gab\x00"],
                                 ["cnn.com"], ["1"], [""])
        assert str(exc.value) == (
            "posts row 2: unknown platform 'gab\\x00'; expected one of ('twitter', 'gab')")

    def test_a_long_timestamp_is_left_to_the_row_parse(self):
        # one long cell must not size an array over the whole block
        stamps = ["2018-01-01T00:00:00Z"] * 3 + ["2018-01-01T00:00:00." + "1" * 10_000]
        assert ingest._utc_day_ordinals(stamps) is None
        assert ingest._utc_day_ordinals(stamps[:3]) is not None


class TestPostColumns:
    def test_from_records_matches_the_reader(self, tmp_path):
        got = read_posts_csv(csv_file(tmp_path, POSTS_CSV))
        want = PostColumns.from_records(per_row_read_posts_csv(csv_file(tmp_path, POSTS_CSV)))
        for column in ("post_id", "url_or_domain", "platform", "day", "likes", "sentiment"):
            npt.assert_array_equal(getattr(got, column), getattr(want, column))

    def test_select_keeps_order(self, tmp_path):
        posts = read_posts_csv(csv_file(tmp_path, POSTS_CSV))
        gab = posts.select(posts.platform == "gab")
        assert gab.post_id == ["g1"] and gab.url_or_domain == ["https://wsj.com/b"]
        npt.assert_array_equal(gab.likes, [12])
        twitter = posts.select(posts.platform == "twitter")
        assert twitter.post_id == ["t1", "t2"]
        npt.assert_array_equal(twitter.sentiment, [0.5, np.nan])
        assert len(posts.select(np.zeros(3, dtype=bool))) == 0


class TestBiasCsv:
    def test_parse(self, tmp_path):
        t = read_bias_csv(csv_file(
            tmp_path, "domain,leaning\ncnn.com,left\n\n wsj.com , right_leaning\n"))
        assert t.entries == {"cnn.com": "left", "wsj.com": "right_leaning"}

    def test_header_checked(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            read_bias_csv(csv_file(tmp_path, "site,leaning\ncnn.com,left\n"))
        assert str(exc.value) == ("bias CSV header must be domain,leaning, "
                                  "got ['site', 'leaning']")

    def test_unknown_leaning_names_the_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 3"):
            read_bias_csv(csv_file(tmp_path, "domain,leaning\ncnn.com,left\nx.com,centrist\n"))

    def test_field_count_names_the_row(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            read_bias_csv(csv_file(tmp_path, "domain,leaning\ncnn.com,left,extra\n"))
        assert str(exc.value) == "bias row 2: expected 2 fields, got 3"

    @pytest.mark.parametrize("text,message", [
        ("cnn.com,left\nfoo bar,right\n", "bias row 3: cannot extract a domain from 'foo bar'"),
        ("cnn.com,left\n,right\n", "bias row 3: cannot extract a domain from empty text"),
        ("cnn.com,left\n\nwsj.com,center\nwww.cnn.com,right\n",
         "bias row 5: conflicting leanings for domain 'cnn.com': 'left' vs 'right'"),
        ("foo bar,left\ncnn.com,centrist\n", "bias row 2: cannot extract a domain from 'foo bar'"),
    ])
    def test_bad_domain_names_the_row(self, tmp_path, text, message):
        with pytest.raises(ValueError) as exc:
            read_bias_csv(csv_file(tmp_path, "domain,leaning\n" + text))
        assert str(exc.value) == message


class TestSeriesCsv:
    def test_exact_text(self, table, tmp_path):
        posts = [post(**kw) for kw in AGG_POSTS]
        path = tmp_path / "series.csv"
        write_series_csv(aggregate_daily(posts, table, "likes_sum", JAN_1_3), path)
        assert path.read_text() == ("date,left,left_leaning,center,right_leaning,right\n"
                                    "2018-01-01,10,0,0,0,5\n"
                                    "2018-01-02,2,0,0,0,0\n"
                                    "2018-01-03,0,0,0,0,0\n")

    def test_nan_written_as_empty_cell(self, table, tmp_path):
        series = daily_mean_sentiment([post(sentiment=0.5)], table, JAN_1_3)
        path = tmp_path / "sent.csv"
        write_series_csv(series, path)
        assert path.read_text() == ("date,left,left_leaning,center,right_leaning,right\n"
                                    "2018-01-01,0.5,,,,\n"
                                    "2018-01-02,,,,,\n"
                                    "2018-01-03,,,,,\n")

    def test_missing_leaning_rejected(self, table, tmp_path):
        series = aggregate_daily([post()], table, "post_count", JAN_1_3)
        del series["center"]
        with pytest.raises(ValueError, match="center"):
            write_series_csv(series, tmp_path / "x.csv")


class TestValueSeriesCsv:
    def test_exact_text(self, tmp_path):
        s = DailySeries(start_date=dt.date(2018, 3, 1),
                        values=np.array([1.5, 2.0, -0.25]), metric="synthetic")
        path = tmp_path / "value.csv"
        write_value_series_csv(s, path)
        assert path.read_text() == "date,value\n2018-03-01,1.5\n2018-03-02,2\n2018-03-03,-0.25\n"


# cells of generated posts CSVs: common ones, and odd ones of every shape the
# columnar reader must accept or reject exactly as the per-row parse does
COMMON_DATES = ["2017-12-31", "2018-01-01", "2018-01-02", "2018-01-03", "2018-01-05",
                "2018-01-06"]
COMMON_SUFFIXES = ["", "Z", "+05:30", "-03:00", "+09:00", "-11:00", ".5", ".123456+02:00"]
ODD_STAMPS = [
    "2018-01-02", "2018-01-02T08:00", "20180102T080000", "2018-01-02T08", "yesterday", "",
    "2018-01-02t08:00:00", "2018-01-02x08:00:00", "2018-01-02T08:00:00+0100",
    "2018-01-02T08:00:00+05", "2018-01-02T08:00:00.1234567", "2018-01-02T08:00:00,5",
    "2018-01-02T08:00:00 +01:00", "2018-01-02T08:00:00-00:00", "2018-01-02T08:00:00+24:00",
    "2018-01-02T08:00:00Q", "2018-01-02T08:00:00z", "2018-01-02T08:00:00ZZ",
    "2018-01-02T24:00:00", "2018-01-02T23:59:60", "2018-02-29T00:00:00", "2016-02-29T00:00:00",
    "2018-13-01T00:00:00", "2018-00-10T00:00:00", "2018-04-31T00:00:00", "0000-01-01T00:00:00",
    "0001-01-01T00:30:00+01:00", "0001-01-01T01:30:00+01:00", "0001-01-01T00:00:00",
    "9999-12-31T23:30:00-01:00", "9999-12-31T23:30:00+01:00", "9999-12-31T23:59:59Z",
    "2018-1-02T08:00:00", "2018-01-02T8:00:00Z", "٢018-01-02T08:00:00",
    "2018-01-02T08:00:00+01:00:30", "2018-01-02T08:00:00.999999-23:59:59.999999",
    "2018-01-02T01:00:00.7+01:00:00.5", "2018-01-02T00:59:59.3+01:00:00.5",
    "0000-12-31T23:30:00-01:00", "2018-01-02Z12:00:00", "2018-01-02+12:00:00",
    "now", "today", "NaT", "2018", "2018-01", "2018-01-02T08:00:00." + "1" * 60 + "Z",
]
ODD_PLATFORMS = ["myspace", "Twitter", ""]
COMMON_URLS = ["https://www.cnn.com/a", "cnn.com", "http://foxnews.com/x", "wsj.com/b",
               "https://nytimes.com/q", "reuters.com", "https://example.org/p"]
ODD_URLS = ["//cnn.com/a", "", "https:///x", "http://[::1", "localhost", "CNN.COM:80/x"]
ODD_LIKES = ["-1", "-0", "1_000", "+7", "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 300,
             "x", "2.5", "٣", "0x10", ""]
COMMON_SENTIMENTS = ["", "0.25", "-0.5", "1", "-1", "0", "0.999", "-0.125"]
ODD_SENTIMENTS = ["nan", "NaN", "-nan", "inf", "-inf", "1.5", "-1.0001", "1_0", "abc",
                  "1e-3", "-0.0", "٠.5", "1e400"]


@st.composite
def posts_csv_text(draw):
    """A posts CSV: valid rows with, at a drawn rate, odd cells, padded
    cells and blank lines."""
    odds = draw(st.sampled_from([0, 40, 8]))        # 0: no odd cells at all

    def cell(common, odd):
        value = (draw(st.sampled_from(odd)) if odds and draw(st.integers(0, odds)) == 0
                 else draw(common))
        return f" {value} " if odds and draw(st.integers(0, odds)) == 0 else value

    def stamp():
        return (draw(st.sampled_from(COMMON_DATES)) + draw(st.sampled_from(["T", " "]))
                + f"{draw(st.integers(0, 23)):02d}:{draw(st.integers(0, 59)):02d}:"
                  f"{draw(st.integers(0, 59)):02d}" + draw(st.sampled_from(COMMON_SUFFIXES)))

    lines = [",".join(ingest.POSTS_HEADER)]
    for i in range(draw(st.integers(0, 12))):
        if odds and draw(st.integers(0, odds)) == 0:
            lines.append("")
        lines.append(",".join([
            f"p{i}",
            cell(st.builds(stamp), ODD_STAMPS),
            cell(st.sampled_from(["twitter", "gab"]), ODD_PLATFORMS),
            cell(st.sampled_from(COMMON_URLS), ODD_URLS),
            cell(st.integers(0, 500).map(str), ODD_LIKES),
            cell(st.sampled_from(COMMON_SENTIMENTS), ODD_SENTIMENTS),
        ]))
    return "\n".join(lines) + "\n"


def ingest_outcome(read, aggregate_posts, path, table, metrics):
    """What reading then aggregating gives: the summary, platform and series
    bytes, or the exception's type and text."""
    try:
        summary, platform, by_metric = aggregate_posts(read(path), table, JAN_1_5, metrics)
    except Exception as exc:
        return type(exc), str(exc)
    return summary.to_json(), platform, {
        metric: {leaning: (s.start_date, s.platform, s.leaning, s.metric, s.values.dtype,
                           s.values.tobytes()) for leaning, s in by_leaning.items()}
        for metric, by_leaning in by_metric.items()}


class TestColumnarReadMatchesRecords:
    """``read_posts_csv`` plus ``aggregate`` against the record path they
    replaced (``reference_kernels``), on generated CSVs read in blocks of
    1, 3 or the default number of rows."""

    @given(posts_csv_text(), st.sampled_from([1, 3, ingest._BLOCK_ROWS]),
           st.sampled_from([("post_count", "likes_sum"), METRIC_NAMES]))
    @settings(max_examples=400, deadline=None)
    def test_same_series_summary_or_error(self, tmp_path_factory, text, block_rows, metrics):
        path = tmp_path_factory.mktemp("posts") / "posts.csv"
        path.write_text(text)
        table = BiasTable.from_pairs(ORACLE_TABLE)
        want = ingest_outcome(per_row_read_posts_csv, per_record_aggregate, path, table,
                              metrics)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_ROWS", block_rows)
            got = ingest_outcome(read_posts_csv, aggregate, path, table, metrics)
        assert got == want

    @pytest.mark.parametrize("column,odd", [
        *[(1, v) for v in ODD_STAMPS], *[(2, v) for v in ODD_PLATFORMS],
        *[(3, v) for v in ODD_URLS], *[(4, v) for v in ODD_LIKES],
        *[(5, v) for v in ODD_SENTIMENTS]])
    def test_each_odd_cell(self, tmp_path, column, odd):
        """Every odd cell the strategy draws, alone in the third of five rows."""
        rows = [[f"p{i}", f"2018-01-0{i + 1}T12:00:00Z", "gab", "cnn.com", "3", "0.5"]
                for i in range(5)]
        rows[2][column] = odd
        path = tmp_path / "posts.csv"
        path.write_text("\n".join(",".join(row) for row in [ingest.POSTS_HEADER, *rows]))
        table = BiasTable.from_pairs(ORACLE_TABLE)
        want = ingest_outcome(per_row_read_posts_csv, per_record_aggregate, path, table,
                              METRIC_NAMES)
        assert ingest_outcome(read_posts_csv, aggregate, path, table, METRIC_NAMES) == want

import datetime as dt
import io
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leancast.ingest import (BiasTable, DomainParseError, IngestSummary,
                             PostRecord, aggregate_daily, daily_mean_sentiment,
                             extract_domain, label_post, read_bias_csv,
                             read_posts_csv, read_series_csv,
                             read_value_series_csv, score_sentiment_lexicon,
                             summarize, write_series_csv,
                             write_value_series_csv)
from leancast.series import DailySeries


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


class TestLexiconScore:
    LEX = {"good": 1.0, "bad": -1.0, "great": 2.0, "don't": -0.5}

    def test_mean_over_matches(self):
        assert score_sentiment_lexicon("Good day", self.LEX) == 1.0
        assert score_sentiment_lexicon("good bad", self.LEX) == 0.0

    def test_no_match_scores_zero(self):
        assert score_sentiment_lexicon("meh whatever", self.LEX) == 0.0

    def test_clamped_to_unit_interval(self):
        assert score_sentiment_lexicon("great great", self.LEX) == 1.0

    def test_apostrophes_stay_in_tokens(self):
        assert score_sentiment_lexicon("DON'T", self.LEX) == -0.5

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            score_sentiment_lexicon("anything", {})


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


POSTS_CSV = """post_id,timestamp,platform,url_or_domain,likes,sentiment
t1,2018-01-01T08:00:00,twitter,https://cnn.com/a,3,0.5
t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,
g1,2018-01-02T10:00:00,gab,https://wsj.com/b,12,-0.25
"""


class TestPostsCsv:
    def test_parse_fields(self):
        posts = read_posts_csv(io.StringIO(POSTS_CSV))
        assert len(posts) == 3
        assert posts[0].likes == 3 and posts[0].sentiment == 0.5
        assert posts[1].sentiment is None
        assert posts[1].timestamp.tzinfo is not None
        assert posts[2].platform == "gab"

    def test_header_checked(self):
        with pytest.raises(ValueError, match="header"):
            read_posts_csv(io.StringIO("id,when\n1,2018-01-01\n"))

    def test_bad_likes_names_the_row(self):
        bad = POSTS_CSV.replace("t2,2018-01-01T09:30:00Z,twitter,foxnews.com,0,",
                                "t2,2018-01-01T09:30:00Z,twitter,foxnews.com,many,")
        with pytest.raises(ValueError, match="row 3"):
            read_posts_csv(io.StringIO(bad))

    def test_bad_timestamp_names_the_row(self):
        bad = POSTS_CSV.replace("2018-01-02T10:00:00", "yesterday")
        with pytest.raises(ValueError, match="row 4"):
            read_posts_csv(io.StringIO(bad))


class TestBiasCsv:
    def test_parse(self):
        t = read_bias_csv(io.StringIO("domain,leaning\ncnn.com,left\nwsj.com,right_leaning\n"))
        assert len(t) == 2

    def test_caller_handle_stays_open(self):
        handle = io.StringIO("domain,leaning\ncnn.com,left\n")
        read_bias_csv(handle)
        assert not handle.closed

    def test_unknown_leaning_names_the_row(self):
        with pytest.raises(ValueError, match="row 3"):
            read_bias_csv(io.StringIO("domain,leaning\ncnn.com,left\nx.com,centrist\n"))


class TestSeriesCsv:
    def test_round_trip(self, table, tmp_path):
        posts = [post(**kw) for kw in AGG_POSTS]
        series = aggregate_daily(posts, table, "likes_sum", JAN_1_3)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path, platform="twitter", metric="likes_sum")
        for leaning, s in series.items():
            npt.assert_array_equal(back[leaning].values, s.values)
            assert back[leaning].start_date == s.start_date

    def test_integral_values_written_compactly(self, table, tmp_path):
        posts = [post(**kw) for kw in AGG_POSTS]
        path = tmp_path / "series.csv"
        write_series_csv(aggregate_daily(posts, table, "post_count", JAN_1_3), path)
        assert "2018-01-01,2,0,0,0,1" in path.read_text()

    def test_nan_round_trips_as_empty_cell(self, table, tmp_path):
        series = daily_mean_sentiment([post(sentiment=0.5)], table, JAN_1_3)
        path = tmp_path / "sent.csv"
        write_series_csv(series, path)
        assert ",,,,," in path.read_text()
        back = read_series_csv(path, metric="sentiment_mean")
        assert np.isnan(back["left"].values[2])

    def test_missing_leaning_rejected(self, table, tmp_path):
        series = aggregate_daily([post()], table, "post_count", JAN_1_3)
        del series["center"]
        with pytest.raises(ValueError, match="center"):
            write_series_csv(series, tmp_path / "x.csv")

    def test_date_gap_rejected(self):
        text = ("date,left,left_leaning,center,right_leaning,right\n"
                "2018-01-01,1,0,0,0,0\n"
                "2018-01-03,2,0,0,0,0\n")
        with pytest.raises(ValueError, match="consecutive"):
            read_series_csv(io.StringIO(text))


class TestValueSeriesCsv:
    def test_round_trip(self, tmp_path):
        s = DailySeries(start_date=dt.date(2018, 3, 1),
                        values=np.array([1.5, 2.0, -0.25]), metric="synthetic")
        path = tmp_path / "value.csv"
        write_value_series_csv(s, path)
        back = read_value_series_csv(path)
        npt.assert_array_equal(back.values, s.values)
        assert back.start_date == s.start_date

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            read_value_series_csv(io.StringIO("date,value\n"))

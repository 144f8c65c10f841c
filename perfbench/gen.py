"""Seeded input generators for the benchmark.

Everything leancast sees in a benchmark run comes from here: a posts corpus
with its bias table, and the config of a long synthetic series.  The same
seed always gives the same bytes.  Alongside each corpus the generator keeps
its own ground truth (per-day, per-leaning post counts, like sums and
sentiment sums), computed from what it wrote and never from leancast, so the
ingest output can be checked exactly.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

LEANINGS = ("left", "left_leaning", "center", "right_leaning", "right")
WINDOW = (dt.date(2018, 1, 1), dt.date(2018, 4, 30))   # the paper's 120 days

# A bounded set of hosts, a few per leaning.  bbc.co.uk sits under a
# two-label public suffix, so only its last three labels name it.
LABELED_DOMAINS = (
    ("cnn.com", "left"), ("msnbc.com", "left"), ("huffpost.com", "left"),
    ("nytimes.com", "left_leaning"), ("washingtonpost.com", "left_leaning"),
    ("politico.com", "left_leaning"),
    ("bbc.co.uk", "center"), ("reuters.com", "center"), ("apnews.com", "center"),
    ("wsj.com", "right_leaning"), ("nypost.com", "right_leaning"),
    ("washingtontimes.com", "right_leaning"),
    ("foxnews.com", "right"), ("breitbart.com", "right"), ("dailycaller.com", "right"),
)
# Hosts with no bias entry: their posts stay unlabeled.
UNLABELED_DOMAINS = ("youtube.com", "medium.com", "example.org", "abc.net.au",
                     "theguardian.co.nz", "blogspot.com")
SUBDOMAINS = ("", "", "www.", "www.", "edition.", "m.", "amp.", "news.")
SECTIONS = ("politics", "us", "world", "opinion", "video", "business")
# UTC offsets in minutes that post timestamps are written in
OFFSETS = (0, 0, -300, -240, -480, 60, 120, 330, 540)
UNLABELED_SHARE = 0.15
OUTSIDE_SHARE = 0.01        # posts a day before or after the window
DAY_OF_WEEK = np.array([1.2, 1.3, 1.2, 1.1, 1.0, 0.6, 0.5])   # Mon..Sun
LEVELS = np.array([1.0, 0.8, 0.7, 0.8, 1.0])     # relative volume per leaning


@dataclass
class Corpus:
    """A written posts CSV plus the generator's own per-day truth.

    Arrays are (leaning, day) over WINDOW; ``sentiment_sum`` adds the
    sentiment values exactly as written to the CSV.
    """

    n_posts: int
    n_labeled: int            # posts with a bias entry, inside the window or not
    counts: np.ndarray
    likes: np.ndarray
    sentiment_sum: np.ndarray

    def series(self, metric: str) -> np.ndarray:
        if metric == "post_count":
            return self.counts
        if metric == "likes_sum":
            return self.likes
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, self.sentiment_sum / self.counts, np.nan)


def _day_rates(rng, n_days: int) -> np.ndarray:
    """(leaning, day) posting intensity: a fixed per-leaning level, a weekly
    pattern and a seeded slow AR(1) drift, so the count series have
    structure that SARIMA and the recurrent models can pick up."""
    start_dow = WINDOW[0].weekday()
    dow = DAY_OF_WEEK[(np.arange(n_days) + start_dow) % 7]
    rates = np.empty((len(LEANINGS), n_days))
    for i in range(len(LEANINGS)):
        drift = np.empty(n_days)
        prev = 0.0
        for t in range(n_days):
            prev = 0.85 * prev + rng.normal(0.0, 0.06)
            drift[t] = prev
        rates[i] = LEVELS[i] * dow * np.exp(drift)
    return rates


def _timestamp(utc: dt.datetime, offset_min: int) -> str:
    local = utc + dt.timedelta(minutes=offset_min)
    if offset_min == 0:
        return local.isoformat() + "Z"
    sign = "+" if offset_min > 0 else "-"
    hours, minutes = divmod(abs(offset_min), 60)
    return f"{local.isoformat()}{sign}{hours:02d}:{minutes:02d}"


def _url(roll: float, sub: str, section: str, domain: str, pid: int) -> str:
    if roll < 0.05:
        return domain                                     # bare domain
    if roll < 0.08:
        return f"{sub}{domain}/{section}"
    scheme = "http" if roll < 0.12 else "https"
    return f"{scheme}://{sub}{domain}/{section}/2018/story-{pid}"


def write_corpus(posts_path, bias_path, seed: int, n_posts: int) -> Corpus:
    """Write ``n_posts`` twitter posts and the bias table; return the truth.

    Posts land on days in proportion to the leaning rates; a fixed share is
    unlabeled and a small share falls just outside the window, so ingest has
    to drop them.  Timestamps carry UTC offsets, so the local date can differ
    from the UTC day the post counts on.
    """
    series_rng = np.random.default_rng([seed, 1])    # per-day counts
    rng = np.random.default_rng([seed, 3])           # everything else
    start, end = WINDOW
    n_days = (end - start).days + 1
    n_lean = len(LEANINGS)
    rates = _day_rates(series_rng, n_days)
    n_outside = int(round(OUTSIDE_SHARE * n_posts))
    n_unlabeled = int(round(UNLABELED_SHARE * n_posts))
    n_inside = n_posts - n_unlabeled - n_outside
    cells = series_rng.multinomial(n_inside, (rates / rates.sum()).ravel())

    # one row per post: leaning index (-1 unlabeled), day index, domain
    cell_idx = np.repeat(np.arange(n_lean * n_days), cells)
    leaning = np.concatenate([cell_idx // n_days, np.full(n_unlabeled, -1),
                              rng.integers(n_lean, size=n_outside)])
    day = np.concatenate([cell_idx % n_days, rng.integers(n_days, size=n_unlabeled),
                          np.where(np.arange(n_outside) % 2 == 0, -1, n_days)])
    by_leaning = [[d for d, dl in LABELED_DOMAINS if dl == l] for l in LEANINGS]
    pick = rng.integers(1 << 30, size=n_posts)
    domain = [UNLABELED_DOMAINS[k % len(UNLABELED_DOMAINS)] if li < 0
              else by_leaning[li][k % len(by_leaning[li])]
              for li, k in zip(leaning.tolist(), pick.tolist())]
    utc_s = day * 86400 + rng.integers(86400, size=n_posts)
    n_likes = np.exp(rng.normal(2.0, 1.2, n_posts)).astype(np.int64)
    sentiment = np.round(rng.uniform(-1.0, 1.0, n_posts), 3)
    offset = rng.choice(OFFSETS, size=n_posts)
    roll = rng.random(n_posts)
    sub = rng.integers(len(SUBDOMAINS), size=n_posts)
    section = rng.integers(len(SECTIONS), size=n_posts)

    order = np.argsort(utc_s, kind="stable")
    inside = (leaning >= 0) & (day >= 0) & (day < n_days)
    counts = np.zeros((n_lean, n_days))
    likes = np.zeros((n_lean, n_days))
    sentiment_sum = np.zeros((n_lean, n_days))
    np.add.at(counts, (leaning[inside], day[inside]), 1)
    np.add.at(likes, (leaning[inside], day[inside]), n_likes[inside])
    midnight = dt.datetime.combine(start, dt.time())
    lines = ["post_id,timestamp,platform,url_or_domain,likes,sentiment"]
    for pid, i in enumerate(order.tolist()):
        sentiment_text = f"{sentiment[i]:.3f}"
        if inside[i]:
            # added in file order, the order ingest adds them in
            sentiment_sum[leaning[i], day[i]] += float(sentiment_text)
        utc = midnight + dt.timedelta(seconds=int(utc_s[i]))
        url = _url(roll[i], SUBDOMAINS[sub[i]], SECTIONS[section[i]], domain[i], pid)
        lines.append(f"p{pid},{_timestamp(utc, int(offset[i]))},twitter,"
                     f"{url},{n_likes[i]},{sentiment_text}")
    with open(posts_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(bias_path, "w") as handle:
        handle.write("domain,leaning\n")
        handle.writelines(f"{d},{l}\n" for d, l in LABELED_DOMAINS)
    return Corpus(n_posts=n_posts, n_labeled=n_inside + n_outside,
                  counts=counts, likes=likes, sentiment_sum=sentiment_sum)


def long_synthetic(n_days: int) -> dict:
    """Config block for a long noisy weekly sine that leancast generates
    itself; the run's seed draws the noise."""
    return {"kind": "sine", "n": n_days, "period": 7, "amplitude": 10.0,
            "noise_sigma": 3.0}

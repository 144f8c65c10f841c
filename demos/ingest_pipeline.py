"""From raw posts to daily per-leaning series and a chart.

A dozen hand-written posts stand in for a real export.  They and a small
bias table are written as CSV files to ./demo_output and read back the way
``leancast ingest`` reads them.  Each post is labeled by the registrable
domain of the link it shares (cnn.com, foxnews.com, ...) looked up in the
bias table; posts whose domain is not listed stay unlabeled and are dropped
from the series.  Days with no posts count as zero.  The chart is plain
SVG, written next to the CSV files.
"""

import datetime as dt
from pathlib import Path

from leancast import aggregate_daily, emit_plot, summarize
from leancast.ingest import read_bias_csv, read_posts_csv

BIAS_CSV = """domain,leaning
cnn.com,left
nytimes.com,left_leaning
reuters.com,center
wsj.com,right_leaning
foxnews.com,right
"""

POSTS_CSV = """post_id,timestamp,platform,url_or_domain,likes,sentiment
a1,2018-01-01T12:00:00,twitter,https://www.cnn.com/politics/story-1,12,
a2,2018-01-01T12:00:00,twitter,https://cnn.com/politics/story-2,4,
a3,2018-01-01T12:00:00,twitter,http://foxnews.com/opinion/piece-1,30,
a4,2018-01-02T12:00:00,twitter,https://www.reuters.com/world/wire-1,2,
a5,2018-01-02T12:00:00,twitter,https://edition.cnn.com/story-3,7,
a6,2018-01-03T12:00:00,twitter,https://wsj.com/markets/column-1,9,
a7,2018-01-03T12:00:00,twitter,https://www.foxnews.com/politics/piece-2,18,
a8,2018-01-04T12:00:00,twitter,https://nytimes.com/opinion/essay-1,25,
a9,2018-01-04T12:00:00,twitter,https://myblog.example/post,1,
b1,2018-01-05T12:00:00,twitter,https://cnn.com/story-4,3,
b2,2018-01-06T12:00:00,twitter,https://foxnews.com/piece-3,11,
b3,2018-01-06T12:00:00,twitter,https://reuters.com/wire-2,6,
"""
# a9's myblog.example is not in the table, so it stays unlabeled

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)
(out_dir / "ingest_bias.csv").write_text(BIAS_CSV)
(out_dir / "ingest_posts.csv").write_text(POSTS_CSV)
table = read_bias_csv(out_dir / "ingest_bias.csv")
posts = read_posts_csv(out_dir / "ingest_posts.csv")

summary = summarize(posts, table)
print(f"{summary.total_posts} posts, {summary.labeled_posts} labeled, "
      f"{summary.unlabeled_posts} dropped")
for leaning, count in summary.per_leaning_counts.items():
    if count:
        print(f"  {leaning:>14}: {count}")

window = (dt.date(2018, 1, 1), dt.date(2018, 1, 7))
series = aggregate_daily(posts, table, "post_count", window)
print("\ndaily post counts (zero-filled over the whole window):")
for leaning in ("left", "right", "center"):
    values = series[leaning].values.astype(int).tolist()
    print(f"  {leaning:>14}: {values}")

svg_path = out_dir / "ingest_pipeline.svg"
svg_path.write_text(emit_plot([series["left"], series["right"]],
                              title="posts per day"))
print(f"\nchart written to {svg_path}")

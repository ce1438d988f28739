"""A fixed reference job, timed to measure how fast the machine runs now.

    python3 perfbench/calib.py

Does the same kinds of work as the program, with the standard library
only: gunzip, HTML tokenising with html.parser, regex word counts, URL
joins and splits, SHA-1 digests, sorting and bisection. The inputs are
built from a fixed seed, so every run does exactly the same work; it
prints a digest of its results, which must not change.

run.py starts this job as a fresh process, like every program command,
between the commands of a run, and divides the program's times by the
median time of this job (see ``REFERENCE_S`` in run.py).
"""

import bisect
import hashlib
import random
import re
import zlib
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit

PAGES = 120
ROUNDS = 2
_WORD = re.compile(r"[a-z]+")


class _Links(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.hrefs, self.text = [], []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            self.hrefs.extend(v for k, v in attrs if k == "href" and v)

    def handle_data(self, data):
        self.text.append(data)


def pages():
    rng = random.Random(0)
    words = ["".join(rng.choice("bcdfgklmnprstvz") + rng.choice("aeiou") for _ in range(3))
             for _ in range(500)]
    out = []
    for i in range(PAGES):
        links = "".join('<a href="/p%d/%d">%s</a> ' % (i, j, rng.choice(words)) for j in range(9))
        paras = "".join("<p>%s</p>" % " ".join(rng.choices(words, k=40)) for _ in range(5))
        html = "<html><head><title>page %d</title></head><body>%s%s</body></html>" % (i, links, paras)
        out.append(zlib.compress(html.encode(), 6))
    return out


def job():
    digest = hashlib.sha1()
    blobs = pages()
    for _ in range(ROUNDS):
        counts, keys = {}, []
        for i, blob in enumerate(blobs):
            body = zlib.decompress(blob)
            digest.update(hashlib.sha1(body).digest())
            parser = _Links()
            parser.feed(body.decode())
            parser.close()
            for href in parser.hrefs:
                url = urljoin("http://host%d.example/dir/" % (i % 7), href)
                keys.append((urlsplit(url).netloc, url))
            for w in _WORD.findall(" ".join(parser.text).lower()):
                counts[w] = counts.get(w, 0) + 1
        keys.sort()
        hits = sum(bisect.bisect_left(keys, k) for k in keys[::50])
        digest.update(repr((sorted(counts.items())[:50], hits)).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(job())

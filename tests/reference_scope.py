"""The per-capture metadata predicate that ``spec.in_scope_metadata``
replaced.

``in_scope_metadata`` is the previous implementation, copied unchanged: it
decides the URL, domain and time scopes for one index entry at a time.
The per-URL rule, which decides the URL and domain scopes once for all
captures of a URL and the time scope by binary search, is compared
against it.
"""

from subcollect.urls import host_of


def _domain_matches(host, domain):
    return host == domain or host.endswith("." + domain)


def in_scope_metadata(spec, entry):
    """Conjunction over the metadata-only scopes (URL, domain, time).

    Content scopes are deliberately not consulted here: this predicate
    must be decidable from the index alone, with zero fetches.
    """
    if spec.url_scope is not None and entry.canonical_url not in spec.url_scope:
        return False
    if spec.domain_scope is not None:
        host = host_of(entry.canonical_url)
        if not any(_domain_matches(host, d) for d in spec.domain_scope):
            return False
    if spec.time_scope is not None:
        lo, hi = spec.time_scope
        if not (lo <= entry.timestamp14 <= hi):
            return False
    return True

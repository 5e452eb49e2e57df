"""Tweet cleaning pipeline: anonymize, handle replacement, hashtag stripping,
lowercasing, and brand-to-generic drug normalization, applied in that fixed order.

Stage behavior:

* anonymize    -- emails become their domain ("john@gmail.com" -> "gmail.com"),
                  URLs become the literal "-URL-", and (c)/(tm)/(r) symbols are
                  dropped. Emails are handled first so a domain that itself
                  looks like a URL is caught in the same pass.
* handles      -- "@name" tokens become "-TH-".
* hashtags     -- a single leading "#" is stripped from each word.
* lowercase    -- plain str.lower(); note it also lowers the placeholders,
                  so fully processed text carries "-url-" and "-th-".
* drugnorm     -- whole-word, longest-match-first replacement of lexicon brand
                  names with generic names; requires lowercased input.

Output whitespace is always collapsed to single spaces and trimmed.

Every stage runs in time linear in the length of the text, adversarial text
included: emails are found from each "@" (walking left over the local part,
matching the domain rightwards) instead of by retrying the email pattern at
every position, and a stage is skipped when it needs something the text
lacks: "@" for emails and handles, "http" or "www." for URLs, "#" for
hashtags, a non-ASCII character for the symbols.
"""

from __future__ import annotations

import re
import string
from pathlib import Path

from ._io import Frozen, lines_of, require_blank

STAGES = ("anonymize", "handles", "hashtags", "lowercase", "drugnorm")

# Word boundaries for handle and drug matching: unicode whitespace plus ASCII
# punctuation except "-" and "'" (kept so hyphenated drug names stay whole).
_DELIM_PUNCT = "".join(c for c in string.punctuation if c not in "-'")
_NON_DELIM = f"[^\\s{re.escape(_DELIM_PUNCT)}]"

# An email is a run of local-part characters, "@", then a dotted domain; it is
# replaced by the domain. _strip_emails finds each "@" and matches around it.
_LOCAL_CHARS = frozenset(string.ascii_letters + string.digits + "._%+-")
_DOMAIN_RE = re.compile(r"[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+")
_URL_RE = re.compile(r"https?://\S+|(?<![A-Za-z0-9.-])www\.\S+")
_SYMBOL_TABLE = str.maketrans("", "", "©™®")  # (c) (tm) (r)
_HANDLE_RE = re.compile(rf"(?<!{_NON_DELIM})@[A-Za-z0-9_]+")
_HASHTAG_RE = re.compile(r"(?:^|(?<=\s))#")


class DrugLexicon(Frozen):
    """Lowercase brand-name -> generic-name mapping.

    Keys may be multi-token ("tylenol pm"). Generic names must be fixpoints:
    no generic may itself appear as a brand key, which makes normalization
    idempotent.
    """

    _fields = ("entries",)

    def __init__(self, entries: dict[str, str]):
        self._set(entries=entries)
        for brand, generic in self.entries.items():
            if not brand or not generic:
                raise ValueError("lexicon entries must be non-empty")
            if brand != brand.lower() or generic != generic.lower():
                raise ValueError(f"lexicon entry {brand!r} -> {generic!r} is not lowercase")
            if brand == generic:
                raise ValueError(f"self-mapping rejected: {brand!r}")
        generics = set(self.entries.values())
        offenders = generics & set(self.entries)
        if offenders:
            raise ValueError(
                f"generic names must not appear as brand keys: {sorted(offenders)}"
            )
        # Longest key first so overlapping brands resolve to the longest match.
        keys = sorted(self.entries, key=lambda k: (-len(k), k))
        if keys:
            pattern = re.compile(
                rf"(?<!{_NON_DELIM})(?:{'|'.join(re.escape(k) for k in keys)})(?!{_NON_DELIM})"
            )
        else:
            pattern = re.compile(r"(?!)")  # never matches
        self._set(_pattern=pattern)

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(path: str | Path) -> DrugLexicon:
    """Read a ``brand<TAB>generic`` file; '#'-prefixed lines are comments.

    Entries are lowercased; exact duplicate rows are allowed, conflicting
    duplicate keys are rejected.
    """
    entries: dict[str, str] = {}
    with lines_of(path) as (lines, start):
        for lineno, line in enumerate(lines, start):
            if line.startswith("#"):
                continue
            try:
                brand, generic = map(str.lower, map(str.strip, line.split("\t")))
            except ValueError:
                require_blank(path, 2, lineno, line)
                continue
            if not brand or not generic:
                raise ValueError(f"{path}: lexicon entries must be non-empty at line {lineno}")
            if brand == generic:
                raise ValueError(f"{path}: self-mapping rejected: {brand!r} at line {lineno}")
            if brand in entries and entries[brand] != generic:
                raise ValueError(
                    f"{path}: conflicting duplicate key {brand!r} at line {lineno}: "
                    f"{entries[brand]!r} vs {generic!r}"
                )
            entries[brand] = generic
    return DrugLexicon(entries)


class PipelineConfig(Frozen):
    """Which stages run. Stage order is fixed; enabled_stages must list them
    in pipeline order, and drugnorm requires lowercase (and a lexicon)."""

    _fields = ("enabled_stages", "lexicon")

    def __init__(self, enabled_stages: tuple[str, ...] = STAGES, lexicon: DrugLexicon | None = None):
        self._set(enabled_stages=tuple(enabled_stages), lexicon=lexicon)
        unknown = [s for s in self.enabled_stages if s not in STAGES]
        if unknown:
            raise ValueError(f"unknown stages: {', '.join(map(repr, unknown))} (choose from {', '.join(STAGES)})")
        if len(set(self.enabled_stages)) != len(self.enabled_stages):
            raise ValueError("duplicate stages in enabled_stages")
        ordered = tuple(s for s in STAGES if s in self.enabled_stages)
        if self.enabled_stages != ordered:
            raise ValueError(
                f"stages must follow the fixed pipeline order {list(STAGES)}"
            )
        if "drugnorm" in self.enabled_stages:
            if "lowercase" not in self.enabled_stages:
                raise ValueError("drugnorm requires the lowercase stage")
            if self.lexicon is None:
                raise ValueError("lexicon required when drugnorm is enabled")


def _strip_emails(text: str) -> str:
    """Replace each email with its domain, left to right without overlaps.

    Gives exactly what ``re.sub`` of ``local+@domain`` gives: the leftmost
    match starts where the run of local-part characters before an "@"
    starts, but never before the end of the previous match. Each character
    is walked over at most once leftwards and matched at most once.
    """
    at = text.find("@")
    out = []
    done = 0  # text[:done] is already emitted or replaced
    while at >= 0:
        start = at
        while start > done and text[start - 1] in _LOCAL_CHARS:
            start -= 1
        domain = _DOMAIN_RE.match(text, at + 1) if start < at else None
        if domain is None:
            at = text.find("@", at + 1)
            continue
        out.append(text[done:start])
        out.append(domain.group())
        done = domain.end()
        at = text.find("@", done)
    out.append(text[done:])
    return "".join(out)


def anonymize(text: str) -> str:
    """Strip emails to their domain, replace URLs with -URL-, drop (c)/(tm)/(r)."""
    text = _strip_emails(text)
    if "http" in text or "www." in text:
        text = _URL_RE.sub("-URL-", text)
    return text if text.isascii() else text.translate(_SYMBOL_TABLE)


def replace_handles(text: str) -> str:
    """Replace each @name token with -TH-. Assumes emails were removed first."""
    return _HANDLE_RE.sub("-TH-", text) if "@" in text else text


def remove_hashtags(text: str) -> str:
    """Strip one leading '#' from each word; interior '#' stays put."""
    return _HASHTAG_RE.sub("", text) if "#" in text else text


def drug_normalize(text: str, lex: DrugLexicon) -> str:
    """Replace whole-word brand-name occurrences with generic names.

    Expects lowercased text; matching is whole-word with the longest brand
    winning where keys overlap.
    """
    return lex._pattern.sub(lambda m: lex.entries[m.group(0)], text)


def preprocess(text: str, cfg: PipelineConfig) -> str:
    """Run the enabled stages in pipeline order and normalize whitespace."""
    enabled = cfg.enabled_stages
    if "anonymize" in enabled:
        text = anonymize(text)
    if "handles" in enabled:
        text = replace_handles(text)
    if "hashtags" in enabled:
        text = remove_hashtags(text)
    if "lowercase" in enabled:
        text = text.lower()
    # Collapse before drugnorm so multi-word brands match across any spacing.
    text = " ".join(text.split())
    if "drugnorm" in enabled:
        text = drug_normalize(text, cfg.lexicon)
    return text

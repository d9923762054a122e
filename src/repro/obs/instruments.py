"""Streaming instruments: histograms, gauges, counters.

The paper argues in *worst cases* (Table I); debugging a reproduction
needs *distributions*.  :class:`Histogram` keeps an HDR-style
log-bucketed sketch — constant memory, bounded relative error — so a
100k-op soak can report p50/p99/max access counts, occupancies, and
queue depths without storing per-op samples.  :class:`Gauge` tracks a
level (occupancy, backlog) with running min/max; :class:`Counter` is a
monotone total.

:class:`InstrumentSet` is the named registry the exporters consume
(:func:`repro.obs.exporters.prometheus_snapshot`).  Every instrument
name is a *family* that may hold one unlabeled series plus any number of
labeled series (``counter("events_insert", labels={"shard": "3"})``),
the Prometheus data model: the sharded fabric records each sample twice
— once unlabeled (the fleet aggregate) and once under its shard's label
— so labeled series sum exactly to the aggregate by construction.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: A canonical, hashable label set: sorted (name, value) pairs.  The
#: empty tuple is the unlabeled series of a family.
LabelKey = Tuple[Tuple[str, str], ...]

#: The Prometheus label-name grammar (label values are free-form UTF-8
#: and get escaped at exposition time instead).
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def label_key(labels: Optional[Mapping[str, object]]) -> LabelKey:
    """Canonicalize a label mapping into a hashable, sorted key.

    Label *names* must match the Prometheus grammar and may not start
    with ``__`` (reserved); *values* are coerced to strings and may hold
    anything — the exposition renderer escapes them.
    """
    if not labels:
        return ()
    key: List[Tuple[str, str]] = []
    for name in sorted(labels):
        if not isinstance(name, str) or not _LABEL_NAME_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
        if name.startswith("__"):
            raise ValueError(f"label name {name!r} is reserved (__ prefix)")
        key.append((name, str(labels[name])))
    return tuple(key)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition grammar.

    Backslash, double quote, and newline are the three characters the
    Prometheus text format requires escaping inside label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_label_key(key: LabelKey) -> str:
    """``{a="x",b="y"}`` rendering of a label key (``""`` if empty)."""
    if not key:
        return ""
    body = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in key
    )
    return "{" + body + "}"


class Histogram:
    """Fixed-memory histogram of non-negative values with bounded error.

    Values below ``2**subbucket_bits`` are recorded exactly; larger
    values land in power-of-two ranges split into ``2**subbucket_bits``
    linear sub-buckets, so any recorded quantile differs from the true
    sample quantile by at most a factor of ``2**-subbucket_bits``
    (3.125% at the default 5 bits).

    Non-integer values are scaled by ``scale`` and rounded, letting the
    same sketch hold e.g. quanta-valued clamp errors; reported
    statistics are scaled back.
    """

    def __init__(self, *, subbucket_bits: int = 5, scale: float = 1.0) -> None:
        if not 1 <= subbucket_bits <= 16:
            raise ValueError("subbucket_bits must be in [1, 16]")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self._sub_bits = subbucket_bits
        self._sub_count = 1 << subbucket_bits
        self._scale = scale
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    # ------------------------------------------------------------------
    # recording

    def _index(self, value: int) -> int:
        if value < self._sub_count:
            return value
        exp = value.bit_length() - self._sub_bits - 1
        mantissa = value >> exp
        return ((exp + 1) << self._sub_bits) + (mantissa - self._sub_count)

    def _bucket_high(self, index: int) -> int:
        """Largest raw value mapping to ``index`` (the reported bound)."""
        if index < self._sub_count:
            return index
        exp = (index >> self._sub_bits) - 1
        mantissa = (index & (self._sub_count - 1)) + self._sub_count
        return ((mantissa + 1) << exp) - 1

    def _bucket_low(self, index: int) -> int:
        """Smallest raw value mapping to ``index``."""
        if index < self._sub_count:
            return index
        exp = (index >> self._sub_bits) - 1
        mantissa = (index & (self._sub_count - 1)) + self._sub_count
        return mantissa << exp

    def record(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if count <= 0:
            raise ValueError("count must be positive")
        raw = int(round(value * self._scale))
        if raw < 0:
            raise ValueError(f"histogram values must be non-negative, got {value}")
        index = self._index(raw)
        self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += count
        self._sum += raw * count
        if self._min is None or raw < self._min:
            self._min = raw
        if self._max is None or raw > self._max:
            self._max = raw

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same shape) into this one."""
        if (other._sub_bits, other._scale) != (self._sub_bits, self._scale):
            raise ValueError("histogram shapes differ; cannot merge")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self._sum += other._sum
        for theirs in (other._min,):
            if theirs is not None and (self._min is None or theirs < self._min):
                self._min = theirs
        for theirs in (other._max,):
            if theirs is not None and (self._max is None or theirs > self._max):
                self._max = theirs

    def snapshot(self) -> "Histogram":
        """An independent copy (same shape) for later delta computation.

        Safe to call from a collector thread while the owning thread
        keeps recording: the bucket dict is copied in one pass and a
        concurrent resize simply surfaces as a retryable
        :class:`RuntimeError` (the windowed collector skips that tick).
        """
        clone = Histogram(subbucket_bits=self._sub_bits, scale=self._scale)
        clone._buckets = dict(self._buckets)
        clone.count = self.count
        clone._sum = self._sum
        clone._min = self._min
        clone._max = self._max
        return clone

    def delta_since(self, earlier: "Histogram") -> "Histogram":
        """The histogram of values recorded *after* ``earlier``.

        ``earlier`` must be a previous :meth:`snapshot` of this
        histogram (same shape, subset counts).  The delta's bucket
        counts are exact; its min/max are the covering bucket bounds of
        the delta mass (within the sketch's relative-error contract),
        which is what windowed percentile rollups need.
        """
        if (earlier._sub_bits, earlier._scale) != (
            self._sub_bits,
            self._scale,
        ):
            raise ValueError("histogram shapes differ; cannot diff")
        delta = Histogram(subbucket_bits=self._sub_bits, scale=self._scale)
        buckets: Dict[int, int] = {}
        for index, count in list(self._buckets.items()):
            grown = count - earlier._buckets.get(index, 0)
            if grown > 0:
                buckets[index] = grown
        delta._buckets = buckets
        delta.count = sum(buckets.values())
        delta._sum = max(0, self._sum - earlier._sum)
        if buckets:
            delta._min = self._bucket_low(min(buckets))
            delta._max = self._bucket_high(max(buckets))
            if self._max is not None and delta._max > self._max:
                delta._max = self._max
        return delta

    # ------------------------------------------------------------------
    # statistics

    @property
    def min(self) -> float:
        return (self._min or 0) / self._scale

    @property
    def max(self) -> float:
        return (self._max or 0) / self._scale

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        return self._sum / self.count / self._scale

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 < q <= 100), nearest-rank.

        Returns the recorded bucket's upper bound (exact for values
        below the linear range; within the relative-error bound above
        it), clamped to the true observed maximum.
        """
        if not 0 < q <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if not self.count:
            return 0.0
        rank = max(1, -(-int(q * self.count) // 100))  # ceil(q/100 * count)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                high = min(self._bucket_high(index), self._max or 0)
                return high / self._scale
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> Dict[str, float]:
        """JSON-ready {count, min, mean, p50, p90, p99, max}."""
        return {
            "count": self.count,
            "min": self.min,
            "mean": round(self.mean, 4),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def buckets(self) -> Iterator[Tuple[float, int]]:
        """(upper_bound, count) pairs in ascending order (sparse)."""
        for index in sorted(self._buckets):
            yield self._bucket_high(index) / self._scale, self._buckets[index]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs — Prometheus ``le`` form."""
        out: List[Tuple[float, int]] = []
        seen = 0
        for bound, count in self.buckets():
            seen += count
            out.append((bound, seen))
        return out

    @property
    def sum(self) -> float:
        """Sum of recorded values (scaled back)."""
        return self._sum / self._scale

    def to_state(self) -> Dict[str, object]:
        """Exact JSON-serializable snapshot (sparse buckets included)."""
        return {
            "subbucket_bits": self._sub_bits,
            "scale": self._scale,
            "buckets": sorted(self._buckets.items()),
            "count": self.count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_state` (bucket-exact)."""
        hist = cls(
            subbucket_bits=int(state["subbucket_bits"]),
            scale=float(state["scale"]),
        )
        hist._buckets = {
            int(index): int(count) for index, count in state["buckets"]
        }
        hist.count = int(state["count"])
        hist._sum = int(state["sum"])
        hist._min = None if state["min"] is None else int(state["min"])
        hist._max = None if state["max"] is None else int(state["max"])
        return hist


class Gauge:
    """A level with running min/max (occupancy, backlog, span depth)."""

    def __init__(self, initial: float = 0.0) -> None:
        self.value = initial
        self.min = initial
        self.max = initial
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def summary(self) -> Dict[str, float]:
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "updates": self.updates,
        }

    def snapshot(self) -> "Gauge":
        """An independent copy (level plus running extremes)."""
        clone = Gauge(self.value)
        clone.min = self.min
        clone.max = self.max
        clone.updates = self.updates
        return clone

    def to_state(self) -> Dict[str, float]:
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "updates": self.updates,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, float]) -> "Gauge":
        gauge = cls(state["value"])
        gauge.min = state["min"]
        gauge.max = state["max"]
        gauge.updates = int(state["updates"])
        return gauge

    def merge(self, other: "Gauge") -> None:
        """Fold a disjoint source's level into this one.

        Levels from disjoint sources (per-shard occupancies) *add*; the
        running extremes keep a conservative envelope (min of mins, max
        of the summed maxima would overstate — we keep max of maxes,
        which is exact when sources never overlap in time and an
        underestimate otherwise, documented as such).
        """
        self.value += other.value
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.updates += other.updates


class Counter:
    """A monotone total."""

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> "Counter":
        """An independent copy."""
        clone = Counter()
        clone.value = self.value
        return clone

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one (exact sum)."""
        self.value += other.value

    def delta_since(self, earlier: "Counter") -> "Counter":
        """A counter holding the growth since ``earlier`` (clamped >= 0)."""
        delta = Counter()
        delta.value = max(0, self.value - earlier.value)
        return delta

    def to_state(self) -> Dict[str, int]:
        return {"value": self.value}

    @classmethod
    def from_state(cls, state: Mapping[str, int]) -> "Counter":
        counter = cls()
        counter.value = int(state["value"])
        return counter


class InstrumentSet:
    """Named instrument families, get-or-create style, for the exporters.

    ``hist("x").record(...)`` either reuses the existing histogram
    ``x`` or creates it; same for :meth:`gauge` and :meth:`counter`.
    Names are export identifiers (Prometheus metric names), so keep
    them ``snake_case``.

    Each name is a *family*: passing ``labels={"shard": "3"}`` addresses
    an independent labeled series under the same name, with one shared
    kind per family (a name cannot be a labeled gauge and an unlabeled
    counter).  The no-``labels`` API is exactly the pre-label behavior —
    :meth:`items`, :meth:`__contains__`, and :meth:`__getitem__` see
    only the unlabeled series, so aggregate consumers never double
    count; label-aware consumers iterate :meth:`families` or
    :meth:`series`.
    """

    def __init__(self) -> None:
        #: family name -> label key -> instrument ((), the empty key,
        #: is the unlabeled series)
        self._families: Dict[str, Dict[LabelKey, object]] = {}
        #: family name -> instrument class (kind consistency across
        #: every series of the family, labeled or not)
        self._kinds: Dict[str, type] = {}
        #: set once a labeled series exists; lets per-tick consumers
        #: (the live collector) skip whole-registry label scans on
        #: unsharded runs with an O(1) check
        self._has_labeled = False

    def _get(
        self,
        name: str,
        kind: type,
        factory,
        labels: Optional[Mapping[str, object]],
    ) -> object:
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known is not kind:
            raise TypeError(
                f"instrument {name!r} is a {known.__name__}, "
                f"not a {kind.__name__}"
            )
        if labels is None:
            key: LabelKey = ()
        else:
            key = label_key(labels)
            if key:
                self._has_labeled = True
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {}
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = factory()
        return instrument

    def hist(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, object]] = None,
        **kwargs,
    ) -> Histogram:
        if labels and "le" in labels:
            raise ValueError(
                "'le' is reserved for histogram bucket bounds"
            )
        return self._get(name, Histogram, lambda: Histogram(**kwargs), labels)

    def gauge(
        self, name: str, *, labels: Optional[Mapping[str, object]] = None
    ) -> Gauge:
        return self._get(name, Gauge, Gauge, labels)

    def counter(
        self, name: str, *, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        return self._get(name, Counter, Counter, labels)

    def names(self) -> List[str]:
        """Sorted family names (labeled-only families included)."""
        return sorted(self._families)

    def __contains__(self, name: str) -> bool:
        family = self._families.get(name)
        return bool(family) and () in family

    def __getitem__(self, name: str) -> object:
        return self._families[name][()]

    def items(self) -> Sequence[Tuple[str, object]]:
        """Sorted ``(name, instrument)`` pairs — *unlabeled series only*.

        This is the aggregate view every pre-label consumer reads;
        labeled series live alongside and never show up here.
        """
        return sorted(
            (name, family[()])
            for name, family in self._families.items()
            if () in family
        )

    def series(self, name: str) -> Dict[LabelKey, object]:
        """Every series of one family, keyed by canonical label key."""
        return dict(self._families.get(name, {}))

    def families(self) -> List[Tuple[str, Dict[LabelKey, object]]]:
        """Sorted ``(name, {label_key: instrument})`` over all families."""
        return sorted(
            (name, dict(family)) for name, family in self._families.items()
        )

    def kind_of(self, name: str) -> Optional[type]:
        """The instrument class of a family (None if unknown)."""
        return self._kinds.get(name)

    @property
    def has_labeled_series(self) -> bool:
        """True once any labeled series has been registered."""
        return self._has_labeled

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready summary of every series.

        Unlabeled series keep their bare family name as the key;
        labeled series render as ``name{a="b"}`` (exposition-style,
        escaped), so the JSON snapshot of a sharded run reads like its
        scrape.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, family in sorted(self._families.items()):
            for key in sorted(family):
                instrument = family[key]
                label = f"{name}{render_label_key(key)}"
                if isinstance(instrument, (Histogram, Gauge)):
                    out[label] = instrument.summary()
                elif isinstance(instrument, Counter):
                    out[label] = {"value": instrument.value}
        return out

    # ------------------------------------------------------------------
    # label-aware merge / snapshot / delta

    def merge(self, other: "InstrumentSet") -> None:
        """Fold another set into this one, series by series.

        Label-aware and exact for counters (sums) and histograms
        (bucket-exact merges); gauges add levels with a conservative
        extreme envelope (see :meth:`Gauge.merge`).  This is the
        aggregation step for telemetry from sibling shards.
        """
        for name, family in other._families.items():
            kind = other._kinds[name]
            for key, theirs in family.items():
                if kind is Histogram:
                    mine = self._get(
                        name,
                        Histogram,
                        lambda h=theirs: Histogram(
                            subbucket_bits=h._sub_bits, scale=h._scale
                        ),
                        dict(key),
                    )
                    mine.merge(theirs)
                elif kind is Gauge:
                    self._get(name, Gauge, Gauge, dict(key)).merge(theirs)
                else:
                    self._get(name, Counter, Counter, dict(key)).merge(
                        theirs
                    )

    def snapshot(self) -> "InstrumentSet":
        """An independent copy of every series (same family layout)."""
        clone = InstrumentSet()
        clone._has_labeled = self._has_labeled
        for name, family in self._families.items():
            clone._kinds[name] = self._kinds[name]
            clone._families[name] = {
                key: instrument.snapshot()
                for key, instrument in family.items()
            }
        return clone

    def deltas_since(self, earlier: "InstrumentSet") -> "InstrumentSet":
        """Growth since an earlier :meth:`snapshot`, series by series.

        Counters and histograms diff exactly (missing-in-earlier series
        count from zero); gauges are levels, so the delta carries the
        *current* gauge unchanged.
        """
        delta = InstrumentSet()
        delta._has_labeled = self._has_labeled
        for name, family in self._families.items():
            kind = self._kinds[name]
            earlier_family = earlier._families.get(name, {})
            delta._kinds[name] = kind
            slot: Dict[LabelKey, object] = {}
            for key, instrument in family.items():
                before = earlier_family.get(key)
                if before is None:
                    slot[key] = instrument.snapshot()
                elif kind is Gauge:
                    slot[key] = instrument.snapshot()
                else:
                    slot[key] = instrument.delta_since(before)
            delta._families[name] = slot
        return delta

"""Array-backed SieveStore-C sieve kernel (the fast engine's substrate).

The object-model sieve (:class:`~repro.core.sievestore_c.SieveStoreC`
over :class:`~repro.core.imct.ImpreciseMissCountTable`) spends its
per-miss budget on Python calls: ``stable_bucket`` re-mixes the salt,
``WindowSpec.subwindow_index`` re-divides, and every recording walks a
``SubwindowCounter`` method chain.  This module re-expresses the same
state machine over flat arrays so the fast engine
(:mod:`repro.sim.fast_engine`) can run the sieve inline:

* :class:`ArrayIMCT` — the IMCT as numpy state: a ``(slots, k)`` uint8
  count matrix (saturating at :data:`~repro.core.windows.COUNTER_SATURATION`)
  plus an int64 ``last_subwindow`` vector.  SplitMix64 is reimplemented
  over uint64 arrays (:func:`~repro.util.hashing.mix64_array`) with the salt mix hoisted, so
  slot indices for a whole columnar chunk come out of one vectorized
  pass.  ``record_batch`` resolves a subwindow-homogeneous batch of
  recordings with sort-by-slot + per-slot occurrence ordinals — the
  fully batched primitive, validated against the object oracle.

* :class:`SieveStoreCKernel` — the working form the engine's scalar
  decision loop drives.  Admission decisions are order-dependent (a
  hit depends on the LRU resident set, which every admission mutates,
  and promotions move blocks between tiers mid-stream), so the
  per-miss loop stays scalar; the kernel's job is to make each scalar
  step a handful of flat-list operations on state the chunk pass
  already indexed.  ``sync()`` writes the flat state back into the
  policy's object tables, so checkpoints pickle the ordinary object
  policy and stay engine-agnostic.

Equivalence contract: driven over the same miss stream, the kernel's
state and every telemetry counter are bit-identical to the object
sieve's — the suite in ``tests/sim/test_sieve_equivalence.py`` enforces
this against :class:`~repro.cache.stats.CacheStats` and the sieve
metastate.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cache.allocation import AllocationPolicy
from repro.core.imct import ImpreciseMissCountTable
from repro.core.sievestore_c import SieveStoreC
from repro.core.windows import COUNTER_SATURATION
from repro.util.hashing import bucket_array, mix64_array  # noqa: F401 -- mix64_array re-exported
from repro.util.intervals import bucket_indices


def subwindow_indices(times: np.ndarray, subwindow_seconds: float) -> np.ndarray:
    """Subwindow index of each timestamp, with Python ``//`` semantics.

    ``numpy.floor_divide`` may differ by one ulp from Python's float
    floor-division near subwindow boundaries, and the engines' equality
    guarantee depends on bucketing identically with
    :meth:`~repro.core.windows.WindowSpec.subwindow_index`.  The shared
    primitive :func:`repro.util.intervals.bucket_indices` floors the
    quotients in one vectorized pass and recomputes only
    boundary-adjacent entries with scalar Python arithmetic; both this
    kernel and :meth:`~repro.traces.columnar.ColumnarTrace.issue_days`
    delegate to it so all pipelines bucket identically.
    """
    return bucket_indices(times, subwindow_seconds)


class ArrayIMCT:
    """The IMCT's counters as a ``(slots, k)`` uint8 matrix.

    Mirrors :class:`~repro.core.imct.ImpreciseMissCountTable` state
    exactly: row ``s`` holds slot ``s``'s subwindow counts and
    ``last_subwindow[s]`` its last-recorded subwindow (-1 when the slot
    has never recorded, in which case the row is all zeros).
    """

    def __init__(self, slots: int, subwindows: int, salt: int = 0x13C7):
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if subwindows <= 0:
            raise ValueError(f"subwindows must be positive, got {subwindows}")
        self.slots = slots
        self.subwindows = subwindows
        self.salt = salt
        from repro.util.hashing import mix64

        #: ``mix64(salt)``, hoisted: the per-address hash is one mix.
        self.salted = mix64(salt)
        self.counts = np.zeros((slots, subwindows), dtype=np.uint8)
        self.last_subwindow = np.full(slots, -1, dtype=np.int64)
        self.recorded_misses = 0

    @classmethod
    def from_table(cls, table: ImpreciseMissCountTable) -> "ArrayIMCT":
        """Snapshot an object IMCT (fresh or checkpoint-restored).

        A table that has never recorded (``recorded_misses == 0``) is
        all zeros with every ``last_subwindow`` at -1 — counters only
        become nonzero through ``record_miss``, which increments the
        total — so the constructor's zero state already matches and the
        per-slot snapshot loop is skipped.
        """
        array = cls(table.slots, table.window.subwindows, salt=table.salt)
        if table.recorded_misses == 0:
            return array
        array.counts = np.array(
            [counter._counts for counter in table._counters], dtype=np.uint8
        ).reshape(table.slots, table.window.subwindows)
        array.last_subwindow = np.fromiter(
            (counter._last_subwindow for counter in table._counters),
            dtype=np.int64,
            count=table.slots,
        )
        array.recorded_misses = table.recorded_misses
        return array

    def write_back(self, table: ImpreciseMissCountTable) -> None:
        """Copy array state into the object IMCT's counters.

        After this, the object table is indistinguishable from one that
        recorded the same miss stream itself — checkpoints pickle it
        as-is and either engine can resume from the result.
        """
        if table.slots != self.slots or table.window.subwindows != self.subwindows:
            raise ValueError(
                f"shape mismatch: table is {table.slots}x"
                f"{table.window.subwindows}, array is "
                f"{self.slots}x{self.subwindows}"
            )
        # One flat row-major tolist plus a list slice per counter is
        # several times cheaper than ``counts.tolist()``, which builds
        # every row as its own Python list inside numpy.  Rebinding
        # (not slice-copying) ``_counts`` is safe: nothing aliases a
        # counter's list, and each slice here is freshly built.
        flat = self.counts.reshape(-1).tolist()
        lasts = self.last_subwindow.tolist()
        k = self.subwindows
        position = 0
        for counter, last in zip(table._counters, lasts):
            counter._counts = flat[position:position + k]
            counter._last_subwindow = last
            position += k
        table.recorded_misses = self.recorded_misses

    def slots_of(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized slot index of each address (int64)."""
        return bucket_array(addresses, self.slots, self.salted)

    def row_totals(self) -> np.ndarray:
        """Per-slot sum of stored counts (int64).

        Equals each slot's windowed total as of its own last recording:
        lazy advancement zeroes expired positions on record, so every
        retained count lies within the window ending at
        ``last_subwindow`` and never-written positions are zero.
        """
        return self.counts.sum(axis=1, dtype=np.int64)

    # -- batched recording -------------------------------------------------
    def _advance_slots(self, unique_slots: np.ndarray, subwindow: int) -> None:
        """Roll the named slots forward to ``subwindow`` (expire stale)."""
        k = self.subwindows
        last = self.last_subwindow[unique_slots]
        gaps = subwindow - last
        stale = (last < 0) | (gaps >= k)
        stale_rows = unique_slots[stale]
        if stale_rows.size:
            self.counts[stale_rows] = 0
        for gap in range(1, k):
            rows = unique_slots[(~stale) & (gaps == gap)]
            if rows.size == 0:
                continue
            # Positions (last+1 .. subwindow) % k == (subwindow - g) % k
            # for g in [0, gap): the same set the scalar _advance zeroes.
            cols = np.array([(subwindow - g) % k for g in range(gap)], dtype=np.int64)
            self.counts[rows[:, None], cols] = 0
        self.last_subwindow[unique_slots] = subwindow

    def record_batch(self, slot_indices: np.ndarray, subwindow: int) -> np.ndarray:
        """Record one miss per entry of ``slot_indices``, all in
        ``subwindow``; returns each recording's windowed slot total.

        Bit-identical to sequentially calling ``SubwindowCounter.record``
        on the corresponding object counters: repeated slots receive
        their occurrence ordinal (sort-by-slot + cumulative position),
        and counts saturate at :data:`COUNTER_SATURATION` exactly where
        the sequential ``min`` would clamp them.
        """
        slot_indices = np.asarray(slot_indices, dtype=np.int64)
        n = int(slot_indices.size)
        self.recorded_misses += n
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        order = np.argsort(slot_indices, kind="stable")
        sorted_slots = slot_indices[order]
        is_first = np.empty(n, dtype=bool)
        is_first[0] = True
        np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=is_first[1:])
        group_starts = np.flatnonzero(is_first)
        unique_slots = sorted_slots[group_starts]
        self._advance_slots(unique_slots, subwindow)
        group_sizes = np.diff(np.append(group_starts, n))
        ordinal = np.arange(n, dtype=np.int64) - np.repeat(group_starts, group_sizes)
        col = subwindow % self.subwindows
        base = self.counts[sorted_slots, col].astype(np.int64)
        rest = self.counts[sorted_slots].sum(axis=1, dtype=np.int64) - base
        new_counts = np.minimum(base + ordinal + 1, COUNTER_SATURATION)
        totals_sorted = rest + new_counts
        self.counts[unique_slots, col] = np.minimum(
            base[group_starts] + group_sizes, COUNTER_SATURATION
        ).astype(np.uint8)
        totals = np.empty(n, dtype=np.int64)
        totals[order] = totals_sorted
        return totals


def supports(policy: AllocationPolicy) -> bool:
    """True if ``policy`` can be driven by :class:`SieveStoreCKernel`.

    Exact-type check on purpose: a subclass may override tier internals
    (``_tier2``, ``wants``) without the method-identity dispatch in
    :mod:`repro.sim.fast_engine` noticing — e.g.
    :class:`~repro.core.autotune.AdaptiveSieveStoreC` mutates its t2
    mid-run — so anything but a plain :class:`SieveStoreC` takes the
    general per-miss-call path.
    """
    return type(policy) is SieveStoreC


class SieveStoreCKernel:
    """Flat working state driving the fast engine's sieve branch.

    Owns the IMCT state as flat Python lists for the duration of a run
    (scalar list indexing beats numpy scalar indexing in a Python
    loop), with ``totals`` maintaining each slot's running row sum so a
    recording's windowed total is one addition.  The chunk pass
    (:meth:`precompute_chunk`) vectorizes everything that does not
    depend on decision order: per-block slot hashes and per-request
    subwindow indices.  The MCT tier stays on the live object — only
    IMCT-promoted blocks ever reach it, and calling the real
    ``record_miss`` preserves its prune scheduling and insert counting
    bit-identically.
    """

    def __init__(self, policy: SieveStoreC):
        if not supports(policy):
            raise TypeError(
                f"kernel requires a plain SieveStoreC, got {type(policy).__name__}"
            )
        self.policy = policy
        imct = policy.imct
        self.array = ArrayIMCT.from_table(imct)
        self.k = imct.window.subwindows
        self.n_slots = imct.slots
        #: W/k, hoisted (``WindowSpec.subwindow_seconds`` is a property
        #: the object path re-evaluates every miss).
        self.subwindow_seconds = imct.window.subwindow_seconds
        #: Column-major flat counts (cell ``col * n_slots + slot``): the
        #: engine loop derives a block's slot from its precomputed cell
        #: index with one subtraction (``ci - col * n_slots``), so no
        #: separate per-block slot table is needed.
        self.counts: List[int] = self.array.counts.T.reshape(-1).tolist()
        self.last: List[int] = self.array.last_subwindow.tolist()
        self.totals: List[int] = self.array.row_totals().tolist()

    def precompute_chunk(
        self,
        addresses: np.ndarray,
        block_counts: np.ndarray,
        issue_times: np.ndarray,
    ) -> Tuple[List[int], List[int]]:
        """Vectorized per-chunk index tables.

        Returns ``(subs, cis)``: per *request* the subwindow index, and
        per *block* (requests expanded to their consecutive block
        addresses) the flat index of the block's count cell in the
        column-major layout (``(sub % k) * n_slots + slot``).  The cell
        index is the only per-block table the scalar loop needs — the
        slot falls out by subtracting the request's column base.
        """
        counts = block_counts.astype(np.int64)
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        # blocks[i] = address-of-request + offset-within-request, via a
        # single repeat: repeat(addresses - starts) + arange.
        blocks = np.repeat(addresses - starts, counts) + np.arange(
            total, dtype=np.int64
        )
        slots = self.array.slots_of(blocks)
        subs = subwindow_indices(issue_times, self.subwindow_seconds)
        cis = np.repeat(subs % self.k, counts) * self.n_slots + slots
        return subs.tolist(), cis.tolist()

    def sync(self) -> None:
        """Write the flat IMCT state back into the policy's object table."""
        array = self.array
        # Transpose the column-major working list back to (slots, k).
        array.counts = np.ascontiguousarray(
            np.asarray(self.counts, dtype=np.uint8).reshape(
                self.k, array.slots
            ).T
        )
        array.last_subwindow = np.asarray(self.last, dtype=np.int64)
        array.write_back(self.policy.imct)
